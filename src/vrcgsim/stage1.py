"""Admission, multi-connectivity association and PRB budgeting.

Every user enters at their headset's lowest resolution and frame rate and
asks each candidate base station for enough PRB grants to carry that
stream. A grant is one PRB for one TTI; a base station's budget over the
scheduling window is usable_prbs * ttis_per_window. Users hold preference
lists sorted by SINR and can displace worse-placed incumbents when a cell
is full. Each cell keeps its holders in eviction order (worst rank first,
later-generated user first among equals), so a displacement plan reads
the tail of that list. Users that no single cell can carry retry with
their demand split across two, then three cells (equal share per serving
cell, up to the configured connection cap).

A second phase (maximize_qoe) then walks admitted users most-dissatisfied
first and raises resolution (quality players) or frame rate (performance
players) one rung at a time while the PRB pool, per-cell throughput, the
frame queue and the per-frame deadline keep holding. A user whose step
does not fit is not offered one again until a cell serving them gets
grants back, since nothing else can make it fit; the pass makes the same
moves as offering everyone a step every round. vexa runs it on admission's
live state; solutions list users in catalog order.

Grants are sized as arrays over (user, cell, rung) columns, each column
priced at most once per solve: the entry rung of every covering pair, and
in each upgrade round the next rung of the users offered a step.

A solution's six latency parts per (user, serving cell) pair are one
table of arrays (latency_columns), built once and kept on the solution:
verify_stage1, stage 2's input table and stage 3's latency metric read it
and keep their own decisions. The audit decides throughput and deadlines
as array passes over its pairs and words only the users they flag. Each
cell's served users come from served_users.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import islice, repeat
from operator import itemgetter

import numpy as np

from .radio import (
    buffer_latency_s,
    cell_terms,
    fixed_parts,
    frame_bits,
    link_tables,
    traffic_load_bps,
)
from .scenario import BaseStation, RadioParams, Scenario, distance, pixels

_EVICTION_BUDGET = 3  # re-queue a displaced user at most this many times per pass
_REL_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    detail: str


@dataclass(frozen=True)
class Stage1Solution:
    """Association, PRB grants and stream settings for admitted users.

    assoc lists serving cells in the user's preference order; prbs counts
    PRB-TTI grants over the scheduling window; share is the fraction of the
    video stream each serving cell carries (equal split). Every dict of a
    solver's solution lists users in catalog order. _memo keeps what is
    derived from this solution alone (its latency columns, stage 2's input
    table, stage 3's grant layout), so it lives and dies with the
    timestep's solution.
    """

    assoc: dict[str, tuple[str, ...]]
    prbs: dict[tuple[str, str], int]
    resolution: dict[str, tuple[int, int]]
    frame_rate: dict[str, int]
    share: dict[tuple[str, str], float]
    admitted: frozenset[str]
    _memo: dict = field(init=False, compare=False, repr=False, default_factory=dict)


def _kept(owner, sc: Scenario, key: str, build):
    """owner._memo[key], made by build() unless it was made for this scenario.

    An entry is (scenario, value): what a solution derives is kept for the
    scenario instance it was derived on, and made afresh for any other.
    """
    kept = owner._memo.get(key)
    if kept is None or kept[0] is not sc:
        kept = owner._memo[key] = (sc, build())
    return kept[1]


def grant_pool(bs: BaseStation, radio: RadioParams) -> int:
    """Schedulable grants per window: one grant is one PRB for one TTI."""
    return bs.usable_prbs * radio.ttis_per_window


@dataclass(frozen=True)
class LatencyColumns:
    """The six latency parts of a solution's priced (user, serving cell) pairs.

    users maps the priced users, in catalog order, to their rows; row k
    streams at (resolution, fps) streams[stream[k]] and owns pairs
    first[k]:first[k+1], its known serving cells in assoc order. rate is
    each pair's grants times its one-PRB rate. The arrays are read-only.
    """

    users: dict[str, int]
    streams: list[tuple]  # distinct (resolution, fps)
    stream: np.ndarray  # [user]
    first: np.ndarray  # [user + 1]
    pairs: list[tuple[str, str]]  # (user, serving cell)
    rate: np.ndarray  # [pair], b/s
    parts: np.ndarray  # [routing, render, propagation, transmission, processing, queueing][pair]


def latency_columns(sc: Scenario, solution: Stage1Solution) -> LatencyColumns:
    """The six latency parts of every (user, serving cell) pair, kept on the solution.

    Routing, render, propagation, transmission, frame processing and
    queueing, at the user's selections and grants. Queueing reads the
    frame arrivals of every admitted user at the cell, a cell listed twice
    counting twice; zero grants take infinite transmission and a saturated
    queue infinite queueing. Pairs are priced for the admitted users the
    scenario knows that have a resolution and a frame rate, on the serving
    cells the scenario knows; selections off the headset's menu are priced
    like any other.
    """
    def build():
        cells, known, fps_of = sc._lookup["bs"], sc._lookup["user"], solution.frame_rate
        arrivals = dict.fromkeys(cells, 0.0)
        for uid in solution.admitted:
            if uid in known and uid in fps_of:
                for bid in solution.assoc.get(uid, ()):
                    if bid in arrivals:
                        arrivals[bid] += fps_of[uid]
        lt = link_tables(sc)
        users: dict[str, int] = {}
        streams: dict[tuple, int] = {}  # (res, fps) -> its row in `streams`
        picks: list[int] = []  # per user: link-table row, stream row
        pairs: list[tuple[str, str]] = []
        first = [0]
        for i, u in enumerate(sc.users):
            res = solution.resolution.get(u.id)
            if u.id in solution.admitted and u.id in fps_of and res is not None:
                users[u.id] = len(users)
                picks += (i, streams.setdefault((res, fps_of[u.id]), len(streams)))
                pairs += [(u.id, bid) for bid in solution.assoc.get(u.id, ()) if bid in cells]
                first.append(len(pairs))
        user = np.repeat(np.arange(len(users)), np.diff(first))
        rows, stream = np.array(picks, dtype=np.intp).reshape(-1, 2).T
        row = rows[user]
        col = np.fromiter(map(lt.bs_index.__getitem__, map(itemgetter(1), pairs)),
                          dtype=np.intp, count=len(pairs))
        terms = np.array([(*cell_terms(sc, b), buffer_latency_s(b, arrivals[b.id]))
                          for b in sc.base_stations], dtype=float).reshape(-1, 4)[col].T
        px, fps, bits = np.array([(pixels(res), f, frame_bits(sc, res)) for res, f in streams],
                                 dtype=float).reshape(-1, 3)[stream[user]].T
        routing, render, propagation, processing = fixed_parts(
            sc, *terms[:3], lt.distance_m[row, col], px, fps)
        grants = np.fromiter(map(solution.prbs.get, pairs, repeat(0)), dtype=float,
                             count=len(pairs))
        rate = grants * lt.se_bps[row, col]
        tx = np.divide(bits, rate, out=np.full(len(pairs), math.inf), where=grants > 0)
        first = np.array(first, dtype=np.intp)
        parts = np.array([routing, render, propagation, tx, processing, terms[3]])
        for array in (stream, first, rate, parts):
            array.flags.writeable = False
        return LatencyColumns(users, list(streams), stream, first, pairs, rate, parts)

    return _kept(solution, sc, "latency_columns", build)


def served_users(sc: Scenario, solution: Stage1Solution) -> dict[str, list[tuple[int, str]]]:
    """Each cell's admitted users in catalog order, as (catalog row, user id).

    Every cell of the scenario has a list; a serving cell the scenario
    does not know is left out, and a cell listed twice serves once.
    """
    served: dict[str, list[tuple[int, str]]] = {b.id: [] for b in sc.base_stations}
    for i, u in enumerate(sc.users):
        if u.id in solution.admitted:
            for bid in dict.fromkeys(solution.assoc[u.id]):
                if bid in served:
                    served[bid].append((i, u.id))
    return served


def is_quality(sc: Scenario, uid: str) -> bool:
    return sc.game_of(sc.user(uid)).preference_mode == "quality"


def qoe_stage1(sc: Scenario, solution: Stage1Solution, uid: str) -> float:
    """Log satisfaction over the user's own axis of preference.

    Quality players score the pixel ratio of the selected resolution over
    their headset's minimum; performance players score the frame-rate ratio.
    The minimum option scores zero.
    """
    if uid not in solution.admitted:
        raise ValueError(f"user {uid} not admitted")
    return _qoe(sc, uid, solution.resolution[uid], solution.frame_rate[uid])


def _qoe(sc: Scenario, uid: str, res, fps) -> float:
    hs = sc.headset_of(sc.user(uid))
    if is_quality(sc, uid):
        return math.log(pixels(res) / pixels(hs.resolutions[0]))
    return math.log(fps / hs.frame_rates[0])


def total_qoe_stage1(sc: Scenario, solution: Stage1Solution) -> float:
    return sum(qoe_stage1(sc, solution, uid) for uid in sorted(solution.admitted))


# ---------------------------------------------------------------------------
# Shared solver context


class _Ctx:
    """One solve's view of the link tables, plus capacities and grant sizes.

    rank maps each user to their covering cells, best first, and each
    cell to its rank. Grant sizes are priced in array batches over
    (user, cell, rung) columns: the entry rung of every covering pair once
    at construction, which demand reads for each split, and whatever
    batch an upgrade round asks of size.
    """

    def __init__(self, sc: Scenario):
        self.sc = sc
        self.lt = lt = link_tables(sc)
        bids = list(lt.bs_index)
        order = np.argsort(np.where(lt.rank < 0, len(bids), lt.rank), axis=1)
        covered = (lt.rank >= 0).sum(axis=1)
        ranked, counts = order.tolist(), covered.tolist()
        self.rank: dict[str, dict[str, int]] = {}
        shared: dict[tuple, dict[str, int]] = {}  # users ranking alike share one read-only dict
        for uid, i in lt.user_index.items():
            cols = tuple(ranked[i][: counts[i]])
            r = shared.get(cols)
            if r is None:
                r = shared[cols] = {bids[j]: k for k, j in enumerate(cols)}
            self.rank[uid] = r
        self.pool = {b.id: grant_pool(b, sc.radio) for b in sc.base_stations}
        self.cap = {b.id: b.frame_capacity_fps for b in sc.base_stations}
        # per cell: the fixed parts' cell terms, then the worst-case queue at
        # the solver's admission cap (half the frame capacity), so later
        # admissions can never break an earlier check
        self._cells = np.array(
            [(*cell_terms(sc, b), 2.0 / self.cap[b.id]) for b in sc.base_stations], dtype=float
        ).reshape(-1, 4).T
        # covering pairs, user by user and best cell first
        within = np.arange(len(bids)) < covered[:, None]
        self._covering = np.nonzero(within)[0], order[within]
        self._first = [0, *np.cumsum(covered).tolist()]
        self._rung_id: dict[tuple, int] = {}
        self._rungs: list[tuple] = []  # (pixels, fps, frame bits, load, deadline, groups)
        self._quality = {g.id: g.preference_mode == "quality" for g in sc.games}
        self._ladders: dict[tuple, tuple[list, list[tuple]]] = {}
        entry = {h.id: self.rung(h.resolutions[0], h.frame_rates[0]) for h in sc.headsets}
        rows, cols = self._covering
        rungs = np.array([entry[u.headset] for u in sc.users], dtype=np.intp).reshape(-1)
        self._entry_priced = self._price(rows, cols, rungs[rows])
        self._entry: dict[int, list[int | None]] = {}  # parts -> size of each covering pair

    def rung(self, res, fps) -> int:
        """Row of the selection (res, fps) in the table of what sizing reads of it."""
        key = (res, fps)
        r = self._rung_id.get(key)
        if r is None:
            sc = self.sc
            r = self._rung_id[key] = len(self._rungs)
            self._rungs.append((
                pixels(res), fps, frame_bits(sc, res), traffic_load_bps(sc, 1.0, res, fps),
                sc.radio.deadline_for(fps) + 1e-12, sc.radio.tti_groups_for(fps),
            ))
        return r

    def _price(self, rows, cols, rungs):
        """The parts of each column's sizing that the split does not change."""
        routing, render_pps, processing, queue = self._cells[:, cols]
        table = np.array(self._rungs, dtype=float).reshape(-1, 6)
        px, fps, bits, load, deadline, groups = table[rungs].T
        fixed = sum(fixed_parts(self.sc, routing, render_pps, processing,
                                self.lt.distance_m[rows, cols], px, fps)) + queue
        se = self.lt.se_bps[rows, cols]
        return fixed, deadline, bits, load, groups, se

    @staticmethod
    def _grants(priced, parts) -> list[int | None]:
        """Grants per column when its stream is split `parts` ways.

        Sized for the larger of the carried bit rate and the grants needed
        to push a whole frame over the air inside the deadline; the frame
        never shrinks with a split, so the deadline term ignores parts.
        None when no grant count meets the deadline. A size past 2**62
        grants, which no pool holds, reads as 2**62.
        """
        fixed, deadline, bits, load, groups, se = priced
        at = np.flatnonzero((se > 0) & (deadline - fixed > 0))
        need = np.ceil(load[at] / (parts * se)[at])
        fixed, deadline, bits, se = fixed[at], deadline[at], bits[at], se[at]
        tight = np.ceil(bits / ((deadline - fixed) * se))
        grants = np.maximum(np.maximum(need, tight), groups[at])
        meets = fixed + bits / (grants * se) <= deadline
        out: list[int | None] = [None] * len(priced[0])
        for k, g in zip(at[meets].tolist(),
                        np.minimum(grants[meets], 2.0 ** 62).astype(np.int64).tolist()):
            out[k] = g
        return out

    def size(self, rows, cols, rungs, parts) -> list[int | None]:
        """Grants of each (user row, cell column, rung, split) column, in one batch."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        return self._grants(self._price(rows, cols, np.asarray(rungs, dtype=np.intp)),
                            np.asarray(parts, dtype=float))

    def demand(self, uid: str, parts: int) -> list[int | None]:
        """Grants each covering cell must give uid at entry settings, best cell first.

        The stream is split `parts` ways; see _grants.
        """
        sizes = self._entry.get(parts)
        if sizes is None:
            sizes = self._entry[parts] = self._grants(self._entry_priced, parts)
        i = self.lt.user_index[uid]
        return sizes[self._first[i]:self._first[i + 1]]

    def ladder(self, uid: str, res, fps) -> tuple[list[tuple], int]:
        """uid's rungs as (res, fps, rung row, QoE), and where (res, fps) stands.

        The rungs run along the user's axis of preference with the other
        selection held; ValueError when (res, fps) is off the menu.
        """
        u = self.sc.user(uid)
        quality = self._quality[u.game]
        key = (u.headset, quality, fps if quality else res)
        found = self._ladders.get(key)
        if found is None:
            sc = self.sc
            hs = sc.headset_of(u)
            picks = ([(r, fps) for r in hs.resolutions] if quality
                     else [(res, f) for f in hs.frame_rates])
            found = self._ladders[key] = picks, [
                (r, f, self.rung(r, f), _qoe(sc, uid, r, f)) for r, f in picks]
        return found[1], found[0].index((res, fps))


class _State:
    """Mutable allocation while solving.

    holders lists each cell's users as (rank of the cell in their list,
    catalog row, uid), kept sorted, so the eviction order is fixed where a
    user is added: read backwards, the tail past a rank runs worst rank
    first and, among equals, later-generated user first.
    """

    def __init__(self, ctx: _Ctx):
        self.ctx = ctx
        self.place: dict[str, dict[str, int]] = {}  # uid -> bid -> grants
        self.res: dict[str, tuple[int, int]] = {}
        self.fps: dict[str, int] = {}
        self.used = {bid: 0 for bid in ctx.pool}
        self.arrivals = {bid: 0.0 for bid in ctx.pool}
        self.holders: dict[str, list[tuple[int, int, str]]] = {bid: [] for bid in ctx.pool}

    def add(self, uid: str, placements: dict[str, int], res, fps):
        self.place[uid] = placements
        self.res[uid] = res
        self.fps[uid] = fps
        rank, row = self.ctx.rank[uid], self.ctx.lt.user_index[uid]
        for bid, g in placements.items():
            self.used[bid] += g
            self.arrivals[bid] += fps
            insort(self.holders[bid], (rank.get(bid, -1), row, uid))

    def remove(self, uid: str):
        rank, row = self.ctx.rank[uid], self.ctx.lt.user_index[uid]
        for bid, g in self.place.pop(uid).items():
            self.used[bid] -= g
            self.arrivals[bid] -= self.fps[uid]
            held = self.holders[bid]
            del held[bisect_left(held, (rank.get(bid, -1), row, uid))]
        del self.res[uid]
        del self.fps[uid]

    def to_solution(self) -> Stage1Solution:
        """The placed users as a solution, in catalog (link-table row) order."""
        assoc = {}
        prbs = {}
        share = {}
        for uid in sorted(self.place, key=self.ctx.lt.user_index.__getitem__):
            placements = self.place[uid]
            bids = assoc[uid] = tuple(placements)
            for bid, g in placements.items():
                prbs[(uid, bid)] = g
                share[(uid, bid)] = 1.0 / len(bids)
        return Stage1Solution(
            assoc=assoc,
            prbs=prbs,
            resolution={uid: self.res[uid] for uid in assoc},
            frame_rate={uid: self.fps[uid] for uid in assoc},
            share=share,
            admitted=frozenset(self.place),
        )


# ---------------------------------------------------------------------------
# Association


def _try_place(ctx: _Ctx, st: _State, uid: str, parts: int) -> list[str] | None:
    """Give uid `parts` cells at entry settings; returns displaced users.

    Nothing is committed unless all `parts` cells are secured, so a failed
    attempt leaves the allocation untouched. Displacement follows strict
    preference: the candidate must rank a cell higher in its own list than
    the incumbent does in its own, and incumbents go in the order the
    cell's holder list keeps (worst-placed first, ties broken toward the
    later-generated user). A cell has room when its pool and queue left,
    plus what the planned evictions give back there, cover the ask.
    """
    sc = ctx.sc
    hs = sc.headset_of(sc.user(uid))
    res, fps = hs.resolutions[0], hs.frame_rates[0]
    chosen: dict[str, int] = {}
    evicted: dict[str, None] = {}  # in eviction order
    for my_rank, (bid, ask) in enumerate(zip(ctx.rank[uid], ctx.demand(uid, parts))):
        if len(chosen) == parts:
            break
        if ask is None:
            continue
        grants, frames = ctx.pool[bid] - st.used[bid], 0.5 * ctx.cap[bid] - st.arrivals[bid]
        # what the planned evictions give back at bid
        back = sum(st.place[v].get(bid, 0) for v in evicted)
        back_fps = sum(st.fps[v] for v in evicted if bid in st.place[v])
        if ask > grants + back or fps > frames + back_fps:
            # cell is full: plan displacements among strictly worse-placed users
            held, picked = st.holders[bid], []
            for _, _, v in islice(reversed(held), len(held) - bisect_left(held, (my_rank + 1,))):
                if v not in evicted:
                    picked.append(v)
                    back += st.place[v][bid]
                    back_fps += st.fps[v]
                    if ask <= grants + back and fps <= frames + back_fps:
                        break
            else:
                continue  # not even every allowed eviction makes room
            evicted.update(dict.fromkeys(picked))
        chosen[bid] = ask

    if len(chosen) < parts:
        return None
    for v in evicted:
        st.remove(v)
    st.add(uid, chosen, res, fps)
    return list(evicted)


def vexa(sc: Scenario, max_connections: int | None = None) -> Stage1Solution:
    """Preference-driven admission with displacement, then QoE upgrades.

    Users are processed in a seeded random order. A pass places each
    pending user on `parts` cells; users no pass could place are reported
    unadmitted. Deterministic for a given scenario.
    """
    n = max_connections if max_connections is not None else sc.radio.max_connections
    ctx = _Ctx(sc)
    st = _State(ctx)
    rng = np.random.default_rng((sc.seed, 0xA55))
    remaining = [sc.users[i].id for i in rng.permutation(len(sc.users))]
    for parts in range(1, n + 1):
        queue = deque(remaining)
        failed: list[str] = []
        requeues: dict[str, int] = {}
        while queue:
            uid = queue.popleft()
            displaced = _try_place(ctx, st, uid, parts)
            if displaced is None:
                failed.append(uid)
                continue
            for v in displaced:
                requeues[v] = requeues.get(v, 0) + 1
                if requeues[v] <= _EVICTION_BUDGET:
                    queue.append(v)
                else:
                    failed.append(v)
        remaining = failed
        if not remaining:
            break
    return _upgrade(st)


def baseline_single_association(sc: Scenario) -> Stage1Solution:
    """Every user limited to one serving cell."""
    return vexa(sc, max_connections=1)


def baseline_dual_connectivity(sc: Scenario) -> Stage1Solution:
    """Every user limited to two serving cells."""
    return vexa(sc, max_connections=2)


# ---------------------------------------------------------------------------
# QoE upgrades


def _offer_steps(ctx: _Ctx, st: _State, users, climb, offer) -> None:
    """Size the next rung of each user's serving cells, in one batch.

    offer[uid] becomes (res, fps, grants per serving cell) of that rung,
    or None for a user at the top of its ladder.
    """
    index, column = ctx.lt.user_index, ctx.lt.bs_index.__getitem__
    rows: list[int] = []
    cols: list[int] = []
    rungs: list[int] = []
    parts: list[int] = []
    steps = []
    for uid in users:
        ladder, pos = climb[uid]
        if pos + 1 == len(ladder):
            offer[uid] = None
            continue
        res, fps, rung, _ = ladder[pos + 1]
        cells = st.place[uid]
        n = len(cells)
        rows += [index[uid]] * n
        cols += map(column, cells)
        rungs += [rung] * n
        parts += [n] * n
        steps.append((uid, res, fps, n))
    sizes = ctx.size(rows, cols, rungs, parts)
    at = 0
    for uid, res, fps, n in steps:
        offer[uid] = res, fps, sizes[at:at + n]
        at += n


def _try_upgrade(ctx: _Ctx, st: _State, uid: str, step) -> list[str] | None:
    """Move uid to its sized next rung; the cells that gained slack, or None.

    None when the step does not fit: no next rung, a cell with no grant
    count for it, a pool or a queue cap it would overrun. Only grants can
    be given back: frame rates never fall, since ladders strictly rise.
    """
    if step is None:
        return None
    res2, fps2, asks = step
    placements = st.place[uid]
    fps = st.fps[uid]
    for (bid, g), g2 in zip(placements.items(), asks):
        if g2 is None:
            return None
        if st.used[bid] - g + g2 > ctx.pool[bid]:
            return None
        if st.arrivals[bid] - fps + fps2 > 0.5 * ctx.cap[bid]:
            return None
    freed = [bid for (bid, g), g2 in zip(placements.items(), asks) if g2 < g]
    st.remove(uid)
    st.add(uid, dict(zip(placements, asks)), res2, fps2)
    return freed


def maximize_qoe(solution: Stage1Solution, sc: Scenario) -> Stage1Solution:
    """Raise selections one rung at a time, most-dissatisfied user first.

    Each round takes admitted users by the gap between their best
    achievable and current QoE and offers each a single step. A step that
    does not fit is not offered again until a cell serving the user gains
    slack: the user's own selections are unchanged, queues only fill, and
    pools only fill until an upgrade gives back grants. A user who regains
    a chance comes back at their place in the order, in the same round if
    that place is still ahead. Stops at the fixed point where no single
    upgrade stays feasible, reached by the same moves as offering everyone
    a step every round. Upgrades only ever move selections up. A selection
    off the headset's menu raises ValueError.
    """
    st = _State(_Ctx(sc))
    for uid in solution.admitted:
        placements = {bid: solution.prbs[(uid, bid)] for bid in solution.assoc[uid]}
        st.add(uid, placements, solution.resolution[uid], solution.frame_rate[uid])
    return _upgrade(st)


def _upgrade(st: _State) -> Stage1Solution:
    """maximize_qoe's pass on a live allocation, which it moves to the fixed point."""
    ctx = st.ctx
    climb = {}  # uid -> (ladder, position on it)
    key = {}  # uid -> (-gap, row), the order of a round
    for uid in st.place:
        climb[uid] = ladder, pos = ctx.ladder(uid, st.res[uid], st.fps[uid])
        key[uid] = (-(ladder[-1][3] - ladder[pos][3]), ctx.lt.user_index[uid])

    offer: dict[str, tuple | None] = {}  # uid -> its next rung, sized
    waiting: set[str] = set()  # whose step failed, until a cell of theirs gains slack
    ahead = list(st.place)
    while ahead:
        _offer_steps(ctx, st, [uid for uid in ahead if uid not in offer], climb, offer)
        heap = sorted((key[uid], uid) for uid in ahead)
        ahead = []
        while heap:
            here, uid = heapq.heappop(heap)
            freed = _try_upgrade(ctx, st, uid, offer[uid])
            if freed is None:
                waiting.add(uid)
                continue
            ladder, pos = climb[uid]
            climb[uid] = ladder, pos + 1
            key[uid] = (-(ladder[-1][3] - ladder[pos + 1][3]), here[1])
            del offer[uid]
            ahead.append(uid)
            for bid in freed:
                for _, _, v in st.holders[bid]:
                    if v in waiting:
                        waiting.discard(v)
                        if key[v] > here:  # still ahead in this round
                            heapq.heappush(heap, (key[v], v))
                        else:
                            ahead.append(v)
    return st.to_solution()


# ---------------------------------------------------------------------------
# Verification


def verify_stage1(solution: Stage1Solution, sc: Scenario) -> list[Violation]:
    """Independent constraint audit of a stage-1 solution.

    Checks association bounds, coverage of every serving cell, grant
    exclusivity and pool capacity, menu membership of the selections,
    share normalization, per-cell throughput against the carried load, and
    the end-to-end deadline with the exact queue occupancy produced by the
    admitted set.
    """
    out: list[Violation] = []
    known = sc._lookup["user"]
    cells = sc._lookup["bs"]
    n = sc.radio.max_connections
    priced: list[str] = []  # users on the menu with serving cells: their rates are audited
    offered = dict(solution.resolution)  # the resolutions the audit prices: none off the menu

    for uid in sorted(solution.admitted):
        if uid not in known:
            out.append(Violation("unknown-user", uid, "admitted id not in scenario"))
            continue
        bids = solution.assoc.get(uid, ())
        if not 1 <= len(bids) <= n:
            out.append(
                Violation(
                    "association-bounds",
                    uid,
                    f"{len(bids)} serving cells, allowed 1..{n}",
                )
            )
        if len(set(bids)) != len(bids):
            out.append(Violation("association-bounds", uid, "duplicate serving cell"))
        u = sc.user(uid)
        for bid in bids:
            b = cells.get(bid)
            if b is not None and (d := distance(u.position, b.position)) > b.coverage_radius_m:
                out.append(Violation("coverage", f"{uid}/{bid}",
                                     f"{d:.1f} m away, radius {b.coverage_radius_m:.1f} m"))
        hs = sc.headset_of(u)
        res = solution.resolution.get(uid)
        if res not in hs.resolutions:
            out.append(Violation("selection", uid, f"resolution {res} not offered by headset"))
            offered.pop(uid, None)
        fps = solution.frame_rate.get(uid)
        if fps not in hs.frame_rates:
            out.append(Violation("selection", uid, f"frame rate {fps} not offered by headset"))
        shares = [solution.share.get((uid, bid)) for bid in bids]
        if any(s is None or s <= 0 for s in shares):
            out.append(Violation("share", uid, "missing or non-positive share"))
        elif bids and abs(sum(shares) - 1.0) > 1e-9:
            out.append(Violation("share", uid, f"shares sum to {sum(shares):.12f}"))
        if bids and res in hs.resolutions and fps in hs.frame_rates:
            priced.append(uid)

    for uid in solution.assoc:
        if uid not in solution.admitted:
            out.append(Violation("exclusivity", uid, "association entry for unadmitted user"))

    granted: dict[str, int] = {}  # per cell, for the pool check
    for (uid, bid), g in solution.prbs.items():
        granted[bid] = granted.get(bid, 0) + g
        if g <= 0:
            out.append(Violation("exclusivity", f"{uid}/{bid}", "non-positive grant entry"))
        if uid not in solution.admitted or bid not in solution.assoc.get(uid, ()):
            out.append(Violation("exclusivity", f"{uid}/{bid}", "grants outside association"))
    for uid in sorted(solution.admitted):
        for bid in solution.assoc.get(uid, ()):
            if solution.prbs.get((uid, bid), 0) <= 0:
                out.append(Violation("exclusivity", f"{uid}/{bid}", "serving cell has no grants"))
    for bs in sc.base_stations:
        used = granted.get(bs.id, 0)
        pool = grant_pool(bs, sc.radio)
        if used > pool:
            out.append(Violation("pool", bs.id, f"{used} grants allocated, budget {pool}"))

    if len(offered) < len(solution.resolution):  # one off the menu may not even be numbers
        solution = replace(solution, resolution=offered)
    return out + _rate_audit(solution, sc, priced)


def _rate_audit(solution: Stage1Solution, sc: Scenario, users: list[str]) -> list[Violation]:
    """Throughput and deadline of the serving pairs of `users`, as array passes.

    Each pair must carry its share of the stream within its grants' rate,
    and each user's slowest serving cell (the first of equals) must meet
    the deadline on the solution's latency columns. users are known
    admitted users on the menu, with serving cells, by id; one with a cell
    the scenario does not know is not held to the deadline. Only the users
    the passes flag are worded, user by user.
    """
    if not users:
        return []
    table = latency_columns(sc, solution)
    rows = [table.users[uid] for uid in users]
    n = len(table.users)
    load, deadline = np.zeros((2, n))  # only the rows of `users` are read
    for k in set(table.stream[rows].tolist()):  # the streams of `users`
        res, fps = table.streams[k]
        at = table.stream == k
        load[at], deadline[at] = traffic_load_bps(sc, 1.0, res, fps), sc.radio.deadline_for(fps)
    deadline += 1e-12
    user = np.repeat(np.arange(n), np.diff(table.first))
    share = np.fromiter(map(solution.share.get, table.pairs, repeat(0.0)), dtype=float,
                        count=len(user))
    carried, rate = share * load[user], table.rate
    short = carried > rate * (1 + _REL_TOL) + 1e-9
    total = sum(table.parts)
    hit = np.bincount(user, weights=short | (total > deadline[user]), minlength=n) > 0
    # a user with fewer pairs than serving cells has one the scenario does not know
    stray = np.diff(table.first)[rows] < [len(solution.assoc[uid]) for uid in users]
    first, cells = table.first.tolist(), sc._lookup["bs"]

    out: list[Violation] = []
    for i in np.flatnonzero(stray | hit[rows]).tolist():
        uid, k = users[i], rows[i]
        p = first[k]
        for bid in solution.assoc[uid]:
            if bid not in cells:
                out.append(Violation("association-bounds", uid, f"unknown cell {bid}"))
                continue
            if short[p]:
                out.append(Violation(
                    "throughput", f"{uid}/{bid}",
                    f"carries {float(carried[p]):.1f} b/s over capacity {float(rate[p]):.1f} b/s",
                ))
            p += 1
        totals = total[first[k]:p].tolist()
        if stray[i] or (worst := max(totals)) <= deadline[k]:
            continue
        limit = sc.radio.deadline_for(solution.frame_rate[uid])
        out.append(Violation(
            "deadline", uid,
            f"latency {worst * 1e3:.3f} ms over {limit * 1e3:.3f} ms"
            f" (binding cell {solution.assoc[uid][totals.index(worst)]})",
        ))
    return out
