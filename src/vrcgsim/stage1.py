"""Admission, multi-connectivity association and PRB budgeting.

Every user enters at their headset's lowest resolution and frame rate and
asks each candidate base station for enough PRB grants to carry that
stream. A grant is one PRB for one TTI; a base station's budget over the
scheduling window is usable_prbs * ttis_per_window. Users hold preference
lists sorted by SINR and can displace worse-placed incumbents when a cell
is full. Users that no single cell can carry retry with their demand split
across two, then three cells (equal share per serving cell, up to the
configured connection cap).

A second phase (maximize_qoe) then walks admitted users most-dissatisfied
first and raises resolution (quality players) or frame rate (performance
players) one rung at a time while the PRB pool, per-cell throughput, the
frame queue and the per-frame deadline keep holding.

A solution's six-part latency columns and each cell's served users are
derived in one place each (latency_columns, served_users); verify_stage1,
stage 2's input table and stage 3 read them and keep their own decisions.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .radio import (
    buffer_latency_s,
    fixed_latency_s,
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
    video stream each serving cell carries (equal split). _memo keeps
    what later stages derive from this solution alone (stage 2 keeps its
    input table there, stage 3 its grant layout and each user's fixed
    latency), so it lives and dies with the timestep's solution. The
    latency columns those readers start from (latency_columns) are not
    kept: each reader derives them and keeps only what it decides.
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


def latency_columns(
    sc: Scenario, solution: Stage1Solution
) -> dict[str, dict[str, tuple[float, float, float, float, float, float]]]:
    """The six latency parts of every (user, serving cell) pair, by user and cell.

    Routing, render, propagation, transmission, frame processing and
    queueing, at the user's selections and grants. Queueing reads the
    frame arrivals of every admitted user at the cell; zero grants take
    infinite transmission and a saturated queue infinite queueing. Pairs
    are priced for the admitted users the scenario knows that have a
    resolution and a frame rate, on the serving cells the scenario knows;
    selections off the headset's menu are priced like any other.
    """
    cells, known = sc._lookup["bs"], sc._lookup["user"]
    rated = [uid for uid in solution.admitted if uid in known and uid in solution.frame_rate]
    arrivals = dict.fromkeys(cells, 0.0)
    for uid in rated:
        for bid in solution.assoc.get(uid, ()):
            if bid in arrivals:
                arrivals[bid] += solution.frame_rate[uid]
    lt = link_tables(sc)
    out: dict[str, dict[str, tuple[float, float, float, float, float, float]]] = {}
    for uid in rated:
        res = solution.resolution.get(uid)
        if res is None:
            continue
        u, fps = known[uid], solution.frame_rate[uid]
        bits = frame_bits(sc, res)
        cols = out[uid] = {}
        for bid in solution.assoc.get(uid, ()):
            bs = cells.get(bid)
            if bs is None:
                continue
            routing, render, propagation, processing = fixed_parts(sc, u, bs, res, fps)
            grants = solution.prbs.get((uid, bid), 0)
            tx = math.inf if grants <= 0 else bits / (grants * lt.se_of(uid, bid))
            cols[bid] = (routing, render, propagation, tx, processing,
                         buffer_latency_s(bs, arrivals[bid]))
    return out


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
    return sum(qoe_stage1(sc, solution, uid) for uid in solution.admitted)


# ---------------------------------------------------------------------------
# Shared solver context


class _Ctx:
    """One solve's view of the link tables, plus capacities.

    rank maps each user to their covering cells, best first, and each
    cell to its rank.
    """

    def __init__(self, sc: Scenario):
        self.sc = sc
        self.lt = lt = link_tables(sc)
        bids = list(lt.bs_index)
        order = np.argsort(np.where(lt.rank < 0, len(bids), lt.rank), axis=1).tolist()
        covered = (lt.rank >= 0).sum(axis=1).tolist()
        self.rank: dict[str, dict[str, int]] = {
            uid: {bids[j]: k for k, j in enumerate(order[i][: covered[i]])}
            for uid, i in lt.user_index.items()
        }
        self.pool = {b.id: grant_pool(b, sc.radio) for b in sc.base_stations}
        self.cap = {b.id: b.frame_capacity_fps for b in sc.base_stations}

    def demand(self, uid: str, bid: str, parts: int, res, fps) -> int | None:
        """Grants one cell must give when the stream is split parts ways.

        Sized for the larger of the carried bit rate and the grants needed
        to push a whole frame over the air inside the deadline; the frame
        never shrinks with a split, so the deadline term ignores parts.
        The fixed latency takes the worst-case queue at the solver's
        admission cap (half the frame capacity), so later admissions can
        never break an earlier check. None when no grant count meets the
        deadline.
        """
        sc = self.sc
        se = self.lt.se_of(uid, bid)
        if se <= 0:
            return None
        deadline = sc.radio.deadline_for(fps) + 1e-12
        fixed = fixed_latency_s(sc, sc.user(uid), sc.bs(bid), res, fps) + 2.0 / self.cap[bid]
        budget = deadline - fixed
        if budget <= 0:
            return None
        bits = frame_bits(sc, res)
        need = math.ceil(traffic_load_bps(sc, 1.0, res, fps) / (parts * se))
        tight = math.ceil(bits / (budget * se))
        grants = max(need, tight, sc.radio.tti_groups_for(fps))
        return grants if fixed + bits / (grants * se) <= deadline else None


class _State:
    """Mutable allocation while solving.

    holders buckets each cell's users by the cell's rank in their lists.
    """

    def __init__(self, ctx: _Ctx):
        self.ctx = ctx
        self.place: dict[str, dict[str, int]] = {}  # uid -> bid -> grants
        self.res: dict[str, tuple[int, int]] = {}
        self.fps: dict[str, int] = {}
        self.used = {bid: 0 for bid in ctx.pool}
        self.arrivals = {bid: 0.0 for bid in ctx.pool}
        self.holders: dict[str, dict[int, set[str]]] = {bid: {} for bid in ctx.pool}

    def add(self, uid: str, placements: dict[str, int], res, fps):
        self.place[uid] = placements
        self.res[uid] = res
        self.fps[uid] = fps
        rank = self.ctx.rank[uid]
        for bid, g in placements.items():
            self.used[bid] += g
            self.arrivals[bid] += fps
            self.holders[bid].setdefault(rank.get(bid, -1), set()).add(uid)

    def remove(self, uid: str):
        rank = self.ctx.rank[uid]
        for bid, g in self.place.pop(uid).items():
            self.used[bid] -= g
            self.arrivals[bid] -= self.fps[uid]
            self.holders[bid][rank.get(bid, -1)].remove(uid)
        del self.res[uid]
        del self.fps[uid]

    def to_solution(self) -> Stage1Solution:
        assoc = {}
        prbs = {}
        share = {}
        for uid, placements in self.place.items():
            bids = tuple(placements)
            assoc[uid] = bids
            for bid, g in placements.items():
                prbs[(uid, bid)] = g
                share[(uid, bid)] = 1.0 / len(bids)
        return Stage1Solution(
            assoc=assoc,
            prbs=prbs,
            resolution=dict(self.res),
            frame_rate=dict(self.fps),
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
    the incumbent does in its own, and the worst-placed incumbent goes
    first (ties broken toward the later-generated user).
    """
    sc = ctx.sc
    hs = sc.headset_of(sc.user(uid))
    res, fps = hs.resolutions[0], hs.frame_rates[0]
    index = ctx.lt.user_index
    chosen: dict[str, int] = {}
    evicted: dict[str, None] = {}  # in eviction order
    freed_pool = {bid: 0 for bid in ctx.pool}
    freed_arr = {bid: 0.0 for bid in ctx.pool}

    def fits(bid: str, ask: int) -> bool:
        return (ask <= ctx.pool[bid] - st.used[bid] + freed_pool[bid]
                and fps <= 0.5 * ctx.cap[bid] - st.arrivals[bid] + freed_arr[bid])

    for my_rank, bid in enumerate(ctx.rank[uid]):
        if len(chosen) == parts:
            break
        ask = ctx.demand(uid, bid, parts, res, fps)
        if ask is None:
            continue
        if fits(bid, ask):
            chosen[bid] = ask
            continue
        # cell is full: plan displacements among strictly worse-placed users
        buckets = st.holders[bid]
        incumbents = (
            v
            for r in sorted(buckets, reverse=True) if r > my_rank
            for v in sorted(buckets[r], key=index.__getitem__, reverse=True)
            if v not in evicted
        )
        snap_pool = dict(freed_pool)
        snap_arr = dict(freed_arr)
        picked: list[str] = []
        for v in incumbents:
            picked.append(v)
            for vb, g in st.place[v].items():
                freed_pool[vb] += g
                freed_arr[vb] += st.fps[v]
            if fits(bid, ask):
                break
        if fits(bid, ask):
            evicted.update(dict.fromkeys(picked))
            chosen[bid] = ask
        else:
            freed_pool.update(snap_pool)
            freed_arr.update(snap_arr)

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
        requeues = {uid: 0 for uid in remaining}
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
    return maximize_qoe(st.to_solution(), sc)


def baseline_single_association(sc: Scenario) -> Stage1Solution:
    """Every user limited to one serving cell."""
    return vexa(sc, max_connections=1)


def baseline_dual_connectivity(sc: Scenario) -> Stage1Solution:
    """Every user limited to two serving cells."""
    return vexa(sc, max_connections=2)


# ---------------------------------------------------------------------------
# QoE upgrades


def _next_option(sc: Scenario, uid: str, solution_res, solution_fps):
    hs = sc.headset_of(sc.user(uid))
    if is_quality(sc, uid):
        i = hs.resolutions.index(solution_res)
        if i + 1 == len(hs.resolutions):
            return None
        return hs.resolutions[i + 1], solution_fps
    i = hs.frame_rates.index(solution_fps)
    if i + 1 == len(hs.frame_rates):
        return None
    return solution_res, hs.frame_rates[i + 1]


def _try_upgrade(ctx: _Ctx, st: _State, uid: str) -> bool:
    nxt = _next_option(ctx.sc, uid, st.res[uid], st.fps[uid])
    if nxt is None:
        return False
    res2, fps2 = nxt
    placements = st.place[uid]
    parts = len(placements)
    new_grants = {}
    for bid, g in placements.items():
        g2 = ctx.demand(uid, bid, parts, res2, fps2)
        if g2 is None:
            return False
        if st.used[bid] - g + g2 > ctx.pool[bid]:
            return False
        if st.arrivals[bid] - st.fps[uid] + fps2 > 0.5 * ctx.cap[bid]:
            return False
        new_grants[bid] = g2
    st.remove(uid)
    st.add(uid, new_grants, res2, fps2)
    return True


def maximize_qoe(solution: Stage1Solution, sc: Scenario) -> Stage1Solution:
    """Raise selections one rung at a time, most-dissatisfied user first.

    Each round sorts admitted users by the gap between their best achievable
    and current QoE and offers everyone a single step. Stops at the fixed
    point where no single upgrade stays feasible. Upgrades only ever move
    selections up.
    """
    ctx = _Ctx(sc)
    st = _State(ctx)
    for uid in solution.admitted:
        placements = {bid: solution.prbs[(uid, bid)] for bid in solution.assoc[uid]}
        st.add(uid, placements, solution.resolution[uid], solution.frame_rate[uid])

    def gap(uid: str) -> float:
        hs = sc.headset_of(sc.user(uid))
        return (_qoe(sc, uid, hs.resolutions[-1], hs.frame_rates[-1])
                - _qoe(sc, uid, st.res[uid], st.fps[uid]))

    changed = True
    while changed:
        changed = False
        order = sorted(st.place, key=lambda uid: (-gap(uid), ctx.lt.user_index[uid]))
        for uid in order:
            if _try_upgrade(ctx, st, uid):
                changed = True
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
    known = {u.id for u in sc.users}
    cells = {b.id: b for b in sc.base_stations}
    n = sc.radio.max_connections

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
        fps = solution.frame_rate.get(uid)
        if fps not in hs.frame_rates:
            out.append(Violation("selection", uid, f"frame rate {fps} not offered by headset"))
        shares = [solution.share.get((uid, bid)) for bid in bids]
        if any(s is None or s <= 0 for s in shares):
            out.append(Violation("share", uid, "missing or non-positive share"))
        elif bids and abs(sum(shares) - 1.0) > 1e-9:
            out.append(Violation("share", uid, f"shares sum to {sum(shares):.12f}"))

    for uid in solution.assoc:
        if uid not in solution.admitted:
            out.append(Violation("exclusivity", uid, "association entry for unadmitted user"))

    for (uid, bid), g in solution.prbs.items():
        if g <= 0:
            out.append(Violation("exclusivity", f"{uid}/{bid}", "non-positive grant entry"))
        if uid not in solution.admitted or bid not in solution.assoc.get(uid, ()):
            out.append(Violation("exclusivity", f"{uid}/{bid}", "grants outside association"))
    for uid in solution.admitted:
        for bid in solution.assoc.get(uid, ()):
            if solution.prbs.get((uid, bid), 0) <= 0:
                out.append(Violation("exclusivity", f"{uid}/{bid}", "serving cell has no grants"))

    granted: dict[str, int] = {}
    for (_, bid), g in solution.prbs.items():
        granted[bid] = granted.get(bid, 0) + g
    for bs in sc.base_stations:
        used = granted.get(bs.id, 0)
        pool = grant_pool(bs, sc.radio)
        if used > pool:
            out.append(Violation("pool", bs.id, f"{used} grants allocated, budget {pool}"))

    # deadlines are checked at offered resolutions only, so only those are
    # priced; every frame rate still counts toward the queues
    offered = {
        uid: res for uid, res in solution.resolution.items()
        if uid in known and res in sc.headset_of(sc.user(uid)).resolutions
    }
    columns = latency_columns(sc, replace(solution, resolution=offered))
    lt = link_tables(sc)
    for uid in sorted(solution.admitted):
        if uid not in known:
            continue
        u = sc.user(uid)
        bids = solution.assoc.get(uid, ())
        res = solution.resolution.get(uid)
        fps = solution.frame_rate.get(uid)
        if not bids or res not in sc.headset_of(u).resolutions or fps not in sc.headset_of(u).frame_rates:
            continue
        load = traffic_load_bps(sc, 1.0, res, fps)
        for bid in bids:
            if bid not in cells:
                out.append(Violation("association-bounds", uid, f"unknown cell {bid}"))
                continue
            carried = solution.share.get((uid, bid), 0.0) * load
            tp = solution.prbs.get((uid, bid), 0) * lt.se_of(uid, bid)
            if carried > tp * (1 + _REL_TOL) + 1e-9:
                out.append(
                    Violation(
                        "throughput",
                        f"{uid}/{bid}",
                        f"carries {carried:.1f} b/s over capacity {tp:.1f} b/s",
                    )
                )
        if any(bid not in cells for bid in bids):
            continue
        # the slowest serving cell binds, the first of equals
        totals = [
            routing + render + propagation + tx + processing + queueing
            for routing, render, propagation, tx, processing, queueing
            in map(columns[uid].__getitem__, bids)
        ]
        worst = max(totals)
        if worst > sc.radio.deadline_for(fps) + 1e-12:
            out.append(
                Violation(
                    "deadline",
                    uid,
                    f"latency {worst * 1e3:.3f} ms over {sc.radio.deadline_for(fps) * 1e3:.3f} ms"
                    f" (binding cell {bids[totals.index(worst)]})",
                )
            )
    return out
