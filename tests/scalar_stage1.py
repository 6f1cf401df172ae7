"""Stage-1 ranking, grant sizing, upgrades and audit, computed from scratch.

This is the reference the table-driven code in `vrcgsim.stage1` is tested
against: every solve ranks each user's covering cells with its own
distance loop and sort, sizes a column one scalar call at a time and then
checks its deadline in a second pass, and finds a full cell's holders by
scanning every placement. The upgrade pass offers every admitted user a
step in every round until a round changes nothing, and the audit prices
each serving pair's six latency parts one pair at a time (`latency_columns`,
the reference for `stage1.latency_columns`) and checks them user by user.
`patched` swaps it into the solvers in place of `_Ctx`, `_try_place`,
the upgrade pass `_upgrade` and `verify_stage1`.
"""
import contextlib
import math
from dataclasses import replace

from vrcgsim import stage1
from vrcgsim.radio import (
    buffer_latency_s,
    cell_terms,
    fixed_latency_s,
    fixed_parts,
    frame_bits,
    link_tables,
    traffic_load_bps,
)
from vrcgsim.scenario import Scenario, distance, pixels
from vrcgsim.stage1 import Stage1Solution, Violation


class ScalarCtx:
    """Per-scenario candidate ranking and capacities, with two-pass sizing."""

    def __init__(self, sc: Scenario):
        self.sc = sc
        self.lt = lt = link_tables(sc)
        self.cands: dict[str, list[str]] = {}
        self.rank: dict[str, dict[str, int]] = {}
        for i, u in enumerate(sc.users):
            covering = [
                (float(-lt.sinr[i, j]), j, b.id)
                for j, b in enumerate(sc.base_stations)
                if distance(u.position, b.position) <= b.coverage_radius_m
            ]
            covering.sort()
            self.cands[u.id] = [bid for _, _, bid in covering]
            self.rank[u.id] = {bid: k for k, (_, _, bid) in enumerate(covering)}
        self.pool = {b.id: stage1.grant_pool(b, sc.radio) for b in sc.base_stations}
        self.cap = {b.id: b.frame_capacity_fps for b in sc.base_stations}

    def fixed_s(self, uid: str, bid: str, res, fps) -> float:
        """Per-column latency before the air interface, worst-case queue."""
        sc = self.sc
        return fixed_latency_s(sc, sc.user(uid), sc.bs(bid), res, fps) + 2.0 / self.cap[bid]

    def size(self, uid: str, bid: str, parts: int, res, fps) -> int | None:
        """Grants for the larger of the carried rate and the frame deadline."""
        se = self.lt.se_of(uid, bid)
        if se <= 0:
            return None
        budget = self.sc.radio.deadline_for(fps) + 1e-12 - self.fixed_s(uid, bid, res, fps)
        if budget <= 0:
            return None
        load = traffic_load_bps(self.sc, 1.0, res, fps)
        need = math.ceil(load / (parts * se))
        tight = math.ceil(frame_bits(self.sc, res) / (budget * se))
        return max(need, tight, self.sc.radio.tti_groups_for(fps))

    def column_ok(self, uid: str, bid: str, grants: int, res, fps) -> bool:
        """Deadline check for one serving cell, worst-case queue assumed."""
        if grants <= 0:
            return False
        bits = frame_bits(self.sc, res)
        total = self.fixed_s(uid, bid, res, fps) + bits / (grants * self.lt.se_of(uid, bid))
        return total <= self.sc.radio.deadline_for(fps) + 1e-12

    def demand(self, uid: str, bid: str, parts: int, res, fps) -> int | None:
        """The sized column if it passes its deadline check, for upgrades."""
        ask = self.size(uid, bid, parts, res, fps)
        if ask is None or not self.column_ok(uid, bid, ask, res, fps):
            return None
        return ask


def try_place(ctx: ScalarCtx, st, uid: str, parts: int) -> list[str] | None:
    """Entry-settings placement on `parts` cells, scanning for incumbents."""
    sc = ctx.sc
    hs = sc.headset_of(sc.user(uid))
    res, fps = hs.resolutions[0], hs.frame_rates[0]
    chosen: list[tuple[str, int]] = []
    evicted: set[str] = set()
    freed_pool = {bid: 0 for bid in ctx.pool}
    freed_arr = {bid: 0.0 for bid in ctx.pool}
    eviction_order: list[str] = []

    for bid in ctx.cands[uid]:
        if len(chosen) == parts:
            break
        ask = ctx.size(uid, bid, parts, res, fps)
        if ask is None or not ctx.column_ok(uid, bid, ask, res, fps):
            continue
        pool_left = ctx.pool[bid] - st.used[bid] + freed_pool[bid]
        arr_left = 0.5 * ctx.cap[bid] - st.arrivals[bid] + freed_arr[bid]
        if ask <= pool_left and fps <= arr_left:
            chosen.append((bid, ask))
            continue
        my_rank = ctx.rank[uid][bid]
        incumbents = [
            v
            for v in st.place
            if bid in st.place[v] and v not in evicted and ctx.rank[v][bid] > my_rank
        ]
        incumbents.sort(key=lambda v: (ctx.rank[v][bid], ctx.lt.user_index[v]), reverse=True)
        snap_pool = dict(freed_pool)
        snap_arr = dict(freed_arr)
        picked: list[str] = []
        for v in incumbents:
            picked.append(v)
            for vb, g in st.place[v].items():
                freed_pool[vb] += g
                freed_arr[vb] += st.fps[v]
            pool_left = ctx.pool[bid] - st.used[bid] + freed_pool[bid]
            arr_left = 0.5 * ctx.cap[bid] - st.arrivals[bid] + freed_arr[bid]
            if ask <= pool_left and fps <= arr_left:
                break
        pool_left = ctx.pool[bid] - st.used[bid] + freed_pool[bid]
        arr_left = 0.5 * ctx.cap[bid] - st.arrivals[bid] + freed_arr[bid]
        if ask <= pool_left and fps <= arr_left:
            evicted.update(picked)
            eviction_order.extend(picked)
            chosen.append((bid, ask))
        else:
            freed_pool.update(snap_pool)
            freed_arr.update(snap_arr)

    if len(chosen) < parts:
        return None
    for v in eviction_order:
        st.remove(v)
    st.add(uid, {bid: ask for bid, ask in chosen}, res, fps)
    return eviction_order


def next_option(sc: Scenario, uid: str, res, fps):
    """The next rung on the user's axis of preference, None at the top."""
    hs = sc.headset_of(sc.user(uid))
    if stage1.is_quality(sc, uid):
        i = hs.resolutions.index(res)
        if i + 1 == len(hs.resolutions):
            return None
        return hs.resolutions[i + 1], fps
    i = hs.frame_rates.index(fps)
    if i + 1 == len(hs.frame_rates):
        return None
    return res, hs.frame_rates[i + 1]


def try_upgrade(ctx: ScalarCtx, st, uid: str) -> bool:
    """One step for uid if every serving cell can size and hold it."""
    nxt = next_option(ctx.sc, uid, st.res[uid], st.fps[uid])
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
    """Every round, every admitted user by QoE gap gets a step, until none moves."""
    ctx = ScalarCtx(sc)
    st = stage1._State(ctx)
    for uid in solution.admitted:
        placements = {bid: solution.prbs[(uid, bid)] for bid in solution.assoc[uid]}
        st.add(uid, placements, solution.resolution[uid], solution.frame_rate[uid])

    def gap(uid: str) -> float:
        hs = sc.headset_of(sc.user(uid))
        return (stage1._qoe(sc, uid, hs.resolutions[-1], hs.frame_rates[-1])
                - stage1._qoe(sc, uid, st.res[uid], st.fps[uid]))

    changed = True
    while changed:
        changed = False
        order = sorted(st.place, key=lambda uid: (-gap(uid), ctx.lt.user_index[uid]))
        for uid in order:
            if try_upgrade(ctx, st, uid):
                changed = True
    return st.to_solution()


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
    terms = {bid: cell_terms(sc, bs) for bid, bs in cells.items()}
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
            routing, render, propagation, processing = fixed_parts(
                sc, *terms[bid], distance(u.position, bs.position), pixels(res), fps)
            grants = solution.prbs.get((uid, bid), 0)
            tx = math.inf if grants <= 0 else bits / (grants * lt.se_of(uid, bid))
            cols[bid] = (routing, render, propagation, tx, processing,
                         buffer_latency_s(bs, arrivals[bid]))
    return out


def verify_stage1(solution: Stage1Solution, sc: Scenario) -> list[Violation]:
    """Constraint audit of a stage-1 solution, pair by pair and user by user.

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
    for uid in sorted(solution.admitted):
        for bid in solution.assoc.get(uid, ()):
            if solution.prbs.get((uid, bid), 0) <= 0:
                out.append(Violation("exclusivity", f"{uid}/{bid}", "serving cell has no grants"))

    granted: dict[str, int] = {}
    for (_, bid), g in solution.prbs.items():
        granted[bid] = granted.get(bid, 0) + g
    for bs in sc.base_stations:
        used = granted.get(bs.id, 0)
        pool = stage1.grant_pool(bs, sc.radio)
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
            if carried > tp * (1 + stage1._REL_TOL) + 1e-9:
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


@contextlib.contextmanager
def patched():
    """Run the stage-1 solvers and audit on this reference instead of the tables."""
    names = ("_Ctx", "_try_place", "_upgrade", "verify_stage1")
    saved = [getattr(stage1, name) for name in names]

    def upgrade(st):
        return maximize_qoe(st.to_solution(), st.ctx.sc)

    for name, f in zip(names, (ScalarCtx, try_place, upgrade, verify_stage1)):
        setattr(stage1, name, f)
    try:
        yield
    finally:
        for name, f in zip(names, saved):
            setattr(stage1, name, f)
