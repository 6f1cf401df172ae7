"""Stage-1 ranking, grant sizing and displacement, computed from scratch.

This is the reference the table-driven code in `vrcgsim.stage1` is tested
against: every solve ranks each user's covering cells with its own
distance loop and sort, sizes a column and then checks its deadline in a
second pass, and finds a full cell's holders by scanning every placement.
`patched` swaps it into the solvers in place of `_Ctx` and `_try_place`.
"""
import contextlib
import math

from vrcgsim import stage1
from vrcgsim.radio import fixed_latency_s, frame_bits, link_tables, traffic_load_bps
from vrcgsim.scenario import Scenario, distance


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


@contextlib.contextmanager
def patched():
    """Run the stage-1 solvers on this reference instead of the tables."""
    saved = stage1._Ctx, stage1._try_place
    stage1._Ctx, stage1._try_place = ScalarCtx, try_place
    try:
        yield
    finally:
        stage1._Ctx, stage1._try_place = saved
