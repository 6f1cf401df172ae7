"""Per-object resolution refinement and grant scheduling over TTIs.

Stage 1 fixes one resolution for a user's whole frame, but attention is
not uniform: a player watches one or two objects closely and the rest
peripherally. amps redistributes resolution between a user's objects
without raising the traffic volume the earlier stages budgeted for, so
closely watched objects sharpen at the expense of background ones.

mtpsched then turns each user's grant total into a concrete TTI
schedule, spacing the grants so a freshly generated frame never waits
long for a transmission opportunity. The layout reads only stage 1, so
it is built once per stage-1 solution (one per timestep) and amps and
mtpsched share it. It is built as arrays, each user's pins on a cell in
one array step, and the same pass emits its grants as flat arrays.
Round-robin and proportional-fair schedulers are provided as comparison
points; both hand out all PRBs of every TTI and ignore grant totals and
group coverage on purpose. The layout and both baselines take each
cell's users from stage1.served_users.

mtp_latency and verify_stage3 read a schedule through flat_schedule, its
grants as arrays, and each user's scene load, both built at most once per
solution; amps and mtpsched come with the layout's flat grants already in
place. mtp_latency takes each user's fixed latency parts at its worst
serving cell by one reduce over the stage-1 solution's kept latency table
(stage1.latency_columns). verify_stage3 decides each schedule rule once,
as array passes over those grants, and words only what they find, as a
grant-by-grant audit would.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, repeat
from operator import itemgetter

import numpy as np

from .radio import link_tables, traffic_load_bps
from .scenario import Scenario, pixels
from .stage1 import (
    Stage1Solution,
    Violation,
    _kept,
    grant_pool,
    latency_columns,
    served_users,
)

ResMap = dict[tuple[str, str], tuple[int, int]]


@dataclass(frozen=True)
class Stage3Solution:
    """Object resolutions plus the per-TTI grant layout.

    schedule maps (bs, tti) to the users transmitting in that TTI with
    their PRB counts; TTIs without entries are omitted. tti_groups holds
    each user's group start offsets (group j spans [starts[j], starts[j+1])
    with the last group ending at the window). A solution is read as built:
    its schedule's arrays are kept in _memo once made, and amps and
    mtpsched hand theirs over already made.
    """

    object_resolution: ResMap
    schedule: dict[tuple[str, int], tuple[tuple[str, int], ...]]
    tti_groups: dict[str, tuple[int, ...]]
    _memo: dict = field(init=False, compare=False, repr=False, default_factory=dict)


@dataclass(frozen=True)
class MtpReport:
    """Motion-to-photon latency per frame and per user."""

    average_s: dict[str, float]
    samples: dict[str, np.ndarray]  # read-only views into one array of all frames
    truncated: frozenset[str]  # users with frames still queued at window end


def group_starts(ttis: int, groups: int) -> tuple[int, ...]:
    """Start offsets of `groups` contiguous near-equal slices of the window."""
    return tuple(j * ttis // groups for j in range(groups))


def _tti_groups(sc: Scenario, stage1: Stage1Solution) -> dict[str, tuple[int, ...]]:
    """Each admitted user's group starts; one tuple per group count."""
    ttis = sc.radio.ttis_per_window
    starts_of: dict[int, tuple[int, ...]] = {}
    groups: dict[str, tuple[int, ...]] = {}
    for uid in stage1.admitted:
        t = sc.radio.tti_groups_for(stage1.frame_rate[uid])
        if t not in starts_of:
            starts_of[t] = group_starts(ttis, t)
        groups[uid] = starts_of[t]
    return groups


def stage1_object_resolutions(sc: Scenario, stage1: Stage1Solution) -> ResMap:
    """Every object at the resolution stage 1 picked for the whole frame."""
    out: ResMap = {}
    for u in sc.users:
        if u.id not in stage1.admitted:
            continue
        for o in u.objects:
            out[(u.id, o.id)] = stage1.resolution[u.id]
    return out


def objects_load(
    sc: Scenario, stage1: Stage1Solution, resolutions: ResMap, uid: str
) -> float:
    """Downlink bit rate of one user's scene under per-object resolutions.

    Each object contributes its pixel share of a frame at its own
    resolution; with every object at the stage-1 selection this telescopes
    back to the stage-1 traffic load.
    """
    u = sc.user(uid)
    fps = stage1.frame_rate[uid]
    return sum(
        traffic_load_bps(sc, o.pixel_share, resolutions[(uid, o.id)], fps)
        for o in u.objects
    )


def qoe_stage3(
    sc: Scenario, stage1: Stage1Solution, resolutions: ResMap, uid: str
) -> float:
    """Attention-weighted log satisfaction over the user's objects."""
    u = sc.user(uid)
    hs = sc.headset_of(u)
    floor = pixels(hs.resolutions[0]) * hs.frame_rates[0]
    fps = stage1.frame_rate[uid]
    return sum(
        o.attention * math.log(pixels(resolutions[(uid, o.id)]) * fps / floor)
        for o in u.objects
    )


def total_qoe_stage3(
    sc: Scenario, stage1: Stage1Solution, resolutions: ResMap
) -> float:
    return sum(qoe_stage3(sc, stage1, resolutions, uid) for uid in sorted(stage1.admitted))


# ---------------------------------------------------------------------------
# Attention-aware resolution refinement


def amps(sc: Scenario, stage1: Stage1Solution) -> Stage3Solution:
    """Upgrade closely watched objects, paying with background ones.

    Each admitted user is held to their own stage-1 budget and refined
    alone, in catalog order. Objects are tried in attention order: an
    object moves up one rung whenever the scene still fits the stage-1
    traffic budget; otherwise a lower-attention object with the largest
    on-screen pixel area drops a rung to free room, and the swap is kept
    only when the attention weights make it a net gain. Passes repeat
    until nothing moves.

    The grants are mtpsched's layout, which the stage-1 solution keeps:
    an mtpsched of the same timestep reuses it rather than building it
    again.
    """
    resolutions = stage1_object_resolutions(sc, stage1)
    for u in sc.users:
        if u.id not in stage1.admitted:
            continue
        rungs = sc.headset_of(u).resolutions
        budget = pixels(stage1.resolution[u.id]) * (1 + 1e-9)
        level = {o.id: rungs.index(stage1.resolution[u.id]) for o in u.objects}

        def screen_px() -> float:
            return sum(o.pixel_share * pixels(rungs[level[o.id]]) for o in u.objects)

        # the scene is summed afresh after each move, never patched, so
        # it reads the same as a sum taken before every test
        scene = screen_px()
        watched = sorted(u.objects, key=lambda o: (-o.attention, -o.pixel_share, o.id))
        moved = True
        while moved:
            moved = False
            for o in watched:
                if level[o.id] == len(rungs) - 1:
                    continue
                step = o.pixel_share * (
                    pixels(rungs[level[o.id] + 1]) - pixels(rungs[level[o.id]])
                )
                if scene + step <= budget:
                    level[o.id] += 1
                    scene = screen_px()
                    moved = True
                    continue
                gain = o.attention * math.log(
                    pixels(rungs[level[o.id] + 1]) / pixels(rungs[level[o.id]])
                )
                # background objects make the natural donors, but any
                # object may pay as long as the weighted gain test holds
                donors = sorted(
                    (p for p in u.objects if p.id != o.id and level[p.id] > 0),
                    key=lambda p: (
                        p.attention >= o.attention,
                        -p.pixel_share * pixels(rungs[level[p.id]]),
                        p.id,
                    ),
                )
                for p in donors:
                    freed = p.pixel_share * (
                        pixels(rungs[level[p.id]]) - pixels(rungs[level[p.id] - 1])
                    )
                    loss = p.attention * math.log(
                        pixels(rungs[level[p.id]]) / pixels(rungs[level[p.id] - 1])
                    )
                    if gain - loss <= 1e-12:
                        continue
                    if scene + step - freed > budget:
                        continue
                    level[o.id] += 1
                    level[p.id] -= 1
                    scene = screen_px()
                    moved = True
                    break
        for o in u.objects:
            resolutions[(u.id, o.id)] = rungs[level[o.id]]
    return mtpsched(sc, stage1, resolutions)


# ---------------------------------------------------------------------------
# Grant scheduling


def mtpsched(
    sc: Scenario, stage1: Stage1Solution, resolutions: ResMap | None = None
) -> Stage3Solution:
    """Spread each user's grants evenly across the scheduling window.

    Two passes per base station, both over users in catalog order. The
    first pins one grant into every TTI group of every user, aiming at
    the evenly spaced offsets (j+1)*K/(T+1) and falling back to the
    nearest free TTI inside the group. The second spreads the remaining
    grants over the whole window the same way. Raises ValueError when a
    base station cannot hold its users' grants or a group is already
    packed solid.

    The layout depends on stage 1 alone, not on the resolutions, so it is
    built once per stage-1 solution and kept on it: amps and a following
    mtpsched of the same timestep share one layout. It is built as
    arrays, each user's pins on a cell placed in one array step, and
    its flat grants (what flat_schedule returns) come with it, shared
    read-only by every solution of the timestep.
    """
    if resolutions is None:
        resolutions = stage1_object_resolutions(sc, stage1)
    schedule, groups, flat = _kept(stage1, sc, "grant_layout", lambda: _grant_layout(sc, stage1))
    solution = Stage3Solution(resolutions, dict(schedule), dict(groups))
    # its own view of the shared read-only grant arrays
    solution._memo["flat"] = (sc, replace(flat))
    return solution


def _grant_layout(
    sc: Scenario, stage1: Stage1Solution
) -> tuple[
    dict[tuple[str, int], tuple[tuple[str, int], ...]],
    dict[str, tuple[int, ...]],
    FlatSchedule,
]:
    """mtpsched's schedule, TTI groups and flat grants, built from scratch.

    Every take gets the free TTI nearest its target, ties to the earlier.
    One user's pins lie in its own disjoint groups, so they are placed in
    one array step; its extra grants are taken one at a time.
    """
    ttis = sc.radio.ttis_per_window
    groups = _tti_groups(sc, stage1)
    layouts = {len(starts): starts for starts in groups.values()}
    walks = {t: _pin_walk(ttis, starts) for t, starts in layouts.items()}

    served = served_users(sc, stage1)
    takes: list[tuple[int, np.ndarray, np.ndarray]] = []
    for c, b in enumerate(sc.base_stations):
        owed = [
            (i, len(groups[uid]), stage1.prbs[(uid, b.id)])
            for i, uid in served[b.id]
        ]
        if not owed:
            continue
        total = sum(y for _, _, y in owed)
        pool = grant_pool(b, sc.radio)
        if total > pool:
            raise ValueError(f"{total} grants exceed the {pool} schedulable on {b.id}")
        # the slot past the window stands for a group's end: never free
        free = np.full(ttis + 1, b.usable_prbs, dtype=np.int64)
        free[ttis] = 0
        # each group's place in its walk; TTIs only fill, so a cursor
        # only ever passes full ones
        cursors = {t: first.copy() for t, (_, first, _) in walks.items()}
        picks: list[np.ndarray] = []
        who: list[int] = []
        sizes: list[int] = []

        for i, t, y in owed:
            m = min(t, y)
            if m <= 0:
                continue
            walk, _, end = walks[t]
            cur = cursors[t][:m]
            got = walk[cur]
            if not free[got].all():
                full = free[got] == 0
                while (step := full & (cur < end[:m])).any():
                    cur[step] += 1
                    got = walk[cur]
                    full = free[got] == 0
                if full.any():
                    raise ValueError(
                        f"no spare TTI left in group {int(np.argmax(full))} on {b.id}"
                    )
            free[got] -= 1
            picks.append(got)
            who.append(i)
            sizes.append(m)

        avail = np.flatnonzero(free)
        for i, t, y in owed:
            extra = y - t
            if extra <= 0:
                continue
            targets = np.minimum(np.arange(1, extra + 1) * ttis // (extra + 1), ttis - 1)
            got = np.empty(extra, dtype=np.int64)
            for k in range(extra):
                got[k] = tti = _nearest_free(avail, targets[k:k + 1], b.id)[0]
                free[tti] -= 1
                if not free[tti]:
                    avail = avail[avail != tti]
            picks.append(got)
            who.append(i)
            sizes.append(extra)

        if picks:
            takes.append((c, np.concatenate(picks), np.repeat(who, sizes)))

    schedule, flat = _schedule_of_takes(sc, takes)
    return schedule, groups, flat


def _pin_walk(
    ttis: int, starts: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every group's TTIs in the order a pin tries them, for one layout.

    Group j's TTIs sit at [first[j], end[j]) of the walk, nearest its
    pin target first, the earlier of two equally near first; at end[j]
    stands the slot past the window, which is never free.
    """
    t = len(starts)
    bounds = np.array(starts + (ttis,), dtype=np.int64)
    lo, hi = bounds[:-1], bounds[1:]
    j = np.arange(t)
    target = np.minimum(np.maximum((j + 1) * ttis // (t + 1), lo), hi - 1)
    group = np.repeat(j, hi - lo)
    gap = np.arange(ttis) - target[group]
    order = np.lexsort((2 * np.abs(gap) - (gap < 0), group))
    return np.insert(order, hi, ttis), lo + j, hi + j


def _nearest_free(avail: np.ndarray, targets: np.ndarray, bid: str) -> np.ndarray:
    """The TTI of `avail` (sorted) nearest each target, ties to the earlier."""
    if not avail.size:
        raise ValueError(f"schedule of {bid} is full")
    pos = np.searchsorted(avail, targets)
    left = avail[np.maximum(pos - 1, 0)]
    right = avail[np.minimum(pos, avail.size - 1)]
    earlier = (pos > 0) & ((pos == avail.size) | (targets - left <= right - targets))
    return np.where(earlier, left, right)


def _schedule_of_takes(
    sc: Scenario, takes: list[tuple[int, np.ndarray, np.ndarray]]
) -> tuple[dict[tuple[str, int], tuple[tuple[str, int], ...]], FlatSchedule]:
    """The schedule and its flat grants, from every cell's takes in order.

    takes holds (cell column, TTI of each take, catalog row of its user).
    A cell's keys come in the order of their first take, and a key's
    entries (user, takes) in the order of the user ids.
    """
    ttis = sc.radio.ttis_per_window
    ids = [u.id for u in sc.users]
    n_users = max(len(ids), 1)
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
    id_rank = np.empty(len(ids), dtype=np.int64)
    id_rank[by_id] = np.arange(len(ids))
    codes, key_bs, key_tti = [], [], []
    keys = 0
    for c, tti, who in takes:
        first = np.full(ttis, tti.size)
        np.minimum.at(first, tti, np.arange(tti.size))
        used = np.flatnonzero(first < tti.size)
        order = used[np.argsort(first[used])]
        key_of = np.empty(ttis, dtype=np.int64)
        key_of[order] = np.arange(keys, keys + order.size)
        codes.append(key_of[tti] * n_users + id_rank[who])
        key_bs.append(np.full(order.size, c))
        key_tti.append(order)
        keys += order.size
    empty = [np.zeros(0, dtype=np.int64)]
    code, n = np.unique(np.concatenate(codes or empty), return_counts=True)
    flat = FlatSchedule(  # a catalog row is also the user's link-table row
        key=(code // n_users).astype(np.int32),
        user=by_id[code % n_users].astype(np.int32),
        n=n.astype(np.int64),
        key_bs=np.concatenate(key_bs or empty).astype(np.int32),
        key_tti=np.concatenate(key_tti or empty).astype(np.int64),
    )
    for a in vars(flat).values():
        a.flags.writeable = False

    # most entries are one pin, (user, 1): each user's is made once and shared
    entries = np.fromiter(((uid, 1) for uid in ids), dtype=object, count=len(ids))[flat.user]
    for k in np.flatnonzero(n != 1).tolist():
        entries[k] = (ids[flat.user[k]], int(n[k]))
    entries = entries.tolist()
    bids = [b.id for b in sc.base_stations]
    cuts = np.searchsorted(flat.key, np.arange(keys + 1)).tolist()
    schedule = {
        (bids[b], tti): tuple(entries[lo:hi])
        for b, tti, lo, hi in zip(
            flat.key_bs.tolist(), flat.key_tti.tolist(), cuts, cuts[1:]
        )
    }
    return schedule, flat


def baseline_round_robin(sc: Scenario, stage1: Stage1Solution) -> Stage3Solution:
    """Hand out every PRB of every TTI in fixed-size turns.

    The turn pointer survives TTI boundaries, so over the window each
    user gets the same number of quanta regardless of where the TTI cuts
    fall. Grant totals from stage 1 are ignored.
    """
    resolutions = stage1_object_resolutions(sc, stage1)
    ttis = sc.radio.ttis_per_window
    groups = _tti_groups(sc, stage1)
    users_of = served_users(sc, stage1)
    schedule: dict[tuple[str, int], tuple[tuple[str, int], ...]] = {}
    for b in sc.base_stations:
        users = [uid for _, uid in users_of[b.id]]
        if not users:
            continue
        quantum = max(1, b.usable_prbs // 2)
        ptr = 0
        for tti in range(ttis):
            left = b.usable_prbs
            counts: dict[str, int] = {}
            while left > 0:
                uid = users[ptr % len(users)]
                ptr += 1
                grab = min(quantum, left)
                counts[uid] = counts.get(uid, 0) + grab
                left -= grab
            schedule[(b.id, tti)] = tuple(sorted(counts.items()))
    return Stage3Solution(resolutions, schedule, groups)


def baseline_proportional_fair(
    sc: Scenario, stage1: Stage1Solution
) -> Stage3Solution:
    """Give each TTI wholesale to the user with the best rate-to-average.

    Averages follow an exponentially weighted mean over a 100-TTI
    horizon, seeded with the one-PRB rate so nobody starts at zero. Ties
    go to the lowest user id, where a ratio within a relative 1e-12 of the
    best ties with it: seeded averages make every first ratio
    `usable_prbs` up to rounding, which must not pick the winner. Grant
    totals from stage 1 are ignored.
    """
    resolutions = stage1_object_resolutions(sc, stage1)
    ttis = sc.radio.ttis_per_window
    alpha = 1.0 / 100.0
    lt = link_tables(sc)
    groups = _tti_groups(sc, stage1)
    users_of = served_users(sc, stage1)
    schedule: dict[tuple[str, int], tuple[tuple[str, int], ...]] = {}
    for b in sc.base_stations:
        users = [uid for _, uid in users_of[b.id]]
        if not users:
            continue
        rate = {uid: lt.se_of(uid, b.id) * b.usable_prbs for uid in users}
        avg = {uid: lt.se_of(uid, b.id) for uid in users}
        for tti in range(ttis):
            ratio = {uid: rate[uid] / avg[uid] for uid in users}
            best = max(ratio.values())
            winner = min(uid for uid in users if ratio[uid] >= best * (1 - 1e-12))
            schedule[(b.id, tti)] = ((winner, b.usable_prbs),)
            for uid in users:
                served = rate[uid] if uid == winner else 0.0
                avg[uid] = (1 - alpha) * avg[uid] + alpha * served
    return Stage3Solution(resolutions, schedule, groups)


# ---------------------------------------------------------------------------
# The schedule as arrays


@dataclass(frozen=True)
class FlatSchedule:
    """A schedule's grants as arrays, in the schedule's own order.

    One row per (user, PRB count) entry: the schedule's keys in dict
    order, each key's entries in order. Users and cells are rows and
    columns of the link tables, -1 for ids the scenario does not know.
    """

    key: np.ndarray  # [entry] -> row of key_bs / key_tti
    user: np.ndarray  # [entry] link-table row of the user
    n: np.ndarray  # [entry] PRBs granted
    key_bs: np.ndarray  # [key] link-table column of the cell
    key_tti: np.ndarray  # [key] TTI


def flat_schedule(solution: Stage3Solution, sc: Scenario) -> FlatSchedule:
    """The schedule of `solution` as arrays, made once per solution.

    Raises OverflowError when a TTI or grant count does not fit 64 bits.
    """
    return _kept(solution, sc, "flat", lambda: _flatten(solution.schedule, sc))


def _flatten(sched, sc: Scenario) -> FlatSchedule:
    lt = link_tables(sc)
    sizes = np.fromiter(map(len, sched.values()), dtype=np.intp, count=len(sched))
    # user, n, user, n, ... over every entry
    parts = list(chain.from_iterable(chain.from_iterable(sched.values())))
    return FlatSchedule(
        key=np.repeat(np.arange(len(sched), dtype=np.int32), sizes),
        user=np.fromiter(
            map(lt.user_index.get, parts[0::2], repeat(-1)),
            dtype=np.int32, count=len(parts) // 2,
        ),
        n=np.fromiter(parts[1::2], dtype=np.int64, count=len(parts) // 2),
        key_bs=np.fromiter(
            map(lt.bs_index.get, map(itemgetter(0), sched), repeat(-1)),
            dtype=np.int32, count=len(sched),
        ),
        key_tti=np.fromiter(map(itemgetter(1), sched), dtype=np.int64, count=len(sched)),
    )


# ---------------------------------------------------------------------------
# Motion-to-photon latency


def mtp_latency(
    solution: Stage3Solution, sc: Scenario, stage1: Stage1Solution
) -> MtpReport:
    """Frame-by-frame delivery delay under a schedule.

    Frames arrive at the user's frame period and drain in order through
    the TTIs the schedule gives that user; a grant of n PRBs in a TTI
    moves n * SE * window seconds worth of bits, the same accounting the
    grant sizing used. A frame finishes at the end of the TTI that sends
    its last bit, and whatever the window cannot drain is charged the
    full window and flagged. Fixed pipeline parts (routing, render,
    propagation, frame processing) are read from the stage-1 latency
    columns, with the worst serving cell deciding, and queueing is left
    out since the schedule itself is the queue.

    All users drain in lockstep, one frame index at a time; each user's
    arithmetic runs in the same order as a drain of that user alone.
    Grants for users outside the scenario are ignored.
    """
    tti_s = sc.radio.tti_s
    window = sc.radio.window_s
    lt = link_tables(sc)
    users = [u for u in sc.users if u.id in stage1.admitted]
    if not users:
        return MtpReport({}, {}, frozenset())

    # bits each admitted user can send per TTI, summed in schedule order
    flat = flat_schedule(solution, sc)
    rank = np.full(len(sc.users) + 1, -1)  # the last slot answers user -1
    rank[[lt.user_index[u.id] for u in users]] = np.arange(len(users))
    mine = rank[flat.user]
    sel = mine >= 0
    mine, key = mine[sel], flat.key[sel]
    bs = flat.key_bs[key]
    if (bs < 0).any():  # a cell the scenario does not know
        raise KeyError(list(solution.schedule)[key[np.argmax(bs < 0)]][0])
    bits = flat.n[sel] * lt.se_bps[flat.user[sel], bs] * window
    tti = flat.key_tti[key]
    t0 = int(tti.min()) if tti.size else 0
    span = (int(tti.max()) if tti.size else 0) - t0 + 2
    slot = mine * span + (tti - t0)  # (user, TTI), sortable
    # stable: a user's grants in one TTI add up in schedule order
    order = np.argsort(slot, kind="stable")
    slot, bits = slot[order], bits[order]
    first = np.ones(len(slot), dtype=bool)
    first[1:] = slot[1:] != slot[:-1]
    left = np.zeros(int(first.sum()))
    np.add.at(left, np.cumsum(first) - 1, bits)  # one grant at a time, in order
    slot = slot[first]
    slot_tti = slot % span + t0
    ptr = np.searchsorted(slot, np.arange(len(users)) * span)  # each user's TTIs
    end = np.searchsorted(slot, np.arange(1, len(users) + 1) * span)

    # each user's frame stream and the fixed parts of its latency at its
    # worst serving cell
    table = latency_columns(sc, stage1)
    ids = [u.id for u in users]
    counts = [len(stage1.assoc[uid]) for uid in ids]
    if list(table.users) != ids or np.diff(table.first).tolist() != counts or 0 in counts:
        priced = set(table.pairs)
        for uid in ids:  # name the first user, or serving cell, the columns leave out
            if not stage1.assoc[uid]:
                raise ValueError(f"admitted user {uid} has no serving cell")
            for bid in stage1.assoc[uid]:
                if (uid, bid) not in priced:
                    raise KeyError(uid if uid not in table.users else bid)
    routing, render, propagation, _, processing, _ = table.parts
    fixed = np.maximum.reduceat(routing + render + propagation + processing, table.first[:-1])
    fps_of = [stage1.frame_rate[u.id] for u in users]
    scene = _scene_loads(solution, sc, stage1)
    if np.isnan(scene).any():  # an object has no resolution: raise as objects_load does
        first = users[int(np.argmax(np.isnan(scene)))]
        objects_load(sc, stage1, solution.object_resolution, first.id)
    n_frames = [max(1, math.ceil(fps * window - 1e-9)) for fps in fps_of]
    fps = np.array(fps_of, dtype=float)
    per_frame = scene / fps
    frames = np.array(n_frames)

    # every user's frames, back to back; a user with nothing to send
    # waits for the fixed parts only
    offset = list(accumulate(n_frames, initial=0))
    first_frame = np.array(offset[:-1])
    out = np.repeat(fixed, n_frames)
    truncated = np.zeros(len(users), dtype=bool)
    drains = np.flatnonzero(per_frame > 0)
    for i in range(max(n_frames)):
        act = drains[frames[drains] > i]
        born = i / fps[act]
        eligible = np.ceil(born / tti_s - 1e-9)
        # TTIs before the frame is born are passed over
        since = np.clip(eligible - t0, 0, span - 1).astype(np.int64)
        at = np.maximum(ptr[act], np.searchsorted(slot, act * span + since))
        stop = end[act]
        need = per_frame[act]
        done = np.full(len(act), window)
        busy = np.arange(len(act))  # positions in act still draining
        while busy.size:
            over = at[busy] >= stop[busy]
            if over.any():
                truncated[act[busy[over]]] = True
                busy = busy[~over]
            p = at[busy]
            spent = left[p] <= 1e-9
            passed = busy[spent]
            if passed.size:
                at[passed] += 1
                busy, p = busy[~spent], p[~spent]
            grab = np.minimum(need[busy], left[p])
            left[p] -= grab
            rest = need[busy] - grab
            need[busy] = rest
            fin = rest <= 1e-9
            done[busy[fin]] = (slot_tti[p[fin]] + 1) * tti_s
            busy = busy[~fin]
            at[busy] += 1
            if passed.size:
                busy = np.concatenate((passed, busy))
        ptr[act] = at
        out[first_frame[act] + i] = done - born + fixed[act]

    # each user's frames summed left to right (cumsum never reorders),
    # zero-padded to a common length
    grid = np.zeros((len(users), max(n_frames)))
    grid[np.repeat(np.arange(len(users)), n_frames),
         np.arange(len(out)) - np.repeat(first_frame, n_frames)] = out
    average = np.cumsum(grid, axis=1, out=grid)[:, -1] / frames
    out.flags.writeable = False
    return MtpReport(
        dict(zip([u.id for u in users], average.tolist())),
        {u.id: out[lo:lo + count] for u, lo, count in zip(users, offset, n_frames)},
        frozenset(u.id for u, t in zip(users, truncated) if t),
    )


def _scene_loads(solution: Stage3Solution, sc: Scenario, stage1: Stage1Solution) -> np.ndarray:
    """Each admitted user's objects_load, in catalog order, made once per solution.

    NaN for a user with an object that has no resolution. Read-only.
    """
    def build():
        loads = []
        for u in sc.users:
            if u.id in stage1.admitted:
                try:
                    loads.append(objects_load(sc, stage1, solution.object_resolution, u.id))
                except KeyError:
                    loads.append(math.nan)
        scene = np.array(loads, dtype=float)
        scene.flags.writeable = False
        return scene

    return _kept(solution, sc, "scene", build)


# ---------------------------------------------------------------------------
# Verification


def verify_stage3(
    solution: Stage3Solution, sc: Scenario, stage1: Stage1Solution
) -> list[Violation]:
    """Independent audit of a stage-3 solution against stage-1 commitments.

    The schedule is audited by array passes over its grants, each rule
    decided once. Only what they find is worded, from the schedule itself,
    in the order a grant-by-grant audit lists it: key by key, then
    (user, cell) pair by pair, then user by user. Its arithmetic is exact
    while TTIs, counts and group starts fit 32 bits, the bound
    doc_to_solutions holds documents to; past 64 bits flat_schedule
    raises OverflowError.
    """
    out: list[Violation] = []
    wanted = {
        (u.id, o.id)
        for u in sc.users
        if u.id in stage1.admitted
        for o in u.objects
    }
    for key in sorted(wanted - set(solution.object_resolution)):
        out.append(Violation("objects", f"{key[0]}/{key[1]}", "object has no resolution"))
    for key in sorted(set(solution.object_resolution) - wanted):
        out.append(
            Violation("objects", f"{key[0]}/{key[1]}", "resolution for unknown object")
        )
    for u in sc.users:
        if u.id not in stage1.admitted:
            continue
        hs = sc.headset_of(u)
        for o in u.objects:
            res = solution.object_resolution.get((u.id, o.id))
            if res is not None and res not in hs.resolutions:
                out.append(
                    Violation("objects", f"{u.id}/{o.id}", f"{res} not offered by {hs.id}")
                )
    return out + _schedule_audit(solution, sc, stage1)


def _schedule_audit(
    solution: Stage3Solution, sc: Scenario, stage1: Stage1Solution
) -> list[Violation]:
    """The schedule's part of verify_stage3."""
    out: list[Violation] = []
    flat = flat_schedule(solution, sc)
    lt = link_tables(sc)
    ttis = sc.radio.ttis_per_window
    nb = len(sc.base_stations)
    if (flat.key_bs < 0).any():  # a cell the scenario does not know
        raise KeyError(list(solution.schedule)[int(np.argmax(flat.key_bs < 0))][0])

    # key by key: every grant positive, every TTI inside the window, every
    # cell within its PRBs
    usable = np.array([b.usable_prbs for b in sc.base_stations], dtype=np.int64)
    used = np.bincount(flat.key, weights=flat.n, minlength=flat.key_bs.size)
    empty = flat.n <= 0
    outside = (flat.key_tti < 0) | (flat.key_tti >= ttis)
    over = used > usable[flat.key_bs]
    found = outside | over
    found[flat.key[empty]] = True
    ghost = flat.user < 0  # a user the scenario does not know
    if found.any() or ghost.any():
        items = list(solution.schedule.items())
        cuts = np.searchsorted(flat.key, np.arange(len(items) + 1)).tolist()
    for k in np.flatnonzero(found).tolist():
        (bid, tti), entries = items[k]
        for e in np.flatnonzero(empty[cuts[k]:cuts[k + 1]]).tolist():
            out.append(
                Violation("grants", f"{entries[e][0]}@{bid}", f"empty grant in TTI {tti}")
            )
        if outside[k]:
            out.append(Violation("grants", bid, f"TTI {tti} outside the window"))
        if over[k]:
            out.append(
                Violation(
                    "capacity", bid,
                    f"{int(used[k])} PRBs in TTI {tti}, usable {sc.bs(bid).usable_prbs}",
                )
            )

    # pair by pair: every (user, cell) pair gets exactly its stage-1
    # grants, others none; unknown users' grants add up past the last pair
    cells = len(sc.users) * nb
    pair = np.where(ghost, cells, flat.user.astype(np.int64) * nb + flat.key_bs[flat.key])
    given = np.bincount(pair, weights=flat.n, minlength=cells + 1)[:cells]
    granted = np.bincount(pair, minlength=cells + 1)[:cells] > 0
    codes, owes = [], []
    strange: list[tuple[str, str]] = []  # owed pairs the scenario does not know
    for (uid, bid), y in stage1.prbs.items():
        i, c = lt.user_index.get(uid), lt.bs_index.get(bid)
        if i is None or c is None:
            strange.append((uid, bid))
        else:
            codes.append(i * nb + c)
            owes.append(y)
    owed = np.zeros(cells)
    owed[codes] = owes
    listed = np.zeros(cells, dtype=bool)
    listed[codes] = True
    wrong = listed & (given != owed)
    unserved = granted & ~listed
    if wrong.any() or unserved.any() or strange or ghost.any():
        uids = [u.id for u in sc.users]
        bids = [b.id for b in sc.base_stations]
        # the grants of unknown users, and of the known pairs worded here
        got: dict[tuple[str, str], int] = {}
        for e in np.flatnonzero(ghost).tolist():
            k = int(flat.key[e])
            (bid, _), entries = items[k]
            uid, n = entries[e - cuts[k]]
            got[(uid, bid)] = got.get((uid, bid), 0) + n
        wrong_pairs = [(uids[c // nb], bids[c % nb]) for c in np.flatnonzero(wrong).tolist()]
        got.update(zip(wrong_pairs, map(int, given[wrong])))
        for uid, bid in sorted(wrong_pairs + strange):
            n, y = got.get((uid, bid), 0), stage1.prbs[(uid, bid)]
            if n != y:
                out.append(Violation("grants", f"{uid}@{bid}", f"scheduled {n} of {y} grants"))
        stray = [(uids[c // nb], bids[c % nb]) for c in np.flatnonzero(unserved).tolist()]
        for uid, bid in sorted(stray + [p for p in got if p not in stage1.prbs]):
            out.append(Violation("grants", f"{uid}@{bid}", "grants for unserved pair"))

    # user by user: a transmission in every TTI group on every serving cell
    users = [u for u in sc.users if u.id in stage1.admitted]
    sent = (flat.n > 0) & ~ghost
    tti = flat.key_tti[flat.key[sent]]
    # TTIs may lie outside the window and starts anywhere: bounds clipped
    # to just past the granted TTIs count the same transmissions below them
    lo, hi = (int(tti.min()) - 1, int(tti.max()) + 1) if tti.size else (0, 0)
    span = hi - lo + 1
    tx = np.sort(pair[sent] * span + (tti - lo))
    rows: list[tuple[str, str | None]] = []  # (user, serving cell), or (user, None)
    missing: dict[int, int | None] = {}  # row -> first group without a transmission
    by_starts: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}  # rows, pairs
    for u in users:
        starts = solution.tti_groups.get(u.id)
        if not starts:
            missing[len(rows)] = None
            rows.append((u.id, None))
            continue
        at, pairs = by_starts.setdefault(tuple(starts), ([], []))
        i = lt.user_index[u.id]
        for bid in stage1.assoc[u.id]:
            c = lt.bs_index.get(bid)  # an unknown cell has no transmissions
            at.append(len(rows))
            pairs.append(-1 if c is None else i * nb + c)
            rows.append((u.id, bid))
    for starts, (at, pairs) in by_starts.items():
        bounds = np.clip(np.array(starts + (ttis,), dtype=np.int64), lo, hi) - lo
        below = np.searchsorted(tx, np.array(pairs, dtype=np.int64)[:, None] * span + bounds)
        gap = below[:, 1:] <= below[:, :-1]
        hit = np.flatnonzero(gap.any(axis=1))
        missing.update(zip(np.array(at)[hit].tolist(), gap[hit].argmax(axis=1).tolist()))
    for r in sorted(missing):
        uid, bid = rows[r]
        if bid is None:
            out.append(Violation("groups", uid, "no TTI groups recorded"))
        else:
            out.append(
                Violation("groups", f"{uid}@{bid}", f"group {missing[r]} has no transmission")
            )

    # user by user: the scene fits the stage-1 budget and the grants carry it
    for u, scene in zip(users, _scene_loads(solution, sc, stage1).tolist()):
        if math.isnan(scene):
            continue  # reported as a missing object
        ceiling = traffic_load_bps(
            sc, 1.0, stage1.resolution[u.id], stage1.frame_rate[u.id]
        )
        if scene > ceiling * (1 + 1e-9):
            out.append(
                Violation(
                    "load", u.id, f"scene needs {scene:.6g} bit/s over the {ceiling:.6g} budget"
                )
            )
        i = lt.user_index[u.id]
        served = sum(
            float(given[i * nb + lt.bs_index[bid]]) * lt.se_of(u.id, bid)
            for bid in stage1.assoc[u.id]
        )
        if served < scene * (1 - 1e-9):
            out.append(
                Violation("throughput", u.id, f"served {served:.6g} bit/s of {scene:.6g}")
            )
    return out
