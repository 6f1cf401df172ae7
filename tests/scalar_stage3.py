"""Stage-3 schedule, latency and audit, one grant at a time.

This is the reference the array code in `vrcgsim.stage3` is tested
against: the nearest-free grant layout built from scratch on every call,
the frame drain user by user and TTI by TTI, and the schedule audit as
plain loops over every grant.
"""
import bisect
import math

from vrcgsim.radio import fixed_latency_s, link_tables, traffic_load_bps
from vrcgsim.scenario import Scenario
from vrcgsim.stage1 import Stage1Solution, Violation
from vrcgsim.stage3 import (
    MtpReport,
    ResMap,
    Stage3Solution,
    group_starts,
    objects_load,
    stage1_object_resolutions,
)


def _nearest_free(avail: list[int], target: int, lo: int, hi: int) -> int | None:
    """Closest TTI to target among the free ones in [lo, hi), ties earlier."""
    left = bisect.bisect_left(avail, lo)
    right = bisect.bisect_left(avail, hi)
    if left >= right:
        return None
    pos = bisect.bisect_left(avail, target, left, right)
    best = None
    if pos < right:
        best = avail[pos]
    if pos > left:
        cand = avail[pos - 1]
        if best is None or target - cand <= best - target:
            best = cand
    return best


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
    """
    if resolutions is None:
        resolutions = stage1_object_resolutions(sc, stage1)
    ttis = sc.radio.ttis_per_window
    groups: dict[str, tuple[int, ...]] = {}
    for uid in stage1.admitted:
        t = sc.radio.tti_groups_for(stage1.frame_rate[uid])
        groups[uid] = group_starts(ttis, t)

    schedule: dict[tuple[str, int], tuple[tuple[str, int], ...]] = {}
    for b in sc.base_stations:
        owed = [
            (u.id, stage1.prbs[(u.id, b.id)])
            for u in sc.users
            if u.id in stage1.admitted and b.id in stage1.assoc[u.id]
        ]
        if not owed:
            continue
        total = sum(y for _, y in owed)
        if total > b.usable_prbs * ttis:
            raise ValueError(
                f"{total} grants exceed the {b.usable_prbs * ttis} "
                f"schedulable on {b.id}"
            )
        free = [b.usable_prbs] * ttis
        avail = list(range(ttis))
        counts: dict[tuple[str, int], int] = {}

        def take(uid: str, tti: int):
            free[tti] -= 1
            counts[(uid, tti)] = counts.get((uid, tti), 0) + 1
            if free[tti] == 0:
                avail.pop(bisect.bisect_left(avail, tti))

        for uid, y in owed:
            starts = groups[uid]
            bounds = list(starts) + [ttis]
            for j in range(min(len(starts), y)):
                lo, hi = bounds[j], bounds[j + 1]
                target = min(max((j + 1) * ttis // (len(starts) + 1), lo), hi - 1)
                tti = _nearest_free(avail, target, lo, hi)
                if tti is None:
                    raise ValueError(
                        f"no spare TTI left in group {j} on {b.id}"
                    )
                take(uid, tti)
        for uid, y in owed:
            extra = y - len(groups[uid])
            for i in range(1, max(0, extra) + 1):
                target = i * ttis // (extra + 1)
                tti = _nearest_free(avail, min(target, ttis - 1), 0, ttis)
                if tti is None:
                    raise ValueError(f"schedule of {b.id} is full")
                take(uid, tti)

        per_tti: dict[int, list[tuple[str, int]]] = {}
        for (uid, tti), n in counts.items():
            per_tti.setdefault(tti, []).append((uid, n))
        for tti, entries in per_tti.items():
            schedule[(b.id, tti)] = tuple(sorted(entries))
    return Stage3Solution(resolutions, schedule, groups)


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
    propagation, frame processing) are priced at the stage-1 selections
    with the worst serving cell deciding, and queueing is left out since
    the schedule itself is the queue.
    """
    ttis = sc.radio.ttis_per_window
    tti_s = sc.radio.tti_s
    window = sc.radio.window_s
    lt = link_tables(sc)

    capacity: dict[str, dict[int, float]] = {uid: {} for uid in stage1.admitted}
    for (bid, tti), entries in solution.schedule.items():
        for uid, n in entries:
            if uid not in capacity:
                continue
            bits = n * lt.se_of(uid, bid) * window
            capacity[uid][tti] = capacity[uid].get(tti, 0.0) + bits

    average: dict[str, float] = {}
    samples: dict[str, tuple[float, ...]] = {}
    truncated = set()
    for u in sc.users:
        if u.id not in stage1.admitted:
            continue
        fps = stage1.frame_rate[u.id]
        res = stage1.resolution[u.id]
        fixed = max(
            fixed_latency_s(sc, u, sc.bs(bid), res, fps) for bid in stage1.assoc[u.id]
        )
        per_frame = objects_load(sc, stage1, solution.object_resolution, u.id) / fps
        caps = [[tti, bits] for tti, bits in sorted(capacity[u.id].items())]
        n_frames = max(1, math.ceil(fps * window - 1e-9))
        out = []
        at = 0
        for i in range(n_frames):
            born = i / fps
            need = per_frame
            if need <= 0:
                out.append(fixed)
                continue
            eligible = math.ceil(born / tti_s - 1e-9)
            done = None
            while at < len(caps):
                tti, left = caps[at]
                if tti < eligible or left <= 1e-9:
                    at += 1
                    continue
                grab = min(need, left)
                caps[at][1] -= grab
                need -= grab
                if need <= 1e-9:
                    done = (tti + 1) * tti_s
                    break
                at += 1
            if done is None:
                done = window
                truncated.add(u.id)
            out.append(done - born + fixed)
        samples[u.id] = tuple(out)
        average[u.id] = sum(out) / len(out)
    return MtpReport(average, samples, frozenset(truncated))


def verify_stage3(
    solution: Stage3Solution, sc: Scenario, stage1: Stage1Solution
) -> list[Violation]:
    """Independent audit of a stage-3 solution against stage-1 commitments."""
    out: list[Violation] = []
    lt = link_tables(sc)
    ttis = sc.radio.ttis_per_window

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

    given: dict[tuple[str, str], int] = {}
    tx_ttis: dict[tuple[str, str], set[int]] = {}
    for (bid, tti), entries in solution.schedule.items():
        used = 0
        for uid, n in entries:
            if n <= 0:
                out.append(
                    Violation("grants", f"{uid}@{bid}", f"empty grant in TTI {tti}")
                )
            else:
                tx_ttis.setdefault((uid, bid), set()).add(tti)
            used += n
            given[(uid, bid)] = given.get((uid, bid), 0) + n
        if not 0 <= tti < ttis:
            out.append(Violation("grants", bid, f"TTI {tti} outside the window"))
        if used > sc.bs(bid).usable_prbs:
            out.append(
                Violation(
                    "capacity", bid, f"{used} PRBs in TTI {tti}, usable {sc.bs(bid).usable_prbs}"
                )
            )

    for (uid, bid), y in sorted(stage1.prbs.items()):
        got = given.get((uid, bid), 0)
        if got != y:
            out.append(
                Violation("grants", f"{uid}@{bid}", f"scheduled {got} of {y} grants")
            )
    for (uid, bid) in sorted(set(given) - set(stage1.prbs)):
        out.append(Violation("grants", f"{uid}@{bid}", "grants for unserved pair"))

    for u in sc.users:
        if u.id not in stage1.admitted:
            continue
        starts = solution.tti_groups.get(u.id)
        if not starts:
            out.append(Violation("groups", u.id, "no TTI groups recorded"))
            continue
        bounds = list(starts) + [ttis]
        for bid in stage1.assoc[u.id]:
            mine = sorted(tx_ttis.get((u.id, bid), ()))
            for j in range(len(starts)):
                # the first transmission at or after the group's start
                k = bisect.bisect_left(mine, bounds[j])
                if k == len(mine) or mine[k] >= bounds[j + 1]:
                    out.append(
                        Violation(
                            "groups", f"{u.id}@{bid}", f"group {j} has no transmission"
                        )
                    )
                    break

    for u in sc.users:
        if u.id not in stage1.admitted:
            continue
        try:
            scene = objects_load(sc, stage1, solution.object_resolution, u.id)
        except KeyError:
            continue  # already reported as a missing object
        ceiling = traffic_load_bps(
            sc, 1.0, stage1.resolution[u.id], stage1.frame_rate[u.id]
        )
        if scene > ceiling * (1 + 1e-9):
            out.append(
                Violation(
                    "load", u.id, f"scene needs {scene:.6g} bit/s over the {ceiling:.6g} budget"
                )
            )
        served = sum(
            given.get((u.id, bid), 0) * lt.se_of(u.id, bid)
            for bid in stage1.assoc[u.id]
        )
        if served < scene * (1 - 1e-9):
            out.append(
                Violation(
                    "throughput", u.id, f"served {served:.6g} bit/s of {scene:.6g}"
                )
            )
    return out
