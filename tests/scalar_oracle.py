"""Stage-2 oracle by outright enumeration, kept as the model's reference.

This is the reference `vrcgsim.oracle.exact_stage2` is tested against.
It enumerates every placement and, for each, every per-cell route subset,
so only a brute force shows that the mixed-integer model misses no
cheaper placement. It counts its candidates first and refuses past the
oracle's BUDGET, which keeps it to a few users. Its flows are an even
split with one greedy rebalancing pass, not exact, but placement cost
never depends on flow fractions.
"""
import itertools

from vrcgsim.oracle import _within_budget
from vrcgsim.scenario import Scenario
from vrcgsim.stage1 import Stage1Solution
from vrcgsim.stage2 import (
    DemandProfile,
    Stage2Solution,
    stage1_columns,
    stage2_inputs,
    variable_cost,
    verify_stage2,
)


def exact_stage2(sc: Scenario, stage1: Stage1Solution) -> tuple[Stage2Solution, float]:
    """Minimum-cost placement with routed flows for every admitted user.

    Placements and per-cell path subsets are enumerated outright. Flows
    start as an even split over the chosen subset; when that overflows a
    link, one rebalancing pass re-spreads each cell's flow greedily (floor
    epsilon per selected path, headroom first in latency order). This is
    an approximation on the flow side only; placement cost is exact since
    cost never depends on flow fractions.

    Raises ValueError when no placement can be routed.
    """
    users = [u.id for u in sc.users if u.id in stage1.admitted]
    pairs = [(uid, bid) for uid in users for bid in stage1.assoc[uid]]
    if not users:
        empty = Stage2Solution({}, {}, {}, frozenset(), frozenset())
        return empty, 0.0
    subsets = 2**sc.radio.k_paths - 1  # nonempty subsets of one cell's routes
    _within_budget(len(sc.compute_nodes) ** len(users) * subsets ** len(pairs))

    columns = stage1_columns(sc, stage1)
    demands = stage2_inputs(sc, stage1).demand
    eps = sc.radio.epsilon
    cn_ids = [c.id for c in sc.compute_nodes]

    def placement_cost(cids: tuple[str, ...]) -> float:
        fixed = sum(sc.cn(cid).fixed_cost for cid in sorted(set(cids)))
        out = fixed
        for uid, cid in zip(users, cids):
            out += variable_cost(sc.cn(cid), demands[uid])
        return out

    def fits_compute(cids: tuple[str, ...]) -> bool:
        used = {cid: [0.0] * len(DemandProfile._fields) for cid in cn_ids}
        for uid, cid in zip(users, cids):
            for i, n in enumerate(demands[uid]):
                used[cid][i] += n
        for c in sc.compute_nodes:
            if any(u > cap * (1 + 1e-9) for u, cap in zip(used[c.id], c.caps)):
                return False
        return True

    def try_flows(cids: tuple[str, ...]):
        """First path-subset combination that routes, or None."""
        cid_of = dict(zip(users, cids))
        choices = []
        for uid, bid in pairs:
            paths = sc.paths(bid, cid_of[uid])
            if not paths:
                return None
            col, route = columns[(uid, bid)]
            deadline = sc.radio.deadline_for(stage1.frame_rate[uid]) + 1e-12
            subs = []
            for r in range(1, len(paths) + 1):
                for combo in itertools.combinations(range(len(paths)), r):
                    if max(paths[i].latency_s for i in combo) > deadline - col + route:
                        continue
                    if len(combo) * eps > 1.0 + 1e-12:
                        continue
                    subs.append(tuple(paths[i] for i in combo))
            if not subs:
                return None
            choices.append(((uid, bid), subs))

        def link_ok(load: dict[str, float]) -> bool:
            return all(
                load[ln.id] <= ln.capacity_bps * (1 + 1e-9) for ln in sc.links
            )

        for picks in itertools.product(*(subs for _, subs in choices)):
            # even split everywhere first
            load = {ln.id: 0.0 for ln in sc.links}
            flows = {}
            for ((uid, bid), _), chosen in zip(choices, picks):
                carried = stage1.share[(uid, bid)] * demands[uid].net
                q = 1.0 / len(chosen)
                for p in chosen:
                    flows[(uid, bid, p)] = q
                    for ln in p.links:
                        load[ln.id] += q * carried
            if link_ok(load):
                return flows
            # one rebalancing pass, cells in deterministic order
            for ((uid, bid), _), chosen in zip(choices, picks):
                carried = stage1.share[(uid, bid)] * demands[uid].net
                for p in chosen:
                    q = flows.pop((uid, bid, p))
                    for ln in p.links:
                        load[ln.id] -= q * carried
                remaining = 1.0 - eps * len(chosen)
                for p in chosen:
                    flows[(uid, bid, p)] = eps
                    for ln in p.links:
                        load[ln.id] += eps * carried
                for p in sorted(chosen, key=lambda p: (p.latency_s, p.id)):
                    if remaining <= 1e-12 or carried <= 0:
                        break
                    room = min(
                        (ln.capacity_bps - load[ln.id]) / carried for ln in p.links
                    )
                    extra = min(remaining, max(0.0, room))
                    flows[(uid, bid, p)] += extra
                    remaining -= extra
                    for ln in p.links:
                        load[ln.id] += extra * carried
                if remaining > 1e-12:
                    # dump the leftover on the fastest path anyway; the
                    # final capacity check below rejects real overflows
                    p = chosen[0]
                    flows[(uid, bid, p)] += remaining
                    for ln in p.links:
                        load[ln.id] += remaining * carried
            if link_ok(load):
                return flows
        return None

    best: tuple[float, tuple[int, ...], dict] | None = None
    for combo in itertools.product(range(len(cn_ids)), repeat=len(users)):
        cids = tuple(cn_ids[i] for i in combo)
        cost = placement_cost(cids)
        if best is not None and cost >= best[0] - 1e-12:
            continue
        if not fits_compute(cids):
            continue
        flows = try_flows(cids)
        if flows is None:
            continue
        best = (cost, combo, flows)

    if best is None:
        raise ValueError("no feasible placement for this stage-1 solution")
    cost, combo, flows = best
    placement = {uid: cn_ids[i] for uid, i in zip(users, combo)}
    flow: dict[tuple[str, str], float] = {}
    selected: dict[str, list[str]] = {}
    for (uid, bid, p), q in flows.items():
        flow[(uid, p.id)] = q
        selected.setdefault(uid, []).append(p.id)
    solution = Stage2Solution(
        placement=placement,
        selected_paths={uid: tuple(sorted(ps)) for uid, ps in selected.items()},
        flow=flow,
        active_cns=frozenset(placement.values()),
        unplaced=frozenset(),
    )
    problems = verify_stage2(solution, sc, stage1)
    assert not problems, f"oracle stage-2 solution fails verification: {problems[:2]}"
    return solution, cost
