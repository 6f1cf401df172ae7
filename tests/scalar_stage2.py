"""Stage-2 placement priced from scratch, one (user, node, serving cell) at a time.

This is the reference the table-driven solvers in `vrcgsim.stage2` are
tested against: `gepar` builds each user's preference list with its own
loop over every compute node and serving cell, pricing each viable node
with `variable_cost` and `migration_cost`, and `baseline_unconstrained`
prices money, overflow and lateness for every (user, node) in the loop
that picks the node. Flow splitting, routing and the ledger are the
library's own (`_Ledger`, `_route_user`).
"""
from vrcgsim.scenario import Scenario
from vrcgsim.stage1 import Stage1Solution
from vrcgsim.stage2 import (
    _PENALTY_WEIGHTS,
    Stage2Solution,
    _Ledger,
    _route_user,
    migration_cost,
    stage2_inputs,
    variable_cost,
)


def gepar(
    sc: Scenario,
    stage1: Stage1Solution,
    prev_placement: dict[str, str] | None = None,
    k_paths: int | None = None,
) -> Stage2Solution:
    """Greedy placement; pinned users go first, cheapest viable node wins.

    Candidate nodes are ranked by the cost of taking this user (activation
    if the node is off, per-resource price, migration from the previous
    placement), keeping only nodes whose fastest routes respect the user's
    leftover latency budget. Users with the fewest viable nodes place
    first, heaviest renderers breaking ties, so a user pinned to one node
    activates it before flexible users settle elsewhere. An inactive
    candidate yields to an already active node when the active node's
    marginal price undercuts activating fresh. Flows spread across up to k
    routes per serving cell; a node is committed only when every cell can
    be routed inside capacity and deadline.
    """
    prev = prev_placement or {}
    k = k_paths if k_paths is not None else sc.radio.k_paths
    eps = sc.radio.epsilon if k > 1 else 1.0
    inputs = stage2_inputs(sc, stage1)
    ledger = _Ledger(sc)

    placement: dict[str, str] = {}
    selected: dict[str, tuple[str, ...]] = {}
    flow: dict[tuple[str, str], float] = {}
    active: set[str] = set()
    unplaced: set[str] = set()

    # per user: the viable nodes by (price when off, worst fastest route,
    # id), and each one's price once it is on
    prefs_of: dict[str, list[tuple[float, float, str]]] = {}
    price_of: dict[str, dict[str, float]] = {}
    for uid in stage1.admitted:
        deadline = sc.radio.deadline_for(stage1.frame_rate[uid]) + 1e-12
        prefs_of[uid] = prefs = []
        price_of[uid] = price = {}
        for c in sc.compute_nodes:
            worst_best = 0.0
            for bid in stage1.assoc[uid]:
                paths = sc.paths(bid, c.id)[:k]
                if not paths or inputs.unrouted[(uid, bid)] + paths[0].latency_s > deadline:
                    break
                worst_best = max(worst_best, paths[0].latency_s)
            else:
                price[c.id] = variable_cost(c, inputs.demand[uid]) + migration_cost(
                    sc, prev.get(uid), c.id
                )
                prefs.append((price[c.id] + c.fixed_cost, worst_best, c.id))
        prefs.sort()

    # users pinned to few nodes place first so flexible ones gather around
    # them; within a tier the heaviest renderers go first
    order = sorted(
        stage1.admitted,
        key=lambda uid: (len(prefs_of[uid]), -inputs.demand[uid].gpu, uid),
    )

    for uid in order:
        price = price_of[uid]
        d = inputs.demand[uid]
        queue = [cid for _, _, cid in prefs_of[uid]]
        tested: set[str] = set()
        while queue:
            cid = queue.pop(0)
            if cid not in active:
                # an active node whose marginal price undercuts a fresh
                # activation takes over; the popped candidate stays next
                fresh = price[cid] + sc.cn(cid).fixed_cost
                swaps = [
                    (price[n], n)
                    for n in active
                    if n not in tested and n in price and fresh >= price[n]
                ]
                if swaps:
                    queue.insert(0, cid)
                    cid = min(swaps)[1]
            if cid in tested:
                continue
            tested.add(cid)
            if not ledger.fits(sc.cn(cid), d):
                continue
            routed = _route_user(sc, stage1, inputs, ledger, uid, cid, k, eps)
            if routed is None:
                continue
            plan, link_add = routed
            for pid, frac in plan.items():
                flow[(uid, pid)] = frac
            selected[uid] = tuple(sorted(plan))
            placement[uid] = cid
            ledger.occupy(cid, d)
            for lid, add in link_add.items():
                ledger.link_used[lid] += add
            active.add(cid)
            break
        else:
            unplaced.add(uid)

    return Stage2Solution(
        placement=placement,
        selected_paths=selected,
        flow=flow,
        active_cns=frozenset(active),
        unplaced=frozenset(unplaced),
    )


def baseline_single_path(
    sc: Scenario,
    stage1: Stage1Solution,
    prev_placement: dict[str, str] | None = None,
) -> Stage2Solution:
    """Placement restricted to one route per serving cell, no splitting."""
    return gepar(sc, stage1, prev_placement, k_paths=1)


def baseline_unconstrained(
    sc: Scenario,
    stage1: Stage1Solution,
    prev_placement: dict[str, str] | None = None,
) -> Stage2Solution:
    """Penalty-priced placement: overflow and lateness cost, never forbid.

    Each user takes the node minimizing money cost plus violation
    magnitudes (relative resource and link overflow, relative deadline
    excess) weighted by _PENALTY_WEIGHTS, routing the whole flow over the
    fastest route per cell. The output may fail verification; that is the
    point of the comparison.
    Placement is re-optimized from scratch each call: relocation charges
    show up on the bill afterwards but never steer the argmin, which is
    what makes this baseline expensive to run over a mobility trace.
    """
    w_cap, w_lat = _PENALTY_WEIGHTS
    inputs = stage2_inputs(sc, stage1)
    ledger = _Ledger(sc)
    order = sorted(stage1.admitted, key=lambda uid: (-inputs.demand[uid].gpu, uid))

    placement: dict[str, str] = {}
    selected: dict[str, tuple[str, ...]] = {}
    flow: dict[tuple[str, str], float] = {}
    active: set[str] = set()
    unplaced: set[str] = set()

    for uid in order:
        serving = stage1.assoc[uid]
        d = inputs.demand[uid]
        fps = stage1.frame_rate[uid]
        deadline = sc.radio.deadline_for(fps)
        best: tuple[float, str] | None = None
        for c in sc.compute_nodes:
            # c's fastest route to each serving cell
            firsts = [ps[0] for bid in serving if (ps := sc.paths(bid, c.id))]
            if len(firsts) < len(serving):
                continue
            money = variable_cost(c, d)
            if c.id not in active:
                money += c.fixed_cost
            overflow = 0.0
            for u_r, n_r, cap in zip(ledger.cn_used[c.id], d, c.caps):
                if cap > 0:
                    overflow += max(0.0, (u_r + n_r - cap) / cap)
            excess = 0.0
            for bid, first in zip(serving, firsts):
                load = stage1.share[(uid, bid)] * d.net
                for ln in first.links:
                    room = ln.capacity_bps
                    if room > 0:
                        overflow += max(
                            0.0, (ledger.link_used[ln.id] + load - room) / room
                        )
                late = inputs.unrouted[(uid, bid)] + first.latency_s - deadline
                excess += max(0.0, late / deadline)
            score = money + w_cap * overflow + w_lat * excess
            if best is None or (score, c.id) < best:
                best = (score, c.id)
        if best is None:
            unplaced.add(uid)
            continue
        cid = best[1]
        placement[uid] = cid
        active.add(cid)
        ledger.occupy(cid, d)
        pids = []
        for bid in serving:
            first = sc.paths(bid, cid)[0]
            load = stage1.share[(uid, bid)] * d.net
            for ln in first.links:
                ledger.link_used[ln.id] += load
            pids.append(first.id)
            flow[(uid, first.id)] = 1.0
        selected[uid] = tuple(sorted(pids))
    return Stage2Solution(
        placement=placement,
        selected_paths=selected,
        flow=flow,
        active_cns=frozenset(active),
        unplaced=frozenset(unplaced),
    )
