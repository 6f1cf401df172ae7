"""Game engine placement and transport routing over the stage-1 allocation.

Every admitted user needs one compute node to host their game engine and,
for each serving cell, downlink routes from that node. Placement trades
activation, per-resource and migration cost against the latency budget left
over from stage 1: moving a user's engine swaps only the routing term of
their latency columns, so a cheaper distant node is fine exactly when the
stage-1 slack covers the extra route latency. The solvers, verify_stage2,
total_cost and the oracle read stage 1 through one Stage2Inputs table per
timestep, kept on the stage-1 solution (stage2_inputs): each user's
DemandProfile, the resource vector that zips with ComputeNode.caps, and
each latency column less its routing share, to which a candidate adds its
own route latency. The columns are summed from the stage-1 solution's one
kept table of latency parts (stage1.latency_columns).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .radio import traffic_load_bps
from .scenario import ComputeNode, Scenario, pixels
from .stage1 import Stage1Solution, Violation, _kept, latency_columns

_REL_TOL = 1e-9
_PENALTY_WEIGHTS = (4.0, 4.0)  # baseline_unconstrained's (overflow, lateness) weights


class DemandProfile(NamedTuple):
    """Resource units one user's engine occupies at its compute node.

    The vector is in the order of ComputeNode.caps, so the two zip.
    """

    gpu: float  # rendered pixels/s
    cpu: float  # frames/s
    ram: float  # resident pixels
    net: float  # bits/s, the user's full stage-1 traffic load


def demand_profile(sc: Scenario, stage1: Stage1Solution, uid: str) -> DemandProfile:
    res = stage1.resolution[uid]
    fps = stage1.frame_rate[uid]
    px = pixels(res)
    return DemandProfile(
        gpu=float(px * fps),
        cpu=float(fps),
        ram=float(px),
        net=traffic_load_bps(sc, 1.0, res, fps),
    )


@dataclass(frozen=True)
class Stage2Solution:
    placement: dict[str, str]  # user -> hosting compute node
    selected_paths: dict[str, tuple[str, ...]]  # user -> path ids, sorted
    flow: dict[tuple[str, str], float]  # (user, path id) -> fraction
    active_cns: frozenset[str]
    unplaced: frozenset[str]


@dataclass(frozen=True)
class CostBreakdown:
    fixed: float
    variable: float
    migration: float

    @property
    def total(self) -> float:
        return self.fixed + self.variable + self.migration


def variable_cost(cn: ComputeNode, d: DemandProfile) -> float:
    c = cn.unit_costs
    return d.gpu * c.gpu + d.cpu * c.cpu + d.ram * c.ram + d.net * c.net


def migration_cost(sc: Scenario, prev_cn: str | None, new_cn: str) -> float:
    if prev_cn is None or prev_cn == new_cn:
        return 0.0
    return sc.radio.migration_unit_cost * sc.hop_distance(prev_cn, new_cn)


def total_cost(
    solution: Stage2Solution,
    sc: Scenario,
    stage1: Stage1Solution,
    prev_placement: dict[str, str] | None = None,
) -> CostBreakdown:
    prev = prev_placement or {}
    demand = stage2_inputs(sc, stage1).demand
    fixed = sum(sc.cn(cid).fixed_cost for cid in solution.active_cns)
    variable = 0.0
    migration = 0.0
    for uid, cid in solution.placement.items():
        variable += variable_cost(sc.cn(cid), demand[uid])
        migration += migration_cost(sc, prev.get(uid), cid)
    return CostBreakdown(fixed, variable, migration)


# ---------------------------------------------------------------------------
# Stage-2 inputs: stage-1 latency columns and demands


def stage1_columns(
    sc: Scenario, stage1: Stage1Solution
) -> dict[tuple[str, str], tuple[float, float]]:
    """Per serving cell: (six-part column latency, its routing share).

    Read off stage1.latency_columns. Swapping the engine to another node
    changes only the routing share, so callers can test a candidate as
    column - routing + new_route. KeyError names an admitted user the
    columns leave out, or a serving cell the scenario does not know.
    """
    table = latency_columns(sc, stage1)
    out = dict(zip(table.pairs, zip(sum(table.parts).tolist(), table.parts[0].tolist())))
    for uid in stage1.admitted:
        for bid in stage1.assoc[uid]:
            if (uid, bid) not in out:
                raise KeyError(uid if uid not in table.users else bid)
    return out


@dataclass(frozen=True)
class Stage2Inputs:
    """What stage 2 reads of one stage-1 solution.

    unrouted holds each stage1_columns latency less its routing share, the
    part no placement changes: a candidate route is tested by adding its
    latency.
    """

    unrouted: dict[tuple[str, str], float]  # (user, serving cell)
    demand: dict[str, DemandProfile]  # per admitted user


def stage2_inputs(sc: Scenario, stage1: Stage1Solution) -> Stage2Inputs:
    """The timestep's table, built on first use and kept on stage1."""
    return _kept(stage1, sc, "stage2_inputs", lambda: Stage2Inputs(
        {key: col - route for key, (col, route) in stage1_columns(sc, stage1).items()},
        {uid: demand_profile(sc, stage1, uid) for uid in stage1.admitted},
    ))


# ---------------------------------------------------------------------------
# Placement solver


class _Ledger:
    """Residual compute and link capacity during one solve."""

    def __init__(self, sc: Scenario):
        self.cn_used = {c.id: [0.0] * len(DemandProfile._fields) for c in sc.compute_nodes}
        self.link_used = {ln.id: 0.0 for ln in sc.links}

    def fits(self, cn: ComputeNode, d: DemandProfile) -> bool:
        used = self.cn_used[cn.id]
        return all(u + n <= cap * (1 + _REL_TOL) for u, n, cap in zip(used, d, cn.caps))

    def occupy(self, cn_id: str, d: DemandProfile):
        used = self.cn_used[cn_id]
        for i, n in enumerate(d):
            used[i] += n


def _split_flow(used: dict[str, float], paths, load_bps: float, eps: float):
    """Greedy fill in latency order; every taken fraction stays >= eps.

    Debits `used` as it goes, so paths sharing a link see the reduced
    headroom. Returns [(path, fraction), ...] summing to 1, or None when
    the remaining capacity cannot absorb the load under the minimum-
    fraction rule.
    """

    def headroom(path) -> float:
        if load_bps <= 0:
            return 1.0
        frac = min(
            (ln.capacity_bps - used[ln.id]) / load_bps for ln in path.links
        )
        return max(0.0, frac)

    taken = []
    remaining = 1.0
    for path in paths:
        if remaining <= 1e-12:
            break
        frac = min(remaining, headroom(path))
        if frac >= remaining - 1e-12:
            frac = remaining
        elif remaining - frac < eps:
            # trim so the leftover stays splittable on a later path
            frac = remaining - eps
        if frac < eps and frac < remaining:
            continue
        if frac <= 0:
            continue
        taken.append((path, frac))
        remaining -= frac
        for ln in path.links:
            used[ln.id] += frac * load_bps
    if remaining > 1e-12:
        return None
    return taken


def _route_user(
    sc: Scenario, stage1: Stage1Solution, inputs: Stage2Inputs,
    ledger: _Ledger, uid: str, cid: str, k: int, eps: float,
):
    """Pick flows for every serving cell of uid toward cid, or None.

    On success returns (plan, link_add) where plan maps path id to fraction;
    nothing is committed to the ledger.
    """
    plan: dict[str, float] = {}
    link_add: dict[str, float] = {}
    shadow_used = dict(ledger.link_used)
    for bid in stage1.assoc[uid]:
        paths = sc.paths(bid, cid)[:k]
        if not paths:
            return None
        load = stage1.share[(uid, bid)] * inputs.demand[uid].net
        taken = _split_flow(shadow_used, paths, load, eps)
        if taken is None:
            return None
        worst = max(p.latency_s for p, _ in taken)
        fps = stage1.frame_rate[uid]
        if inputs.unrouted[(uid, bid)] + worst > sc.radio.deadline_for(fps) + 1e-12:
            return None
        for path, frac in taken:
            plan[path.id] = plan.get(path.id, 0.0) + frac
            for ln in path.links:
                link_add[ln.id] = link_add.get(ln.id, 0.0) + frac * load
    return plan, link_add


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


# ---------------------------------------------------------------------------
# Verification


def verify_stage2(
    solution: Stage2Solution, sc: Scenario, stage1: Stage1Solution
) -> list[Violation]:
    """All placement, capacity, routing, link and latency constraints.

    Users the solver reported unplaced are exempt; everything the solution
    claims to have placed is checked in full.
    """
    out: list[Violation] = []
    inputs = stage2_inputs(sc, stage1)
    cn_ids = {c.id for c in sc.compute_nodes}
    placed = set(solution.placement)

    for uid in placed:
        if uid not in stage1.admitted:
            out.append(Violation("placement", uid, "placed but not admitted in stage 1"))
        if solution.placement[uid] not in cn_ids:
            out.append(Violation("placement", uid, f"unknown node {solution.placement[uid]}"))
    for uid in stage1.admitted:
        if uid not in placed and uid not in solution.unplaced:
            out.append(Violation("placement", uid, "admitted user neither placed nor reported"))

    # compute capacity
    totals = {c.id: [0.0] * len(DemandProfile._fields) for c in sc.compute_nodes}
    for uid, cid in solution.placement.items():
        if cid not in cn_ids or uid not in stage1.admitted:
            continue
        for i, n in enumerate(inputs.demand[uid]):
            totals[cid][i] += n
    for c in sc.compute_nodes:
        for got, cap, name in zip(totals[c.id], c.caps, DemandProfile._fields):
            if got > cap * (1 + _REL_TOL):
                out.append(Violation("capacity", c.id, f"{name} load {got:.6g} over cap {cap:.6g}"))

    if any(cid not in cn_ids for cid in solution.placement.values()):
        return out

    # routing structure, conservation and flow floors
    eps = sc.radio.epsilon
    link_load: dict[str, float] = {ln.id: 0.0 for ln in sc.links}
    by_user: dict[str, dict[str, float]] = {}
    for (uid, pid), frac in solution.flow.items():
        by_user.setdefault(uid, {})[pid] = frac
    for uid, cid in solution.placement.items():
        if uid not in stage1.admitted:
            continue
        chosen = by_user.get(uid, {})
        listed = set(solution.selected_paths.get(uid, ()))
        if set(chosen) != listed:
            out.append(Violation("routing", uid, "flow keys disagree with selected paths"))
        fps = stage1.frame_rate[uid]
        deadline = sc.radio.deadline_for(fps) + 1e-12
        for bid in stage1.assoc[uid]:
            paths = {p.id: p for p in sc.paths(bid, cid)}
            mine = {pid: f for pid, f in chosen.items() if pid in paths}
            if not mine:
                out.append(Violation("routing", uid, f"no path selected toward {bid}"))
                continue
            total = sum(mine.values())
            if abs(total - 1.0) > 1e-9:
                out.append(Violation("routing", uid, f"flow toward {bid} sums to {total:.9f}"))
            for pid, frac in mine.items():
                if frac < eps - 1e-9:
                    out.append(Violation("routing", uid, f"flow {frac:.4f} on {pid} under minimum"))
            load = stage1.share[(uid, bid)] * inputs.demand[uid].net
            for pid, frac in mine.items():
                for ln in paths[pid].links:
                    link_load[ln.id] += frac * load
            worst = max(paths[pid].latency_s for pid in mine)
            if inputs.unrouted[(uid, bid)] + worst > deadline:
                out.append(
                    Violation("deadline", uid, f"stage-2 latency via {bid} exceeds budget")
                )
        stray = set(chosen) - {
            p.id for bid in stage1.assoc[uid] for p in sc.paths(bid, cid)
        }
        if stray:
            out.append(Violation("routing", uid, f"flow on unknown paths {sorted(stray)}"))

    for ln in sc.links:
        if link_load[ln.id] > ln.capacity_bps * (1 + _REL_TOL):
            out.append(
                Violation(
                    "link",
                    ln.id,
                    f"flow {link_load[ln.id]:.6g} over capacity {ln.capacity_bps:.6g}",
                )
            )
    return out
