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

The solvers price those inputs once per timestep too, as arrays
(stage2_table, kept beside them): per (cell, node) the fastest route's
latency, and per (user, node) whether every serving cell's fastest route
meets the deadline, the slowest of them, the variable cost and the
unconstrained baseline's lateness. gepar and single_path read the same
table, since eligibility does not depend on k, and add only their
migration from the previous placement; unconstrained adds only the
overflow against its own ledger. verify_stage2 reads the inputs, never
the table's verdicts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    fixed = sum(sc.cn(cid).fixed_cost for cid in sorted(solution.active_cns))
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
    for uid in sorted(stage1.admitted):
        for bid in stage1.assoc[uid]:
            if (uid, bid) not in out:
                raise KeyError(uid if uid not in table.users else bid)
    return out


@dataclass(frozen=True)
class Stage2Inputs:
    """What stage 2 reads of one stage-1 solution.

    unrouted holds each stage1_columns latency less its routing share, the
    part no placement changes: a candidate route is tested by adding its
    latency. Built once per timestep; the solvers read it priced against
    every node through stage2_table, and _route_user, verify_stage2,
    total_cost and the oracle read it as it is.
    """

    unrouted: dict[tuple[str, str], float]  # (user, serving cell)
    demand: dict[str, DemandProfile]  # per admitted user


def stage2_inputs(sc: Scenario, stage1: Stage1Solution) -> Stage2Inputs:
    """The timestep's table, built on first use and kept on stage1."""
    return _kept(stage1, sc, "stage2_inputs", lambda: Stage2Inputs(
        {key: col - route for key, (col, route) in stage1_columns(sc, stage1).items()},
        {uid: demand_profile(sc, stage1, uid) for uid in stage1.admitted},
    ))


@dataclass(frozen=True)
class Stage2Table:
    """Stage2Inputs priced once per (admitted user, compute node).

    users maps each admitted user, in id order, to its row; columns are
    the scenario's compute nodes in order. fastest is each (cell, node)
    pair's fastest-route latency, inf where no route joins them. A node is
    routed for a user when each serving cell has a route from it, and ok
    when moreover unrouted + fastest meets the user's deadline at every
    serving cell: gepar's eligibility for any k >= 1, since a node's
    fastest route is the first of its k. worst is the slowest of those
    fastest routes (0 for a user without serving cells), variable is
    variable_cost, and lateness is baseline_unconstrained's relative
    deadline excess summed over the serving cells in assoc order. What
    depends on the call is added by the caller: gepar's migration from its
    previous placement, unconstrained's overflow against its own ledger.
    The arrays are read-only.
    """

    users: dict[str, int]
    fastest: np.ndarray  # [cell, node], s
    routed: np.ndarray  # [user, node]
    ok: np.ndarray  # [user, node]
    worst: np.ndarray  # [user, node], s
    variable: np.ndarray  # [user, node]
    lateness: np.ndarray  # [user, node]


def _build_table(sc: Scenario, stage1: Stage1Solution) -> Stage2Table:
    inputs = stage2_inputs(sc, stage1)
    nodes = sc.compute_nodes
    col = {b.id: j for j, b in enumerate(sc.base_stations)}
    fastest = np.array([[ps[0].latency_s if (ps := sc.paths(b.id, c.id)) else math.inf
                         for c in nodes] for b in sc.base_stations],
                       dtype=float).reshape(len(col), len(nodes))
    users = {uid: i for i, uid in enumerate(sorted(stage1.admitted))}
    # serving cell s of each user as one [slot, user] table, padded past
    # the user's last cell; a padded slot changes nothing below
    width = max((len(stage1.assoc[uid]) for uid in users), default=0)
    cells = np.zeros((width, len(users)), dtype=np.intp)
    unrouted = np.zeros((width, len(users)))
    live = np.zeros((width, len(users)), dtype=bool)
    for i, uid in enumerate(users):
        for s, bid in enumerate(stage1.assoc[uid]):
            cells[s, i], unrouted[s, i], live[s, i] = col[bid], inputs.unrouted[(uid, bid)], True
    budget = np.array([sc.radio.deadline_for(stage1.frame_rate[uid]) for uid in users],
                      dtype=float)[:, None]
    demand = np.array([inputs.demand[uid] for uid in users], dtype=float).reshape(-1, 4)
    costs = np.array([(u.gpu, u.cpu, u.ram, u.net) for u in (c.unit_costs for c in nodes)],
                     dtype=float).reshape(-1, 4)
    shape = (len(users), len(nodes))
    routed, ok = np.ones(shape, dtype=bool), np.ones(shape, dtype=bool)
    worst, lateness = np.zeros(shape), np.zeros(shape)
    with np.errstate(all="ignore"):  # float arithmetic as in plain Python
        # left to right, as variable_cost adds the four resources
        variable = (demand[:, :1] * costs[:, 0] + demand[:, 1:2] * costs[:, 1]
                    + demand[:, 2:3] * costs[:, 2] + demand[:, 3:] * costs[:, 3])
        for s in range(width):
            here, fast = live[s][:, None], fastest[cells[s]]
            held = fast < math.inf  # a route's latency is finite, as its links' are
            routed &= held | ~here
            ok &= ~here | (held & ~(unrouted[s][:, None] + fast > budget + 1e-12))
            worst = np.where(here, np.maximum(worst, fast), worst)
            late = (unrouted[s][:, None] + fast - budget) / budget
            lateness += np.where(here & (late > 0.0), late, 0.0)
    for array in (fastest, routed, ok, worst, variable, lateness):
        array.flags.writeable = False
    return Stage2Table(users, fastest, routed, ok, worst, variable, lateness)


def stage2_table(sc: Scenario, stage1: Stage1Solution) -> Stage2Table:
    """The timestep's priced table, built on first use and kept on stage1."""
    return _kept(stage1, sc, "stage2_table", lambda: _build_table(sc, stage1))


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


def _migration(
    sc: Scenario, stage1: Stage1Solution, table: Stage2Table, prev: dict[str, str]
) -> np.ndarray:
    """migration_cost from prev to each node a user may take, [user, node].

    Priced where the table's ok holds and the node is not the user's
    previous one, and 0 elsewhere, one hop row per previous node. A move
    that no crosshaul route prices raises the ValueError of the first such
    (user, node) in stage1.admitted and node order.
    """
    out = np.zeros(table.ok.shape)
    ids = [c.id for c in sc.compute_nodes]
    at = {cid: j for j, cid in enumerate(ids)}
    movers: dict[str, list[int]] = {}
    for uid, i in table.users.items():
        if (p := prev.get(uid)) is not None:
            movers.setdefault(p, []).append(i)
    for p, rows in movers.items():
        need = table.ok[rows]
        if p in at:
            need[:, at[p]] = False
        hops = np.zeros(len(ids))
        try:
            for j in np.flatnonzero(need.any(axis=0)).tolist():
                hops[j] = sc.hop_distance(p, ids[j])
        except ValueError:
            for uid in stage1.admitted:
                for j in np.flatnonzero(table.ok[table.users[uid]]).tolist():
                    migration_cost(sc, prev.get(uid), ids[j])
            raise
        out[rows] = np.where(need, sc.radio.migration_unit_cost * hops, 0.0)
    return out


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
    be routed inside capacity and deadline. The candidates and their prices
    are read off stage2_table; only the migration term is priced per call.
    k_paths, like RadioParams.k_paths, is at least 1.
    """
    prev = prev_placement or {}
    k = k_paths if k_paths is not None else sc.radio.k_paths
    if k < 1:
        raise ValueError(f"k_paths must be at least 1, got {k}")
    eps = sc.radio.epsilon if k > 1 else 1.0
    inputs = stage2_inputs(sc, stage1)
    table = stage2_table(sc, stage1)
    ledger = _Ledger(sc)
    nodes = sc.compute_nodes
    ids = [c.id for c in nodes]
    rank = dict(zip(sorted(ids), range(len(ids))))
    by_id = [rank[cid] for cid in ids]

    placement: dict[str, str] = {}
    selected: dict[str, tuple[str, ...]] = {}
    flow: dict[tuple[str, str], float] = {}
    active: set[int] = set()  # node columns
    unplaced: set[str] = set()

    # per user: the ok nodes by (price when off, worst fastest route, id),
    # and each one's price once it is on
    price = table.variable + _migration(sc, stage1, table, prev)
    fresh = price + np.array([c.fixed_cost for c in nodes], dtype=float)
    ranked = np.lexsort((np.broadcast_to(by_id, price.shape), table.worst, fresh, ~table.ok))
    viable = table.ok.sum(axis=1).tolist()

    # users pinned to few nodes place first so flexible ones gather around
    # them; within a tier the heaviest renderers go first
    order = sorted(
        table.users,
        key=lambda uid: (viable[table.users[uid]], -inputs.demand[uid].gpu, uid),
    )

    for uid in order:
        i = table.users[uid]
        row, row_fresh, row_ok = price[i].tolist(), fresh[i].tolist(), table.ok[i].tolist()
        d = inputs.demand[uid]
        queue = ranked[i, :viable[i]].tolist()
        tested: set[int] = set()
        while queue:
            j = queue.pop(0)
            if j not in active:
                # an active node whose marginal price undercuts a fresh
                # activation takes over; the popped candidate stays next
                swaps = [
                    (row[n], by_id[n], n)
                    for n in active
                    if n not in tested and row_ok[n] and row_fresh[j] >= row[n]
                ]
                if swaps:
                    queue.insert(0, j)
                    j = min(swaps)[2]
            if j in tested:
                continue
            tested.add(j)
            if not ledger.fits(nodes[j], d):
                continue
            routed = _route_user(sc, stage1, inputs, ledger, uid, ids[j], k, eps)
            if routed is None:
                continue
            plan, link_add = routed
            for pid, frac in plan.items():
                flow[(uid, pid)] = frac
            selected[uid] = tuple(sorted(plan))
            placement[uid] = ids[j]
            ledger.occupy(ids[j], d)
            for lid, add in link_add.items():
                ledger.link_used[lid] += add
            active.add(j)
            break
        else:
            unplaced.add(uid)

    return Stage2Solution(
        placement=placement,
        selected_paths=selected,
        flow=flow,
        active_cns=frozenset(ids[j] for j in active),
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
    Money and lateness are read off stage2_table; only the overflow
    against this call's ledger is priced per (user, node).
    """
    w_cap, w_lat = _PENALTY_WEIGHTS
    inputs = stage2_inputs(sc, stage1)
    table = stage2_table(sc, stage1)
    ledger = _Ledger(sc)
    order = sorted(stage1.admitted, key=lambda uid: (-inputs.demand[uid].gpu, uid))
    nodes = sc.compute_nodes
    # each (cell, node)'s fastest route as its (link id, capacity) pairs,
    # links without capacity left out as the overflow skips them
    first_links = {
        b.id: [tuple((ln.id, ln.capacity_bps) for ln in ps[0].links if ln.capacity_bps > 0)
               if (ps := sc.paths(b.id, c.id)) else () for c in nodes]
        for b in sc.base_stations
    }
    nodes_used = [(ledger.cn_used[c.id], c.caps) for c in nodes]  # rows the ledger updates

    placement: dict[str, str] = {}
    selected: dict[str, tuple[str, ...]] = {}
    flow: dict[tuple[str, str], float] = {}
    active: set[str] = set()
    unplaced: set[str] = set()

    for uid in order:
        serving = stage1.assoc[uid]
        d = inputs.demand[uid]
        i = table.users[uid]
        loads = [stage1.share[(uid, bid)] * d.net for bid in serving]
        routes = [first_links[bid] for bid in serving]
        money, late, routed = (table.variable[i].tolist(), table.lateness[i].tolist(),
                               table.routed[i].tolist())
        best: tuple[float, str] | None = None
        for j, c in enumerate(nodes):
            if not routed[j]:
                continue
            cost = money[j]
            if c.id not in active:
                cost += c.fixed_cost
            overflow = 0.0
            used, caps = nodes_used[j]
            for u_r, n_r, cap in zip(used, d, caps):
                if cap > 0 and (t := u_r + n_r) > cap:
                    overflow += (t - cap) / cap
            for route, load in zip(routes, loads):
                for lid, room in route[j]:
                    if (t := ledger.link_used[lid] + load) > room:
                        overflow += (t - room) / room
            score = cost + w_cap * overflow + w_lat * late[j]
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
        for bid, load in zip(serving, loads):
            first = sc.paths(bid, cid)[0]
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
    claims to have placed is checked in full. The unplaced set must name
    admitted users the solution does not place.
    """
    out: list[Violation] = []
    inputs = stage2_inputs(sc, stage1)
    cn_ids = {c.id for c in sc.compute_nodes}
    placed = solution.placement  # its dict order, never the hash seed's

    for uid in placed:
        if uid not in stage1.admitted:
            out.append(Violation("placement", uid, "placed but not admitted in stage 1"))
        if solution.placement[uid] not in cn_ids:
            out.append(Violation("placement", uid, f"unknown node {solution.placement[uid]}"))
    for uid in sorted(stage1.admitted):
        if uid not in placed and uid not in solution.unplaced:
            out.append(Violation("placement", uid, "admitted user neither placed nor reported"))
    for uid in sorted(solution.unplaced):
        if uid in placed:
            out.append(Violation("placement", uid, "placed and reported unplaced"))
        if uid not in stage1.admitted:
            out.append(Violation("placement", uid, "reported unplaced but not admitted in stage 1"))

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
