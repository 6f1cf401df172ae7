"""Exhaustive solvers used as ground truth.

Each exact_* function enumerates the full decision space of one stage,
keeps the feasible candidates and returns the best. Before enumerating,
each counts the candidates it will evaluate, in Python integers, and
refuses with OracleRefusal when the count is above BUDGET; there is no
other size limit. Stage 3 decomposes by user, so its count is a sum and
`exact_stage3` runs at paper scale. They are written for correctness,
not speed: plain nested enumeration with feasibility pruning and
deterministic tie-breaking by the lexicographically smallest solution
encoding.
"""
from __future__ import annotations

import itertools
import math

from .radio import fixed_latency_s, frame_bits, link_tables, traffic_load_bps
from .scenario import Scenario, distance, pixels
from .stage1 import Stage1Solution, grant_pool, verify_stage1
from .stage2 import (
    DemandProfile,
    Stage2Solution,
    stage1_columns,
    stage2_inputs,
    variable_cost,
    verify_stage2,
)
from .stage3 import ResMap

BUDGET = 10**7  # candidate evaluations per oracle call


class OracleRefusal(ValueError):
    """An enumeration over BUDGET.

    `estimate` is the candidate count as a float, inf past the float range.
    """

    def __init__(self, reason: str, estimate: float):
        self.estimate = estimate
        super().__init__(f"{reason} (estimated {estimate:.3g} candidate evaluations)")


def _within_budget(count: int) -> None:
    if count > BUDGET:
        try:
            estimate = float(count)
        except OverflowError:  # past the float range
            estimate = math.inf
        raise OracleRefusal(f"enumeration over budget {BUDGET:.0e}", estimate)


# ---------------------------------------------------------------------------
# Stage 1: association, grants and quality selections


def exact_stage1(sc: Scenario) -> tuple[Stage1Solution, float]:
    """Maximum total QoE over association subsets and quality selections.

    Grants take their minimal feasible value per user and cell (the QoE
    objective never rewards extra grants and every constraint prefers or
    tolerates fewer), and stream shares split equally, mirroring the
    solver's restriction. Users with no feasible option are left out and
    score zero. Ties pick the lexicographically smallest encoding, with
    admission sorting before rejection.
    """
    n = sc.radio.max_connections
    lt = link_tables(sc)

    # per-user option list: (encoding, bids, res, fps) with None (unadmitted) last
    options: list[list[tuple | None]] = []
    for u in sc.users:
        hs = sc.headset_of(u)
        covering = [
            b.id
            for b in sc.base_stations
            if distance(u.position, b.position) <= b.coverage_radius_m
            and lt.se_of(u.id, b.id) > 0
        ]
        opts: list[tuple | None] = []
        for k in range(1, min(n, len(covering)) + 1):
            for combo in itertools.combinations(covering, k):
                for ri, res in enumerate(hs.resolutions):
                    for fi, fps in enumerate(hs.frame_rates):
                        enc = (0, tuple(lt.bs_index[b] for b in combo), ri, fi)
                        opts.append((enc, combo, res, fps))
        opts.sort(key=lambda t: t[0])
        opts.append(None)
        options.append(opts)

    _within_budget(math.prod(len(opts) for opts in options))

    pool = {b.id: grant_pool(b, sc.radio) for b in sc.base_stations}

    def min_grants(uid: str, bid: str, share: float, res, fps, arrivals_b: float):
        """Smallest grant count meeting load, group coverage and deadline."""
        bs = sc.bs(bid)
        se = lt.se_of(uid, bid)
        slack = bs.frame_capacity_fps - arrivals_b
        if slack <= 0:
            return None
        bits = frame_bits(sc, res)
        fixed = fixed_latency_s(sc, sc.user(uid), bs, res, fps) + 1.0 / slack
        budget = sc.radio.deadline_for(fps) - fixed
        if budget <= 0:
            return None
        need = max(
            math.ceil(share * traffic_load_bps(sc, 1.0, res, fps) / se),
            sc.radio.tti_groups_for(fps),
            math.ceil(bits / (budget * se)),
        )
        return need

    best: tuple[float, tuple, Stage1Solution] | None = None
    for picks in itertools.product(*options):
        arrivals = {b.id: 0.0 for b in sc.base_stations}
        for u, pick in zip(sc.users, picks):
            if pick is not None:
                for bid in pick[1]:
                    arrivals[bid] += pick[3]
        used = {b.id: 0 for b in sc.base_stations}
        assoc = {}
        prbs = {}
        share = {}
        resolution = {}
        frame_rate = {}
        objective = 0.0
        feasible = True
        for u, pick in zip(sc.users, picks):
            if pick is None:
                continue
            _, combo, res, fps = pick
            sh = 1.0 / len(combo)
            for bid in combo:
                g = min_grants(u.id, bid, sh, res, fps, arrivals[bid])
                if g is None:
                    feasible = False
                    break
                used[bid] += g
                prbs[(u.id, bid)] = g
                share[(u.id, bid)] = sh
            if not feasible:
                break
            assoc[u.id] = combo
            resolution[u.id] = res
            frame_rate[u.id] = fps
            hs = sc.headset_of(u)
            if sc.game_of(u).preference_mode == "quality":
                objective += math.log(pixels(res) / pixels(hs.resolutions[0]))
            else:
                objective += math.log(fps / hs.frame_rates[0])
        if not feasible:
            continue
        if any(used[bid] > pool[bid] for bid in used):
            continue
        if best is None or objective > best[0] + 1e-12:
            enc = tuple(p[0] if p is not None else (1,) for p in picks)
            sol = Stage1Solution(
                assoc=assoc,
                prbs=prbs,
                resolution=resolution,
                frame_rate=frame_rate,
                share=share,
                admitted=frozenset(assoc),
            )
            best = (objective, enc, sol)

    if best is None:
        # every combination infeasible: the empty solution stands
        empty = Stage1Solution({}, {}, {}, {}, {}, frozenset())
        return empty, 0.0
    problems = verify_stage1(best[2], sc)
    assert not problems, f"oracle produced a solution its own verifier rejects: {problems[:2]}"
    return best[2], best[0]


# ---------------------------------------------------------------------------
# Stage 2: placement, path selection and flows


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


# ---------------------------------------------------------------------------
# Stage 3: per-object resolutions


def exact_stage3(sc: Scenario, stage1: Stage1Solution) -> tuple[ResMap, float]:
    """Maximum attention-weighted QoE over per-object resolution choices.

    The traffic budget couples only a user's own objects, so users
    decompose: each is solved by enumerating every assignment of rungs to
    objects and keeping the best one whose weighted pixel total stays
    within the stage-1 frame. The stage-1 uniform assignment is always
    inside the budget, so every user has a feasible optimum. Ties keep
    the lexicographically smallest rung levels.
    """
    users = [u for u in sc.users if u.id in stage1.admitted]
    _within_budget(sum(len(sc.headset_of(u).resolutions) ** len(u.objects) for u in users))

    best_map: ResMap = {}
    total = 0.0
    for u in users:
        hs = sc.headset_of(u)
        rungs = hs.resolutions
        fps = stage1.frame_rate[u.id]
        floor = pixels(hs.resolutions[0]) * hs.frame_rates[0]
        budget = pixels(stage1.resolution[u.id]) * (1 + 1e-9)
        best: tuple[float, tuple[int, ...]] | None = None
        for combo in itertools.product(range(len(rungs)), repeat=len(u.objects)):
            screen = sum(
                o.pixel_share * pixels(rungs[i]) for o, i in zip(u.objects, combo)
            )
            if screen > budget:
                continue
            qoe = sum(
                o.attention * math.log(pixels(rungs[i]) * fps / floor)
                for o, i in zip(u.objects, combo)
            )
            if best is None or qoe > best[0] + 1e-12:
                best = (qoe, combo)
        assert best is not None  # the uniform stage-1 levels always fit
        total += best[0]
        for o, i in zip(u.objects, best[1]):
            best_map[(u.id, o.id)] = rungs[i]
    return best_map, total
