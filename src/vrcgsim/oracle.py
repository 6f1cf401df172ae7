"""Exact solvers used as ground truth.

exact_stage1 and exact_stage3 enumerate their stage's decision space and
keep the best feasible candidate, ties going to the lexicographically
smallest encoding. Each first counts its candidates and refuses with
OracleRefusal above BUDGET; stage 3 decomposes by user, so it runs at
paper scale. exact_stage2 solves one mixed-integer model with HiGHS; it
imports scipy only when called and answers at paper scale.
"""
from __future__ import annotations

import itertools
import math

from .radio import fixed_latency_s, frame_bits, link_tables, traffic_load_bps
from .scenario import Scenario, distance, pixels
from .stage1 import Stage1Solution, grant_pool, verify_stage1
from .stage2 import (
    Stage2Solution,
    stage1_columns,
    stage2_inputs,
    variable_cost,
    verify_stage2,
)
from .stage3 import ResMap

BUDGET = 10**7  # candidate evaluations per enumerating oracle call
TIME_LIMIT_S = 60  # HiGHS wall-clock limit per stage-2 oracle call


class OracleRefusal(ValueError):
    """An enumeration over BUDGET, or a stage-2 model left unsolved.

    `estimate` is the candidate count as a float, inf past the float range,
    or None for stage 2's refusals: scipy missing, or TIME_LIMIT_S hit.
    """

    def __init__(self, reason: str, estimate: float | None = None):
        self.estimate = estimate
        if estimate is not None:
            reason += f" (estimated {estimate:.3g} candidate evaluations)"
        super().__init__(reason)


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

    # best is set: the all-rejected candidate always fits, as no grant pool is negative
    problems = verify_stage1(best[2], sc)
    assert not problems, f"oracle produced a solution its own verifier rejects: {problems[:2]}"
    return best[2], best[0]


# ---------------------------------------------------------------------------
# Stage 2: placement, path selection and flows


def exact_stage2(sc: Scenario, stage1: Stage1Solution) -> tuple[Stage2Solution, float]:
    """Minimum-cost placement with exact routed flows, by one HiGHS model.

    Binaries x[u, c] for each node whose every serving cell has a route
    within the user's deadline, y[c] >= x for an active node, and z per
    eligible (user, cell, node, route) with its flow f: each user on one
    node, flows toward a cell sum to x, f <= z, a selected route carries
    at least epsilon (so at most 1 / epsilon are selected), and compute
    and link loads fit. It minimises fixed plus variable cost to a zero
    gap. HiGHS accepts rows within about 1e-7, so link rows and flow
    floors keep a 1e-7 margin of the capacity or the whole flow (compute
    rows need none once their binaries are rounded); selected flows are
    clipped at epsilon and renormalised. Equal-cost optima tie as HiGHS
    returns them. Raises ValueError when nothing routes, OracleRefusal
    when scipy is missing or no optimum is proven within TIME_LIMIT_S.
    """
    users = [u.id for u in sc.users if u.id in stage1.admitted]
    if not users:
        return Stage2Solution({}, {}, {}, frozenset(), frozenset()), 0.0
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import coo_array
    except ImportError:
        raise OracleRefusal("the stage-2 oracle needs scipy, which is not installed") from None

    columns = stage1_columns(sc, stage1)
    demands = stage2_inputs(sc, stage1).demand
    eps, margin = sc.radio.epsilon, 1e-7
    cost = [c.fixed_cost for c in sc.compute_nodes]  # the y[c] come first
    integral = [1] * len(cost)
    entries, lower, upper = [], [], []  # (row, column, coefficient), row bounds

    def row(terms, hi: float = 0.0, lo: float = -math.inf) -> None:
        entries.extend((len(upper), j, v) for j, v in terms)
        upper.append(hi)
        lower.append(lo)

    def var(price: float, binary: int = 1) -> int:
        cost.append(price)
        integral.append(binary)
        return len(cost) - 1

    x_of: dict[tuple[str, str], int] = {}  # (user, node) -> column
    routes: dict[tuple[str, str, str], list] = {}  # (user, node, cell) -> [(path, f, z)]
    loads: dict[str, list] = {ln.id: [] for ln in sc.links}
    for uid in users:
        deadline = sc.radio.deadline_for(stage1.frame_rate[uid]) + 1e-12
        budget = {bid: deadline - columns[(uid, bid)][0] + columns[(uid, bid)][1]
                  for bid in stage1.assoc[uid]}
        mine = []
        for ci, c in enumerate(sc.compute_nodes):
            eligible = [(bid, [p for p in sc.paths(bid, c.id) if p.latency_s <= budget[bid]])
                        for bid in stage1.assoc[uid]]
            if not all(ps for _, ps in eligible):
                continue
            x = x_of[(uid, c.id)] = var(variable_cost(c, demands[uid]))
            mine.append((x, 1.0))
            row([(x, 1.0), (ci, -1.0)])
            for bid, ps in eligible:
                carried = stage1.share[(uid, bid)] * demands[uid].net
                trio = routes[(uid, c.id, bid)] = [(p, var(0.0, 0), var(0.0)) for p in ps]
                row([(x, -1.0), *((f, 1.0) for _, f, _ in trio)], 0.0, 0.0)
                for p, f, z in trio:
                    row([(f, 1.0), (z, -1.0)])
                    row([(z, eps + margin), (f, -1.0)])
                    for ln in p.links:
                        loads[ln.id].append((f, carried / ln.capacity_bps))
        if not mine:
            raise ValueError("no feasible placement for this stage-1 solution")
        row(mine, 1.0, 1.0)
    for c in sc.compute_nodes:
        for i, cap in enumerate(c.caps):
            row([(x, demands[u][i] / cap) for (u, cid), x in x_of.items() if cid == c.id], 1.0)
    for ln in sc.links:
        if loads[ln.id]:
            row(loads[ln.id], 1.0 - margin)

    r, j, v = zip(*entries)
    res = milp(cost, integrality=integral, bounds=Bounds(0.0, 1.0),
               constraints=LinearConstraint(coo_array((v, (r, j)), (len(upper), len(cost))),
                                            lower, upper),
               options={"time_limit": TIME_LIMIT_S, "mip_rel_gap": 0.0})
    if res.status == 2:
        raise ValueError("no feasible placement for this stage-1 solution")
    if res.status != 0:
        raise OracleRefusal(f"HiGHS proved no optimum within the {TIME_LIMIT_S} s time limit "
                            f"on {len(cost)} variables and {len(upper)} rows ({res.message})")

    on = res.x > 0.5
    placement = {uid: cid for (uid, cid), x in x_of.items() if on[x]}
    flow: dict[tuple[str, str], float] = {}
    selected: dict[str, list[str]] = {}
    for (uid, cid, _), trio in routes.items():
        kept = [(p, max(res.x[f], eps)) for p, f, z in trio if placement[uid] == cid and on[z]]
        whole = sum(q for _, q in kept)
        for p, q in kept:
            flow[(uid, p.id)] = float(q / whole)
            selected.setdefault(uid, []).append(p.id)
    solution = Stage2Solution(placement, {uid: tuple(sorted(ps)) for uid, ps in selected.items()},
                              flow, frozenset(placement.values()), frozenset())
    problems = verify_stage2(solution, sc, stage1)
    assert not problems, f"oracle stage-2 solution fails verification: {problems[:2]}"
    total = sum(sc.cn(cid).fixed_cost for cid in sorted(solution.active_cns))
    for uid in users:
        total += variable_cost(sc.cn(placement[uid]), demands[uid])
    return solution, total


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
