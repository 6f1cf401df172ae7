from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_scenario, split_scenario, tiny_scenario
from vrcgsim import metrics, stage2
from vrcgsim.radio import buffer_latency_s
from vrcgsim.scenario import ScenarioError, generate_synthetic
from vrcgsim.stage1 import latency_columns, vexa
from vrcgsim.stage2 import (
    Stage2Solution,
    baseline_single_path,
    baseline_unconstrained,
    demand_profile,
    gepar,
    migration_cost,
    stage1_columns,
    total_cost,
    verify_stage2,
)

CLOUD_COSTS = {"gpu": 6e-9, "cpu": 3e-3, "ram": 3e-7, "net": 1.5e-8}


def two_user_scenario():
    return make_scenario(
        users=[
            {"id": "u0", "position": [1008.0, 1000.0], "game": "gq"},
            {"id": "u1", "position": [992.0, 1000.0], "game": "gq"},
        ],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
    )


def test_single_node_hosts_everyone_fixed_cost_once():
    sc = two_user_scenario()
    s1 = vexa(sc)
    sol = gepar(sc, s1)
    assert sol.placement == {"u0": "cn0", "u1": "cn0"}
    assert sol.active_cns == frozenset({"cn0"})
    cost = total_cost(sol, sc, s1)
    assert cost.fixed == 100.0
    # both users upgraded to 1080x1200@72: G=93,312,000 C=72 M=1,296,000
    # N=22,394,880 at edge unit prices, 5.001984 per user
    assert cost.variable == pytest.approx(2 * 5.001984)
    assert cost.migration == 0.0
    assert verify_stage2(sol, sc, s1) == []


def test_demand_profile_tracks_selection():
    sc = two_user_scenario()
    s1 = vexa(sc)
    d = demand_profile(sc, s1, "u0")
    assert s1.resolution["u0"] == (1080, 1200)
    assert d.gpu == pytest.approx(1080 * 1200 * 72)
    assert d.cpu == 72
    assert d.ram == 1080 * 1200
    assert d.net == pytest.approx(1080 * 1200 * 24 * 0.01 * 72)


def test_cheap_far_node_beats_expensive_near_node():
    sc = make_scenario(
        users=[{"id": "u0", "position": [1008.0, 1000.0], "game": "gq"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        compute_nodes=[
            {"id": "cn0", "position": [1000.0, 1000.0]},
            {"id": "cn1", "position": [3000.0, 1000.0], "tier": "cloud",
             "fixed_cost": 20.0, "unit_costs": CLOUD_COSTS},
        ],
        links=[
            {"src": "cn0", "dst": "bs0", "capacity_bps": 10e9, "latency_s": 5e-5},
            {"src": "bs0", "dst": "cn0", "capacity_bps": 10e9, "latency_s": 5e-5},
            {"src": "cn1", "dst": "cn0", "capacity_bps": 40e9, "latency_s": 1e-3},
            {"src": "cn0", "dst": "cn1", "capacity_bps": 40e9, "latency_s": 1e-3},
        ],
        radio={"ttis_per_window": 8},
    )
    s1 = vexa(sc)
    sol = gepar(sc, s1)
    assert sol.placement == {"u0": "cn1"}
    assert verify_stage2(sol, sc, s1) == []
    from vrcgsim.oracle import exact_stage2

    osol, ocost = exact_stage2(sc, s1)
    assert osol.placement == {"u0": "cn1"}
    assert total_cost(sol, sc, s1).total == pytest.approx(ocost)


def test_link_capacity_forces_flow_split():
    sc = split_scenario()
    s1 = vexa(sc)
    sol = gepar(sc, s1)
    assert sol.placement == {"u0": "cn0"}  # split keeps the cheap node viable
    paths = sol.selected_paths["u0"]
    assert len(paths) == 2
    flows = [sol.flow[("u0", pid)] for pid in paths]
    assert sum(flows) == pytest.approx(1.0)
    assert all(f >= sc.radio.epsilon for f in flows)
    # direct link saturates: carried load 22,394,880 bit/s against 12e6
    assert max(flows) == pytest.approx(12e6 / 22394880)
    assert verify_stage2(sol, sc, s1) == []


def test_single_path_restriction_forces_costlier_node():
    sc = split_scenario()
    s1 = vexa(sc)
    multi = gepar(sc, s1)
    single = baseline_single_path(sc, s1)
    assert single.placement == {"u0": "cn1"}
    assert all(len(v) == 1 for v in single.selected_paths.values())
    assert verify_stage2(single, sc, s1) == []
    assert total_cost(multi, sc, s1).total < total_cost(single, sc, s1).total


def line_topology():
    return make_scenario(
        users=[{"id": "u0", "position": [1008.0, 1000.0], "game": "gq"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0], "nearest_cn": "cnA"}],
        compute_nodes=[
            {"id": "cnA", "position": [1000.0, 1000.0]},
            {"id": "cnB", "position": [1500.0, 1000.0]},
            {"id": "cnC", "position": [2000.0, 1000.0]},
        ],
        links=[
            {"src": "cnA", "dst": "bs0", "capacity_bps": 10e9, "latency_s": 5e-5},
            {"src": "bs0", "dst": "cnA", "capacity_bps": 10e9, "latency_s": 5e-5},
            {"src": "cnA", "dst": "cnB", "capacity_bps": 40e9, "latency_s": 5e-4},
            {"src": "cnB", "dst": "cnA", "capacity_bps": 40e9, "latency_s": 5e-4},
            {"src": "cnB", "dst": "cnC", "capacity_bps": 40e9, "latency_s": 5e-4},
            {"src": "cnC", "dst": "cnB", "capacity_bps": 40e9, "latency_s": 5e-4},
        ],
    )


def test_migration_cost_counts_ring_hops():
    sc = line_topology()
    assert migration_cost(sc, "cnA", "cnC") == 10.0  # 2 hops at unit cost 5
    assert migration_cost(sc, "cnA", "cnB") == 5.0
    assert migration_cost(sc, "cnA", "cnA") == 0.0
    assert migration_cost(sc, None, "cnC") == 0.0


def test_nodes_without_a_route_between_them_are_rejected_not_paid_to_move():
    """Both nodes feed bs0 one way only, so there is no hop count to price a move by."""
    with pytest.raises(ScenarioError) as err:
        make_scenario(
            users=[{"id": "u0", "position": [1008.0, 1000.0], "game": "gq"}],
            base_stations=[{"id": "bs0", "position": [1000.0, 1000.0], "nearest_cn": "cnA"}],
            compute_nodes=[
                {"id": "cnA", "position": [1000.0, 1000.0]},
                {"id": "cnB", "position": [1500.0, 1000.0]},
            ],
            links=[
                {"src": cid, "dst": "bs0", "capacity_bps": 10e9, "latency_s": 5e-5}
                for cid in ("cnA", "cnB")
            ],
        )
    assert err.value.violations == [
        "cn cnB: no crosshaul route to cn cnA",
        "cn cnA: no crosshaul route to cn cnB",
    ]
    # a scenario built past validation cannot price the move either
    line = line_topology()
    sc = replace(line, links=tuple(ln for ln in line.links if ln.dst == "bs0"))
    with pytest.raises(ValueError, match="no crosshaul route"):
        migration_cost(sc, "cnA", "cnB")


def test_staying_put_beats_paying_migration():
    sc = line_topology()
    s1 = vexa(sc)
    fresh = gepar(sc, s1)
    assert fresh.placement == {"u0": "cnA"}  # same price everywhere, fastest wins
    kept = gepar(sc, s1, prev_placement={"u0": "cnC"})
    assert kept.placement == {"u0": "cnC"}
    cost = total_cost(kept, sc, s1, prev_placement={"u0": "cnC"})
    assert cost.migration == 0.0


def test_capacity_starved_node_reports_unplaced():
    sc = make_scenario(
        users=[{"id": "u0", "position": [1008.0, 1000.0], "game": "gq"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        compute_nodes=[{"id": "cn0", "position": [1000.0, 1000.0], "gpu_cap": 1.0}],
    )
    s1 = vexa(sc)
    sol = gepar(sc, s1)
    assert sol.unplaced == frozenset({"u0"})
    assert sol.placement == {}
    assert verify_stage2(sol, sc, s1) == []
    assert total_cost(sol, sc, s1).total == 0.0


def test_verifier_flags_link_overflow():
    sc = split_scenario()
    s1 = vexa(sc)
    pid = sc.paths("bs0", "cn0")[0].id  # the 12 Mbit/s direct hop
    bad = Stage2Solution(
        placement={"u0": "cn0"},
        selected_paths={"u0": (pid,)},
        flow={("u0", pid): 1.0},
        active_cns=frozenset({"cn0"}),
        unplaced=frozenset(),
    )
    kinds = {v.kind for v in verify_stage2(bad, sc, s1)}
    assert "link" in kinds
    subjects = {v.subject for v in verify_stage2(bad, sc, s1) if v.kind == "link"}
    assert "cn0->bs0" in subjects


def test_verifier_flags_broken_conservation():
    sc = two_user_scenario()
    s1 = vexa(sc)
    sol = gepar(sc, s1)
    short = {k: 0.9 * f for k, f in sol.flow.items()}
    bad = Stage2Solution(sol.placement, sol.selected_paths, short,
                         sol.active_cns, sol.unplaced)
    assert any(v.kind == "routing" and "sums" in v.detail
               for v in verify_stage2(bad, sc, s1))


def test_columns_match_reference_latency():
    sc = generate_synthetic(seed=9, n_users=25, n_bs=3, n_cns=4,
                            overrides={"max_connections": 1})
    s1 = vexa(sc)
    cols = stage1_columns(sc, s1)
    table = latency_columns(sc, s1)
    arrivals = {b.id: 0.0 for b in sc.base_stations}
    for uid in s1.admitted:
        for bid in s1.assoc[uid]:
            arrivals[bid] += s1.frame_rate[uid]
    for uid in s1.admitted:
        (bid,) = s1.assoc[uid]
        ref = table.parts[:, table.first[table.users[uid]]].tolist()
        assert ref[5] == buffer_latency_s(sc.bs(bid), arrivals[bid])
        assert cols[(uid, bid)][0] == pytest.approx(sum(ref), rel=1e-12)
        assert cols[(uid, bid)][1] == ref[0]


def test_gepar_never_costs_more_than_single_path():
    for seed in (1, 5, 9, 14, 22):
        sc = generate_synthetic(seed=seed, n_users=60, n_bs=6, n_cns=8)
        s1 = vexa(sc)
        multi = gepar(sc, s1)
        single = baseline_single_path(sc, s1)
        assert verify_stage2(multi, sc, s1) == []
        assert verify_stage2(single, sc, s1) == []
        assert (total_cost(multi, sc, s1).total
                <= total_cost(single, sc, s1).total + 1e-9)


def test_gepar_takes_at_least_one_route():
    sc = generate_synthetic(seed=3, n_users=40, n_bs=4, n_cns=6)
    s1 = vexa(sc)
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"k_paths must be at least 1, got {k}"):
            gepar(sc, s1, k_paths=k)
    single = baseline_single_path(sc, s1)
    assert single == gepar(sc, s1, k_paths=1)
    assert not single.unplaced
    assert all(len(paths) == 1 for paths in single.selected_paths.values())


def test_unconstrained_zero_weights_packs_cheapest_node(monkeypatch):
    monkeypatch.setattr(stage2, "_PENALTY_WEIGHTS", (0.0, 0.0))
    sc = generate_synthetic(seed=7, n_users=30, n_bs=4, n_cns=6)
    s1 = vexa(sc)
    sol = baseline_unconstrained(sc, s1)
    assert len(sol.active_cns) == 1
    (cid,) = sol.active_cns
    assert sc.cn(cid).tier == "cloud"


def test_unconstrained_prices_but_allows_violations(monkeypatch):
    monkeypatch.setattr(stage2, "_PENALTY_WEIGHTS", (4.0, 4.0))
    sc = make_scenario(
        users=[
            {"id": f"u{i}", "position": [1000.0 + i, 1000.0], "game": "gq"}
            for i in range(3)
        ],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        compute_nodes=[{"id": "cn0", "position": [1000.0, 1000.0],
                        "gpu_cap": 1e8}],  # room for one engine, not three
    )
    s1 = vexa(sc)
    priced = baseline_unconstrained(sc, s1)
    assert len(priced.placement) == 3  # everyone placed regardless
    assert any(v.kind == "capacity" for v in verify_stage2(priced, sc, s1))
    # gepar on the same instance refuses to overload instead
    strict = gepar(sc, s1)
    assert strict.unplaced != frozenset()
    assert verify_stage2(strict, sc, s1) == []


def test_unconstrained_with_room_stays_clean(monkeypatch):
    monkeypatch.setattr(stage2, "_PENALTY_WEIGHTS", (1e9, 1e9))
    sc = generate_synthetic(seed=11, n_users=40, n_bs=4, n_cns=6)
    s1 = vexa(sc)
    sol = baseline_unconstrained(sc, s1)
    assert verify_stage2(sol, sc, s1) == []


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_gepar_output_always_verifies(seed):
    sc = tiny_scenario(seed, n_users=4, n_bs=3, n_cns=3)
    s1 = vexa(sc)
    sol = gepar(sc, s1)
    assert verify_stage2(sol, sc, s1) == []
    assert set(sol.placement) | set(sol.unplaced) == set(s1.admitted)


def test_stage2_inputs_are_built_once_per_timestep(monkeypatch):
    """One stage1_columns call, one demand_profile call per admitted user
    and one priced stage-2 table each timestep, however many solvers,
    verifiers and costs read them."""
    calls = {"columns": 0, "demand": 0, "table": 0}
    marks, admitted = [], []

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    def solve(sc, solve=metrics.vexa):
        marks.append(dict(calls))
        s1 = solve(sc)
        admitted.append(len(s1.admitted))
        return s1

    monkeypatch.setattr(stage2, "stage1_columns", counting("columns", stage1_columns))
    monkeypatch.setattr(stage2, "demand_profile", counting("demand", demand_profile))
    monkeypatch.setattr(stage2, "_build_table", counting("table", stage2._build_table))
    monkeypatch.setattr(metrics, "vexa", solve)
    sc = generate_synthetic(seed=5, n_users=60, n_bs=4, n_cns=6)
    metrics.run_experiment(sc, ["gepar", "single_path", "unconstrained"], timesteps=3)
    marks.append(dict(calls))
    per_step = [tuple(b[key] - a[key] for key in calls) for a, b in zip(marks, marks[1:])]
    assert per_step == [(1, n, 1) for n in admitted]
    assert all(n > 0 for n in admitted)
