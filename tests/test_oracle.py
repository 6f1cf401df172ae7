import math
import sys
from dataclasses import replace

import pytest

import scalar_oracle
from helpers import make_scenario, split_scenario, tiny_scenario
from vrcgsim import oracle
from vrcgsim.oracle import (
    OracleRefusal,
    exact_stage1,
    exact_stage2,
    exact_stage3,
)
from vrcgsim.scenario import generate_synthetic
from vrcgsim.stage1 import Stage1Solution, total_qoe_stage1, verify_stage1, vexa
from vrcgsim.stage2 import Stage2Solution, gepar, total_cost, verify_stage2
from vrcgsim.stage3 import amps, total_qoe_stage3, verify_stage3


def test_refuses_oversized_instance_with_estimate():
    sc = make_scenario(
        users=[{"id": f"u{i}", "position": [1000.0 + i, 1000.0]} for i in range(11)],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
    )
    with pytest.raises(OracleRefusal) as exc:
        exact_stage1(sc)
    assert "budget" in str(exc.value)
    # 11 users, each with 1 cell x 2 resolutions x 2 rates plus rejection
    assert exc.value.estimate == 5.0**11


def test_refuses_when_enumeration_exceeds_budget(monkeypatch):
    sc = make_scenario(
        users=[{"id": f"u{i}", "position": [1000.0 + i, 1000.0]} for i in range(4)],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        radio={"ttis_per_window": 2},
    )
    # a count of exactly the budget is enumerated, one more is refused
    monkeypatch.setattr(oracle, "BUDGET", 5**4)
    exact_stage1(sc)
    monkeypatch.setattr(oracle, "BUDGET", 5**4 - 1)
    with pytest.raises(OracleRefusal) as exc:
        exact_stage1(sc)
    assert "budget" in str(exc.value)
    assert exc.value.estimate == 5.0**4


def test_slack_instance_reaches_each_users_best_axis():
    # ample grants: the quality player should top out resolution, the
    # performance player frame rate, and neither needs the other's axis
    sc = make_scenario(
        users=[
            {"id": "u0", "position": [1008.0, 1000.0], "game": "gq"},
            {"id": "u1", "position": [992.0, 1000.0], "game": "gp"},
        ],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0], "usable_prbs": 50}],
        radio={"ttis_per_window": 2},
    )
    sol, objective = exact_stage1(sc)
    assert sol.resolution["u0"] == (1080, 1200)
    assert sol.frame_rate["u0"] == 72  # ties keep the lowest rate
    assert sol.resolution["u1"] == (960, 1080)
    assert sol.frame_rate["u1"] == 90
    assert objective == pytest.approx(2 * math.log(1.25))
    assert total_qoe_stage1(sc, vexa(sc)) == pytest.approx(objective)


def test_oracle_output_verifies_and_is_deterministic():
    sc = tiny_scenario(seed=4, n_users=3, n_bs=2, n_cns=2)
    sol_a, obj_a = exact_stage1(sc)
    sol_b, obj_b = exact_stage1(sc)
    assert obj_a == obj_b
    assert sol_a == sol_b
    assert verify_stage1(sol_a, sc) == []
    assert total_qoe_stage1(sc, sol_a) == pytest.approx(obj_a)


def test_vexa_stays_close_to_exact_optimum():
    for seed in range(8):
        sc = tiny_scenario(seed, n_users=3, n_bs=2, n_cns=2)
        _, best = exact_stage1(sc)
        got = total_qoe_stage1(sc, vexa(sc))
        assert got <= best + 1e-9  # the exhaustive solver is an upper bound
        assert got >= 0.90 * best - 1e-9


def test_saturated_queues_leave_the_empty_solution():
    # 50 frames/s of queue service: any admission at 72 or 90 fps
    # saturates it, so only the all-rejected candidate fits
    sc = make_scenario(
        users=[{"id": "u0", "position": [1008.0, 1000.0]}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0], "frame_capacity_fps": 50.0}],
    )
    sol, objective = exact_stage1(sc)
    assert sol == Stage1Solution({}, {}, {}, {}, {}, frozenset())
    assert objective == 0.0
    assert exact_stage2(sc, sol) == (Stage2Solution({}, {}, {}, frozenset(), frozenset()), 0.0)


def test_placement_answers_the_nine_user_city():
    # 7**9 route subsets on one node, which enumeration could not afford
    sc = make_scenario(
        users=[{"id": f"u{i}", "position": [1000.0 + i, 1000.0]} for i in range(9)],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
    )
    s1 = vexa(sc)
    assert len(s1.admitted) == 9
    sol, cost = exact_stage2(sc, s1)
    assert verify_stage2(sol, sc, s1) == []
    assert total_cost(sol, sc, s1).total == pytest.approx(cost)
    assert cost <= total_cost(gepar(sc, s1), sc, s1).total + 1e-9


def test_placement_refuses_past_the_time_limit(monkeypatch):
    sc = generate_synthetic(seed=1, n_users=3, n_bs=2, n_cns=2)
    monkeypatch.setattr(oracle, "TIME_LIMIT_S", 0)
    with pytest.raises(OracleRefusal, match="0 s time limit on .* variables and .* rows") as exc:
        exact_stage2(sc, vexa(sc))
    assert exc.value.estimate is None


def test_placement_refuses_without_scipy(monkeypatch):
    sc = generate_synthetic(seed=1, n_users=3, n_bs=2, n_cns=2)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)  # unimportable
    with pytest.raises(OracleRefusal, match="needs scipy") as exc:
        exact_stage2(sc, vexa(sc))
    assert exc.value.estimate is None


def test_placement_model_matches_the_brute_force_reference():
    # the three 3-user default cities, golden_tiny's city and a forced split
    cities = [generate_synthetic(seed=s, n_users=3, n_bs=2, n_cns=2) for s in (1, 2, 3)]
    for sc in [*cities, tiny_scenario(seed=0), split_scenario()]:
        s1 = vexa(sc)
        sol, cost = exact_stage2(sc, s1)
        _, best = scalar_oracle.exact_stage2(sc, s1)
        assert cost == pytest.approx(best, rel=1e-9, abs=0.0)
        assert verify_stage2(sol, sc, s1) == []
        assert total_cost(sol, sc, s1).total == pytest.approx(cost)


def test_gepar_gap_at_paper_scale():
    # 250 users on the paper's 10-cell, 13-node city: gepar pays 1.606x
    sc = generate_synthetic(seed=5, n_users=250, n_bs=10, n_cns=13)
    s1 = vexa(sc)
    sol, best = exact_stage2(sc, s1)
    assert verify_stage2(sol, sc, s1) == []
    placed = gepar(sc, s1)
    assert placed.unplaced == frozenset()
    assert best <= total_cost(placed, sc, s1).total <= 1.61 * best


def test_placement_picks_the_only_reachable_node():
    sc = make_scenario(
        users=[{"id": "u0", "position": [1008.0, 1000.0], "game": "gq"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        compute_nodes=[
            {"id": "cn0", "position": [1000.0, 1000.0]},
            {"id": "cn1", "position": [4000.0, 1000.0], "tier": "cloud",
             "fixed_cost": 1.0},
        ],
        links=[
            {"src": "cn0", "dst": "bs0", "capacity_bps": 10e9, "latency_s": 5e-5},
            {"src": "bs0", "dst": "cn0", "capacity_bps": 10e9, "latency_s": 5e-5},
            # far node is cheaper but half a second away, over any deadline
            {"src": "cn1", "dst": "cn0", "capacity_bps": 40e9, "latency_s": 0.5},
            {"src": "cn0", "dst": "cn1", "capacity_bps": 40e9, "latency_s": 0.5},
        ],
        radio={"ttis_per_window": 8},
    )
    s1 = vexa(sc)
    osol, ocost = exact_stage2(sc, s1)
    assert osol.placement == {"u0": "cn0"}
    sol = gepar(sc, s1)
    assert sol.placement == {"u0": "cn0"}
    assert total_cost(sol, sc, s1).total == pytest.approx(ocost)


def test_placement_raises_when_nothing_fits():
    # stage 1 admits (latency is fine through the colocated node) but no
    # node can actually host the engine
    sc = make_scenario(
        users=[{"id": "u0", "position": [1008.0, 1000.0], "game": "gq"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        compute_nodes=[{"id": "cn0", "position": [1000.0, 1000.0], "gpu_cap": 1.0}],
        radio={"ttis_per_window": 8},
    )
    s1 = vexa(sc)
    assert s1.admitted == frozenset({"u0"})
    with pytest.raises(ValueError, match="no feasible placement"):
        exact_stage2(sc, s1)
    # and when no route meets the deadline: stage 1 solved at one frame
    # period, placed against 1 us, leaves a user with no candidate node
    sc = tiny_scenario(seed=0)
    s1 = vexa(sc)
    with pytest.raises(ValueError, match="no feasible placement"):
        exact_stage2(replace(sc, radio=replace(sc.radio, deadline_s=1e-6)), s1)


def test_gepar_stays_close_to_exact_cost():
    shapes = [(3, 2, 2), (4, 3, 3)]
    for seed in range(10):
        n_users, n_bs, n_cns = shapes[seed % 2]
        sc = tiny_scenario(seed, n_users, n_bs, n_cns, max_connections=1)
        s1 = vexa(sc)
        if not s1.admitted:
            continue
        osol, ocost = exact_stage2(sc, s1)
        sol = gepar(sc, s1)
        assert sol.unplaced == frozenset()
        assert verify_stage2(sol, sc, s1) == []
        got = total_cost(sol, sc, s1).total
        assert ocost <= got + 1e-9  # exhaustive search lower-bounds the heuristic
        assert got <= 1.15 * ocost + 1e-9


def test_object_refinement_matches_enumeration_on_swaps():
    # the hand-traced swap instance: enumeration agrees with the heuristic
    sc = make_scenario(
        users=[
            {"id": "u0", "position": [1008.0, 1000.0], "game": "gq",
             "objects": [
                 {"id": "o0", "pixel_share": 0.2, "attention": 0.9},
                 {"id": "o1", "pixel_share": 0.8, "attention": 0.1},
             ]},
        ],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0], "usable_prbs": 1}],
        headsets=[{"id": "h3",
                   "resolutions": [[960, 1080], [1080, 1200], [1280, 1440]],
                   "frame_rates": [72]}],
        radio={"ttis_per_window": 3},
    )
    s1 = vexa(sc)
    best_map, best = exact_stage3(sc, s1)
    assert best_map[("u0", "o0")] == (1280, 1440)
    assert best_map[("u0", "o1")] == (960, 1080)
    sol = amps(sc, s1)
    assert total_qoe_stage3(sc, s1, sol.object_resolution) == pytest.approx(best)


def test_amps_stays_close_to_exact_optimum():
    for seed in range(10):
        sc = tiny_scenario(seed, n_users=3, n_bs=2, n_cns=2)
        s1 = vexa(sc)
        if not s1.admitted:
            continue
        _, best = exact_stage3(sc, s1)
        got = total_qoe_stage3(sc, s1, amps(sc, s1).object_resolution)
        assert got <= best + 1e-9
        assert got >= 0.90 * best - 1e-9


def test_every_oracle_solves_the_three_user_default_city():
    # four frame rates and 2000 TTIs, which no oracle enumerates; the
    # candidate counts are about 1.3e3, 2.7e3 and 729
    sc = generate_synthetic(seed=1, n_users=3, n_bs=2, n_cns=2)
    s1, best1 = exact_stage1(sc)
    assert verify_stage1(s1, sc) == []
    assert total_qoe_stage1(sc, s1) == pytest.approx(best1)
    heuristic = vexa(sc)
    assert total_qoe_stage1(sc, heuristic) <= best1 + 1e-9

    s2, best2 = exact_stage2(sc, heuristic)
    assert verify_stage2(s2, sc, heuristic) == []
    assert total_cost(s2, sc, heuristic).total == pytest.approx(best2)
    placed = gepar(sc, heuristic)
    assert placed.unplaced == frozenset()
    assert best2 <= total_cost(placed, sc, heuristic).total + 1e-9

    # the exact resolutions ride on amps's grants, which stage 1 fixes
    refined = amps(sc, heuristic)
    best_map, best3 = exact_stage3(sc, heuristic)
    assert verify_stage3(replace(refined, object_resolution=best_map), sc, heuristic) == []
    assert total_qoe_stage3(sc, heuristic, best_map) == pytest.approx(best3)
    assert total_qoe_stage3(sc, heuristic, refined.object_resolution) <= best3 + 1e-9
