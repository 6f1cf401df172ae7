"""Association, PRB budgeting, QoE upgrades and the stage-1 verifier."""
import math
from dataclasses import replace

import pytest
from helpers import make_scenario

from vrcgsim.oracle import exact_stage1
from vrcgsim.scenario import generate_synthetic
from vrcgsim.stage1 import (
    Stage1Solution,
    _Ctx,
    _State,
    _offer_steps,
    _try_place,
    _try_upgrade,
    baseline_dual_connectivity,
    baseline_single_association,
    grant_pool,
    maximize_qoe,
    qoe_stage1,
    total_qoe_stage1,
    verify_stage1,
    vexa,
)
from vrcgsim.stage3 import mtp_latency, mtpsched


def near_far_scenario(seed=1, usable0=2, usable1=1):
    """Two cells, two users hugging bs1, one user hugging bs0, tight pools.

    Pools fit one near user at bs1 (2 grants) and one 4-grant far user or
    two near users at bs0, which forces a displacement for solver orders
    that start with both bs1-huggers.
    """
    return make_scenario(
        seed=seed,
        users=[
            {"id": "u0", "position": [1590.0, 1000.0], "game": "gq"},
            {"id": "u1", "position": [1610.0, 1000.0], "game": "gq"},
            {"id": "u2", "position": [1010.0, 1000.0], "game": "gq"},
        ],
        base_stations=[
            {"id": "bs0", "position": [1000.0, 1000.0], "usable_prbs": usable0},
            {"id": "bs1", "position": [1600.0, 1000.0], "usable_prbs": usable1},
        ],
        headsets=[{"id": "h", "resolutions": [[960, 1080], [1080, 1200]], "frame_rates": [72]}],
        radio={"ttis_per_window": 2, "max_connections": 2},
    )


def test_single_user_takes_nearest_cell():
    sc = make_scenario(
        users=[{"id": "u0", "position": [1100.0, 1000.0]}],
        base_stations=[
            {"id": "bs0", "position": [1000.0, 1000.0]},
            {"id": "bs1", "position": [1900.0, 1000.0]},
        ],
    )
    sol = vexa(sc)
    assert sol.assoc["u0"] == ("bs0",)
    assert verify_stage1(sol, sc) == []


def test_displacement_rolls_back_the_weaker_claim():
    """White-box: a user that ranks a full cell first displaces one that
    ranked it second, and the displaced user's grants vanish everywhere."""
    sc = near_far_scenario()
    ctx = _Ctx(sc)
    st = _State(ctx)
    assert _try_place(ctx, st, "u0", 1) == []  # takes bs1
    assert _try_place(ctx, st, "u1", 1) == []  # bs1 full, falls back to bs0
    assert set(st.place["u1"]) == {"bs0"}
    displaced = _try_place(ctx, st, "u2", 1)  # prefers bs0, outranks u1 there
    assert displaced == ["u1"]
    assert "u1" not in st.place
    assert set(st.place["u2"]) == {"bs0"}
    assert st.used["bs0"] == sum(g for (u, b), g in
                                 [((u, b), g) for u, p in st.place.items() for b, g in p.items()]
                                 if b == "bs0")


def test_contended_association_matches_exhaustive_optimum():
    """Tight pools force one displacement; the heuristic should still land
    on the brute-force optimum: one bs1-hugger admitted, u2 on bs0 with the
    pool slack spent on its resolution upgrade."""
    sc = near_far_scenario(seed=1)
    sol = vexa(sc)
    oracle_sol, oracle_obj = exact_stage1(sc)
    assert verify_stage1(sol, sc) == []
    assert len(sol.admitted) == len(oracle_sol.admitted) == 2
    assert total_qoe_stage1(sc, sol) == pytest.approx(oracle_obj)
    assert sol.resolution["u2"] == (1080, 1200)
    assert "u2" in sol.admitted


def test_qoe_zero_at_minimum_option():
    sc = make_scenario(users=[{"id": "u0", "position": [1010.0, 1000.0], "game": "gq"}],
                       base_stations=[{"id": "bs0", "position": [1000.0, 1000.0],
                                       "usable_prbs": 1}],
                       radio={"ttis_per_window": 2})
    sol = vexa(sc)
    # pool equals the entry demand, so no upgrade fits
    assert sol.resolution["u0"] == (960, 1080)
    assert qoe_stage1(sc, sol, "u0") == 0.0


def test_qoe_pixel_ratio_e_is_one():
    sc = make_scenario(
        users=[{"id": "u0", "position": [1010.0, 1000.0], "game": "gq", "headset": "he"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        headsets=[{"id": "he", "resolutions": [[1000, 1000], [2718, 1000]],
                   "frame_rates": [72]}],
    )
    sol = vexa(sc)
    assert sol.resolution["u0"] == (2718, 1000)
    assert qoe_stage1(sc, sol, "u0") == pytest.approx(1.0, abs=2e-4)


def test_qoe_performance_doubling_is_ln2():
    sc = make_scenario(
        users=[{"id": "u0", "position": [1010.0, 1000.0], "game": "gp", "headset": "hf"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        headsets=[{"id": "hf", "resolutions": [[960, 1080]], "frame_rates": [72, 144]}],
    )
    sol = vexa(sc)
    assert sol.frame_rate["u0"] == 144
    assert qoe_stage1(sc, sol, "u0") == pytest.approx(math.log(2))


def test_unlimited_capacity_maxes_everyone():
    sc = make_scenario(
        users=[
            {"id": "u0", "position": [1005.0, 1000.0], "game": "gq"},
            {"id": "u1", "position": [995.0, 1000.0], "game": "gp"},
        ],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
    )
    sol = vexa(sc)
    assert sol.resolution["u0"] == (1080, 1200)  # quality user at menu top
    assert sol.frame_rate["u1"] == 90  # performance user at menu top
    assert verify_stage1(sol, sc) == []


def test_zero_spare_grants_leaves_solution_unchanged():
    sc = make_scenario(
        users=[{"id": "u0", "position": [1010.0, 1000.0], "game": "gq"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0], "usable_prbs": 1}],
        radio={"ttis_per_window": 2},
    )
    sol = vexa(sc)
    again = maximize_qoe(sol, sc)
    assert again.resolution == sol.resolution
    assert again.frame_rate == sol.frame_rate
    assert again.prbs == sol.prbs


def test_contended_upgrade_goes_to_larger_utility():
    """Two users want the same spare grants; the one with the larger gap
    between best achievable and current QoE moves first and exhausts them."""
    sc = make_scenario(
        users=[
            {"id": "u0", "position": [1008.0, 1000.0], "game": "gq", "headset": "hbig"},
            {"id": "u1", "position": [992.0, 1000.0], "game": "gq", "headset": "hsmall"},
        ],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0], "usable_prbs": 3}],
        headsets=[
            {"id": "hbig", "resolutions": [[960, 1080], [1280, 1440]], "frame_rates": [72]},
            {"id": "hsmall", "resolutions": [[960, 1080], [1080, 1200]], "frame_rates": [72]},
        ],
        radio={"ttis_per_window": 2},
    )
    # entry demand 2+2 of pool 6; the idx-2 jump costs +2, the idx-1 jump +1
    sol = vexa(sc)
    assert sol.resolution["u0"] == (1280, 1440)
    assert sol.resolution["u1"] == (960, 1080)
    assert verify_stage1(sol, sc) == []


@pytest.mark.parametrize("capacity,fps", [(179.0, 72), (180.0, 90)])
def test_an_upgrade_past_the_queue_cap_is_refused(capacity, fps):
    """The 90 fps step fits the pool; it is refused when it would take the
    cell's frame arrivals past half its frame capacity, and only then."""
    sc = make_scenario(
        users=[{"id": "u0", "position": [1010.0, 1000.0], "game": "gp"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0],
                        "frame_capacity_fps": capacity}],
        headsets=[{"id": "h", "resolutions": [[960, 1080]], "frame_rates": [72, 90]}],
        radio={"deadline_s": 0.05},
    )
    ctx = _Ctx(sc)
    st = _State(ctx)
    assert _try_place(ctx, st, "u0", 1) == []
    offer = {}
    _offer_steps(ctx, st, ["u0"], {"u0": ctx.ladder("u0", (960, 1080), 72)}, offer)
    res, step_fps, (ask,) = offer["u0"]
    assert step_fps == 90 and st.used["bs0"] - st.place["u0"]["bs0"] + ask <= ctx.pool["bs0"]
    assert (_try_upgrade(ctx, st, "u0", offer["u0"]) is None) == (fps == 72)
    assert st.fps["u0"] == fps
    sol = vexa(sc)
    assert sol.frame_rate["u0"] == fps
    assert verify_stage1(sol, sc) == []


def test_upgrades_never_downgrade():
    sc = generate_synthetic(seed=21, n_users=40, n_bs=4, n_cns=5)
    sol = vexa(sc)
    again = maximize_qoe(sol, sc)
    for uid in sol.admitted:
        assert again.resolution[uid] == sol.resolution[uid]  # already a fixed point
        assert again.frame_rate[uid] == sol.frame_rate[uid]


def test_vexa_dominates_restricted_baselines():
    for seed in (3, 7, 11, 19, 23):
        sc = generate_synthetic(seed=seed, n_users=60, n_bs=5, n_cns=6)
        full = total_qoe_stage1(sc, vexa(sc))
        dual = total_qoe_stage1(sc, baseline_dual_connectivity(sc))
        single = total_qoe_stage1(sc, baseline_single_association(sc))
        assert full >= dual - 1e-9
        assert dual >= single - 1e-9


def test_single_association_uses_one_cell():
    sc = generate_synthetic(seed=13, n_users=30, n_bs=4, n_cns=5)
    sol = baseline_single_association(sc)
    assert all(len(bids) == 1 for bids in sol.assoc.values())
    assert verify_stage1(sol, sc) == []


def test_vexa_is_deterministic():
    sc = generate_synthetic(seed=31, n_users=50, n_bs=5, n_cns=6)
    a, b = vexa(sc), vexa(sc)
    assert a == b


def test_vexa_passes_verifier_across_seeds():
    for seed in (2, 17, 40):
        sc = generate_synthetic(seed=seed, n_users=80, n_bs=6, n_cns=8)
        sol = vexa(sc)
        assert verify_stage1(sol, sc) == []
        pools = {b.id: grant_pool(b, sc.radio) for b in sc.base_stations}
        used = {}
        for (uid, bid), g in sol.prbs.items():
            used[bid] = used.get(bid, 0) + g
        assert all(used[bid] <= pools[bid] for bid in used)


def test_verifier_flags_overdrawn_pool():
    sc = near_far_scenario()
    sol = vexa(sc)
    uid = sorted(sol.admitted)[0]
    bid = sol.assoc[uid][0]
    bad_prbs = dict(sol.prbs)
    bad_prbs[(uid, bid)] = grant_pool(sc.bs(bid), sc.radio) + 1
    bad = Stage1Solution(sol.assoc, bad_prbs, sol.resolution, sol.frame_rate,
                         sol.share, sol.admitted)
    kinds = {v.kind: v for v in verify_stage1(bad, sc)}
    assert "pool" in kinds
    assert kinds["pool"].subject == bid


def test_verifier_flags_missing_frame_rate():
    sc = near_far_scenario()
    sol = vexa(sc)
    uid = sorted(sol.admitted)[0]
    rates = dict(sol.frame_rate)
    del rates[uid]
    bad = Stage1Solution(sol.assoc, sol.prbs, sol.resolution, rates, sol.share, sol.admitted)
    assert any(v.kind == "selection" and v.subject == uid for v in verify_stage1(bad, sc))


def test_verifier_flags_grants_outside_association():
    sc = near_far_scenario()
    sol = vexa(sc)
    uid = sorted(sol.admitted)[0]
    other = next(b.id for b in sc.base_stations if b.id not in sol.assoc[uid])
    bad_prbs = dict(sol.prbs)
    bad_prbs[(uid, other)] = 1
    bad = Stage1Solution(sol.assoc, bad_prbs, sol.resolution, sol.frame_rate,
                         sol.share, sol.admitted)
    assert any(v.kind == "exclusivity" for v in verify_stage1(bad, sc))


def test_multi_connectivity_rescues_pool_bound_user():
    """A user whose full demand fits no single cell gets split over two."""
    sc = make_scenario(
        users=[{"id": "u0", "position": [1300.0, 1000.0], "game": "gq"}],
        base_stations=[
            {"id": "bs0", "position": [1000.0, 1000.0], "usable_prbs": 1},
            {"id": "bs1", "position": [1600.0, 1000.0], "usable_prbs": 1},
        ],
        headsets=[{"id": "h", "resolutions": [[960, 1080]], "frame_rates": [72]}],
        # a relaxed absolute deadline: under the default per-frame deadline a
        # split cannot relieve any cell, because each serving cell still has
        # to push the whole frame inside the frame period on its own
        radio={"ttis_per_window": 3, "max_connections": 2, "deadline_s": 0.05},
    )
    # full demand 4 grants > pool 3 at either cell; halves of 2 fit both
    sol = vexa(sc)
    assert len(sol.assoc["u0"]) == 2
    assert sol.share[("u0", "bs0")] == pytest.approx(0.5)
    assert verify_stage1(sol, sc) == []


def test_verifier_flags_a_serving_cell_that_does_not_cover_the_user():
    """u0 is 1,574 m from bs0, whose radius is 400 m; the grants alone
    would carry its stream inside the deadline."""
    sc = generate_synthetic(seed=5, n_users=60, n_bs=4, n_cns=5)
    hs = sc.headset_of(sc.user("u0"))
    far = Stage1Solution(assoc={"u0": ("bs0",)}, prbs={("u0", "bs0"): 2000},
                         resolution={"u0": hs.resolutions[0]},
                         frame_rate={"u0": hs.frame_rates[0]},
                         share={("u0", "bs0"): 1.0}, admitted=frozenset({"u0"}))
    violations = verify_stage1(far, sc)
    assert [(v.kind, v.subject) for v in violations] == [("coverage", "u0/bs0")]


def test_verifier_prices_hand_made_columns():
    """Off-menu, zero-grant and unknown-cell users beside a user whose two
    serving cells tie: each is worded as before, and the first tied cell binds.
    A resolution that is no pair of numbers is only off the menu."""
    sc = make_scenario(
        users=[{"id": f"u{i}", "position": [1300.0, 1000.0]} for i in range(5)],
        base_stations=[
            {"id": "bs0", "position": [1000.0, 1000.0]},
            {"id": "bs1", "position": [1600.0, 1000.0]},
        ],
    )
    low, fps = (960, 1080), 72
    sol = Stage1Solution(
        assoc={"u0": ("bs0", "bs1"), "u1": ("bs0",), "u2": ("bs1",), "u3": ("bs9",),
               "u4": ("bs0", "bs1")},
        prbs={("u0", "bs0"): 1, ("u0", "bs1"): 1, ("u1", "bs0"): 1,
              ("u2", "bs1"): 0, ("u3", "bs9"): 5, ("u4", "bs0"): 1,
              ("u4", "bs1"): 1},
        resolution={"u0": low, "u1": (1000, 1000), "u2": low, "u3": low, "u4": ("wide", "tall")},
        frame_rate=dict.fromkeys(["u0", "u1", "u2", "u3", "u4"], fps),
        share={("u0", "bs0"): 0.5, ("u0", "bs1"): 0.5, ("u1", "bs0"): 1.0,
               ("u2", "bs1"): 1.0, ("u3", "bs9"): 1.0, ("u4", "bs0"): 0.5,
               ("u4", "bs1"): 0.5},
        admitted=frozenset({"u0", "u1", "u2", "u3", "u4"}),
    )
    found = verify_stage1(sol, sc)
    assert [(v.kind, v.subject) for v in found if v.kind != "throughput"] == [
        ("selection", "u1"),
        ("selection", "u4"),
        ("exclusivity", "u2/bs1"),
        ("exclusivity", "u2/bs1"),
        ("deadline", "u0"),
        ("deadline", "u2"),
        ("association-bounds", "u3"),
    ]
    words = {v.subject: v.detail for v in found if v.kind in ("deadline", "association-bounds")}
    assert words["u0"].endswith("(binding cell bs0)")
    assert words["u2"].startswith("latency inf ms") and words["u2"].endswith("(binding cell bs1)")
    assert words["u3"] == "unknown cell bs9"
    # the latency metric prices the same columns and stops at the unknown cell
    priced = replace(sol, resolution={**sol.resolution, "u4": low})
    with pytest.raises(KeyError, match="bs9"):
        mtp_latency(mtpsched(sc, priced), sc, priced)
