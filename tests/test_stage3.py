import math
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_scenario, tiny_scenario
from vrcgsim import stage3
from vrcgsim.radio import (
    frame_bits,
    link_tables,
    routing_latency_s,
    traffic_load_bps,
)
from vrcgsim.scenario import distance, generate_synthetic, pixels
from vrcgsim.stage1 import Violation, vexa
from vrcgsim.stage3 import (
    Stage3Solution,
    amps,
    baseline_proportional_fair,
    baseline_round_robin,
    group_starts,
    mtp_latency,
    mtpsched,
    objects_load,
    qoe_stage3,
    stage1_object_resolutions,
    total_qoe_stage3,
    verify_stage3,
)


def test_group_starts_slices_the_window():
    assert group_starts(8, 4) == (0, 2, 4, 6)
    assert group_starts(2000, 72)[0] == 0
    assert group_starts(2000, 72)[71] == 1972
    assert len(group_starts(2000, 72)) == 72
    assert group_starts(5, 1) == (0,)


def test_uniform_objects_reproduce_stage1_load():
    sc = generate_synthetic(seed=2, n_users=20, n_bs=2, n_cns=3)
    s1 = vexa(sc)
    uniform = stage1_object_resolutions(sc, s1)
    for uid in s1.admitted:
        whole = traffic_load_bps(sc, 1.0, s1.resolution[uid], s1.frame_rate[uid])
        assert objects_load(sc, s1, uniform, uid) == pytest.approx(whole)


def test_scene_qoe_hand_values():
    # pixel ratios approximate (e^2, 1); the exact ratios give exactly 1.6
    sc = make_scenario(
        users=[
            {"id": "u0", "position": [1008.0, 1000.0], "game": "gq",
             "objects": [
                 {"id": "o0", "pixel_share": 0.5, "attention": 0.8},
                 {"id": "o1", "pixel_share": 0.5, "attention": 0.2},
             ]},
        ],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        headsets=[{"id": "h", "resolutions": [[1000, 1000], [2718, 2718]],
                   "frame_rates": [72]}],
    )
    s1 = vexa(sc)
    level = {("u0", "o0"): (2718, 2718), ("u0", "o1"): (1000, 1000)}
    assert qoe_stage3(sc, s1, level, "u0") == pytest.approx(1.6, abs=1e-3)
    floor = {("u0", "o0"): (1000, 1000), ("u0", "o1"): (1000, 1000)}
    assert qoe_stage3(sc, s1, floor, "u0") == 0.0


def test_objects_load_matches_direct_summation():
    sc = make_scenario(
        users=[
            {"id": "u0", "position": [1008.0, 1000.0], "game": "gq",
             "objects": [
                 {"id": f"o{i}", "pixel_share": s, "attention": a}
                 for i, (s, a) in enumerate(
                     [(0.3, 0.1), (0.25, 0.4), (0.2, 0.3), (0.15, 0.15), (0.1, 0.05)]
                 )
             ]},
        ],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
    )
    s1 = vexa(sc)
    hs = sc.headsets[0]
    picks = {
        ("u0", "o0"): hs.resolutions[0],
        ("u0", "o1"): hs.resolutions[1],
        ("u0", "o2"): hs.resolutions[0],
        ("u0", "o3"): hs.resolutions[1],
        ("u0", "o4"): hs.resolutions[0],
    }
    fps = s1.frame_rate["u0"]
    expected = sum(
        share * pixels(picks[("u0", f"o{i}")]) * 24.0 * 0.01 * fps
        for i, share in enumerate([0.3, 0.25, 0.2, 0.15, 0.1])
    )
    assert objects_load(sc, s1, picks, "u0") == pytest.approx(expected)


def constrained_three_rung():
    """Pool lets stage 1 reach the middle rung only."""
    return make_scenario(
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


def test_amps_funds_watched_object_with_background_one():
    sc = constrained_three_rung()
    s1 = vexa(sc)
    assert s1.resolution["u0"] == (1080, 1200)  # top rung needs 4 of 3 grants
    sol = amps(sc, s1)
    # the watched fifth of the screen sharpens, the background pays
    assert sol.object_resolution[("u0", "o0")] == (1280, 1440)
    assert sol.object_resolution[("u0", "o1")] == (960, 1080)
    assert verify_stage3(sol, sc, s1) == []
    got = qoe_stage3(sc, s1, sol.object_resolution, "u0")
    assert got == pytest.approx(0.9 * math.log(1843200 / 1036800))
    uniform = stage1_object_resolutions(sc, s1)
    assert got > qoe_stage3(sc, s1, uniform, "u0")


def test_amps_keeps_top_rung_when_stage1_reached_it():
    sc = make_scenario(
        users=[{"id": "u0", "position": [1008.0, 1000.0], "game": "gq"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
    )
    s1 = vexa(sc)
    assert s1.resolution["u0"] == (1080, 1200)  # headset maximum
    sol = amps(sc, s1)
    assert all(res == (1080, 1200) for res in sol.object_resolution.values())


def test_amps_never_drops_below_uniform_qoe():
    for seed in range(6):
        sc = generate_synthetic(seed=seed, n_users=40, n_bs=3, n_cns=4)
        s1 = vexa(sc)
        sol = amps(sc, s1)
        assert verify_stage3(sol, sc, s1) == []
        uniform = stage1_object_resolutions(sc, s1)
        base = total_qoe_stage3(sc, s1, uniform)
        assert total_qoe_stage3(sc, s1, sol.object_resolution) >= base - 1e-9


def test_schedule_spreads_grants_one_per_group():
    # four grants, eight TTIs, four groups: targets land at 1, 3, 4, 6
    sc = make_scenario(
        users=[{"id": "u0", "position": [1008.0, 1000.0], "game": "gq"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        radio={"tti_s": 1.0 / 144.0, "ttis_per_window": 8},
    )
    s1 = vexa(sc)
    assert s1.prbs[("u0", "bs0")] == 4
    sol = mtpsched(sc, s1)
    assert sol.tti_groups["u0"] == (0, 2, 4, 6)
    assert sol.schedule == {
        ("bs0", 1): (("u0", 1),),
        ("bs0", 3): (("u0", 1),),
        ("bs0", 4): (("u0", 1),),
        ("bs0", 6): (("u0", 1),),
    }
    assert verify_stage3(sol, sc, s1) == []


def test_schedule_single_tti_window():
    sc = make_scenario(
        users=[{"id": "u0", "position": [1008.0, 1000.0], "game": "gq"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        radio={"ttis_per_window": 1},
    )
    s1 = vexa(sc)
    sol = mtpsched(sc, s1)
    assert sol.schedule == {("bs0", 0): (("u0", s1.prbs[("u0", "bs0")]),)}
    assert verify_stage3(sol, sc, s1) == []


def test_schedule_saturated_pool_fills_every_tti_exactly():
    sc = make_scenario(
        users=[
            {"id": "u0", "position": [1008.0, 1000.0], "game": "gq"},
            {"id": "u1", "position": [992.0, 1000.0], "game": "gq"},
        ],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0], "usable_prbs": 3}],
        radio={"ttis_per_window": 2},
    )
    s1 = vexa(sc)
    assert sum(s1.prbs.values()) == 6  # exactly the schedulable pool
    sol = mtpsched(sc, s1)
    assert sol.schedule == {
        ("bs0", 0): (("u0", 1), ("u1", 2)),
        ("bs0", 1): (("u0", 2), ("u1", 1)),
    }
    assert verify_stage3(sol, sc, s1) == []


def test_round_robin_splits_every_tti_evenly():
    sc = make_scenario(
        users=[
            {"id": "u0", "position": [1008.0, 1000.0], "game": "gq"},
            {"id": "u1", "position": [992.0, 1000.0], "game": "gq"},
        ],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
    )
    s1 = vexa(sc)
    sol = baseline_round_robin(sc, s1)
    ttis = sc.radio.ttis_per_window
    assert len(sol.schedule) == ttis  # no TTI left idle
    for entries in sol.schedule.values():
        counts = dict(entries)
        assert sum(counts.values()) == 16
        assert abs(counts["u0"] - counts["u1"]) <= 1


def test_proportional_fair_lone_user_takes_all():
    sc = make_scenario(
        users=[{"id": "u0", "position": [1008.0, 1000.0], "game": "gq"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
    )
    s1 = vexa(sc)
    sol = baseline_proportional_fair(sc, s1)
    assert all(entries == (("u0", 16),) for entries in sol.schedule.values())
    assert len(sol.schedule) == sc.radio.ttis_per_window


def test_proportional_fair_equal_users_alternate():
    sc = make_scenario(
        users=[
            {"id": "u0", "position": [1008.0, 1000.0], "game": "gq"},
            {"id": "u1", "position": [992.0, 1000.0], "game": "gq"},
        ],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
    )
    s1 = vexa(sc)
    sol = baseline_proportional_fair(sc, s1)
    totals = {"u0": 0, "u1": 0}
    for entries in sol.schedule.values():
        for uid, n in entries:
            totals[uid] += n
    assert totals["u0"] == totals["u1"]
    assert sol.schedule[("bs0", 0)] == (("u0", 16),)  # tie goes to the low id
    assert sol.schedule[("bs0", 1)] == (("u1", 16),)


def test_mtp_follows_the_schedule_gaps():
    sc = make_scenario(
        users=[{"id": "u0", "position": [1008.0, 1000.0], "game": "gq"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        radio={"tti_s": 1.0 / 144.0, "ttis_per_window": 8},
    )
    s1 = vexa(sc)
    sol = mtpsched(sc, s1)  # grants in TTIs 1, 3, 4, 6
    rep = mtp_latency(sol, sc, s1)
    b = sc.bs("bs0")
    res, fps = s1.resolution["u0"], s1.frame_rate["u0"]
    fixed = (
        routing_latency_s(sc, b)
        + pixels(res) * fps / sc.cn("cn0").render_speed_pps
        + distance(sc.user("u0").position, b.position) / sc.radio.speed_of_light_mps
        + frame_bits(sc, res) / b.processing_capacity_bps
    )
    tau = sc.radio.tti_s
    # frames are born on TTI boundaries 0, 2, 4, 6; the first two wait a
    # spare TTI for their grant, the last two are served in their birth TTI
    expected = (2 * tau + fixed, 2 * tau + fixed, tau + fixed, tau + fixed)
    assert rep.samples["u0"] == pytest.approx(expected)
    assert rep.average_s["u0"] == pytest.approx(sum(expected) / 4)
    assert rep.truncated == frozenset()


def test_spread_schedule_beats_round_robin_under_load():
    sc = generate_synthetic(seed=5, n_users=200, n_bs=1, n_cns=2)
    s1 = vexa(sc)
    assert len(s1.admitted) == 200
    spread = mtp_latency(mtpsched(sc, s1), sc, s1)
    cyclic = mtp_latency(baseline_round_robin(sc, s1), sc, s1)
    mean_spread = statistics.mean(spread.average_s.values())
    mean_cyclic = statistics.mean(cyclic.average_s.values())
    assert mean_spread < mean_cyclic
    assert mean_spread <= 0.030  # the playability threshold
    assert mean_cyclic > 0.030


def test_verifier_flags_missing_group_and_bad_objects():
    sc = make_scenario(
        users=[{"id": "u0", "position": [1008.0, 1000.0], "game": "gq"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        radio={"tti_s": 1.0 / 144.0, "ttis_per_window": 8},
    )
    s1 = vexa(sc)
    sol = mtpsched(sc, s1)

    schedule = dict(sol.schedule)
    moved = schedule.pop(("bs0", 6))  # group 3 loses its only transmission
    schedule[("bs0", 4)] = (("u0", 2),)
    assert moved == (("u0", 1),)
    broken = Stage3Solution(sol.object_resolution, schedule, sol.tti_groups)
    kinds = {v.kind for v in verify_stage3(broken, sc, s1)}
    assert "groups" in kinds

    missing = dict(sol.object_resolution)
    del missing[("u0", "o1")]
    no_res = Stage3Solution(missing, sol.schedule, sol.tti_groups)
    assert any(v.kind == "objects" for v in verify_stage3(no_res, sc, s1))

    wrong = dict(sol.object_resolution)
    wrong[("u0", "o0")] = (123, 456)
    off_menu = Stage3Solution(wrong, sol.schedule, sol.tti_groups)
    assert any(v.kind == "objects" for v in verify_stage3(off_menu, sc, s1))

    short = {k: v for k, v in sol.schedule.items() if k != ("bs0", 1)}
    under = Stage3Solution(sol.object_resolution, short, sol.tti_groups)
    assert any(v.kind == "grants" for v in verify_stage3(under, sc, s1))


def _group_scan(sol, sc, stage1):
    """The verifier's group-coverage rule as a plain scan over every TTI."""
    ttis = sc.radio.ttis_per_window
    tx: dict[tuple[str, str], set[int]] = {}
    for (bid, tti), entries in sol.schedule.items():
        for uid, n in entries:
            if n > 0:
                tx.setdefault((uid, bid), set()).add(tti)
    out = []
    for u in sc.users:
        if u.id not in stage1.admitted:
            continue
        starts = sol.tti_groups.get(u.id)
        if not starts:
            out.append(Violation("groups", u.id, "no TTI groups recorded"))
            continue
        bounds = list(starts) + [ttis]
        for bid in stage1.assoc[u.id]:
            mine = tx.get((u.id, bid), set())
            for j in range(len(starts)):
                if not any(bounds[j] <= tti < bounds[j + 1] for tti in mine):
                    out.append(
                        Violation("groups", f"{u.id}@{bid}", f"group {j} has no transmission")
                    )
                    break
    return out


_TINY = tiny_scenario(seed=0, n_users=3, n_bs=2, max_connections=2)
_TINY_S1 = vexa(_TINY)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_group_coverage_matches_the_plain_scan(data):
    """Hand-edited groups: unsorted, duplicate or out-of-window starts."""
    sc, stage1 = _TINY, _TINY_S1
    ttis = sc.radio.ttis_per_window
    tti = st.integers(min_value=-3, max_value=ttis + 3)
    schedule: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for uid, bid in sorted(stage1.prbs):
        for t in data.draw(st.sets(tti, max_size=10)):
            n = data.draw(st.integers(min_value=0, max_value=2))
            schedule.setdefault((bid, t), []).append((uid, n))
    groups = {
        uid: tuple(data.draw(st.lists(tti, max_size=6)))
        for uid in sorted(stage1.admitted)
    }
    sol = Stage3Solution(
        stage1_object_resolutions(sc, stage1),
        {key: tuple(entries) for key, entries in schedule.items()},
        groups,
    )
    found = [v for v in verify_stage3(sol, sc, stage1) if v.kind == "groups"]
    assert found == _group_scan(sol, sc, stage1)


@pytest.mark.parametrize("seed", [21, 5, 7])
def test_pf_winners_ignore_rounding_noise_in_the_rates(monkeypatch, seed):
    # seeded averages make every first ratio usable_prbs up to one ulp
    sc = generate_synthetic(seed=seed, n_users=60, n_bs=4, n_cns=6)
    s1 = vexa(sc)
    plain = baseline_proportional_fair(sc, s1).schedule
    lt = link_tables(sc)
    for scale in (1 - 1e-15, 1 + 1e-15):
        monkeypatch.setattr(stage3, "link_tables",
                            lambda sc, scale=scale: replace(lt, se_bps=lt.se_bps * scale))
        assert baseline_proportional_fair(sc, s1).schedule == plain
