"""Path loss, SINR, throughput and the six-part latency budget."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_scenario
from scalar_radio import (
    link_budget,
    path_loss_db,
    sinr,
    spectral_efficiency,
    throughput_bps,
)
from vrcgsim.radio import (
    buffer_latency_s,
    cell_terms,
    fixed_latency_s,
    fixed_parts,
    frame_bits,
    link_tables,
    routing_latency_s,
    traffic_load_bps,
)
from vrcgsim.scenario import distance, generate_synthetic, pixels
from vrcgsim.stage1 import Stage1Solution, latency_columns, verify_stage1


@pytest.fixture(scope="module")
def sc():
    return generate_synthetic(seed=11, n_users=8, n_bs=3, n_cns=4)


def test_path_loss_reference_points():
    # 1 m, 1 GHz, line of sight: both log terms vanish
    assert path_loss_db(1.0, 1.0, los_threshold_m=50.0) == pytest.approx(32.4)
    # 100 m, 3.5 GHz, line of sight
    assert path_loss_db(100.0, 3.5, los_threshold_m=150.0) == pytest.approx(
        32.4 + 21.0 * 2.0 + 20.0 * math.log10(3.5)
    )
    assert path_loss_db(100.0, 3.5, los_threshold_m=150.0) == pytest.approx(85.2823, abs=1e-3)
    # 10 m, 1 GHz, blocked: 35.3 + 22.4 = 57.7 exactly at default height
    assert path_loss_db(10.0, 1.0, los_threshold_m=5.0) == pytest.approx(57.7)


def test_path_loss_height_correction():
    tall = path_loss_db(100.0, 3.5, los_threshold_m=50.0, user_height_m=2.5)
    base = path_loss_db(100.0, 3.5, los_threshold_m=50.0, user_height_m=1.5)
    assert tall == pytest.approx(base - 0.3)


def test_path_loss_clamps_below_one_meter():
    assert path_loss_db(0.0, 3.5, los_threshold_m=50.0) == path_loss_db(
        1.0, 3.5, los_threshold_m=50.0
    )


def test_path_loss_monotone_in_distance():
    for f in (1.0, 3.5, 28.0):
        losses = [path_loss_db(d, f, los_threshold_m=50.0) for d in (2, 10, 49, 60, 200, 400)]
        assert all(b > a for a, b in zip(losses, losses[1:]))


def test_spectral_efficiency_at_unit_sinr():
    # engineered SINR of exactly 1 gives one bit per symbol: 360 kHz -> 360 kb/s
    class _B:
        prb_bandwidth_hz = 360e3

    class _LB:
        sinr = 1.0

    # direct formula check without a full scenario
    assert _B.prb_bandwidth_hz * math.log2(1 + _LB.sinr) == pytest.approx(360_000.0)


def test_throughput_scales_linearly_with_prbs(sc):
    u, b = sc.users[0], sc.base_stations[0]
    one = throughput_bps(sc, u, b, 1)
    assert throughput_bps(sc, u, b, 8) == pytest.approx(8 * one)
    assert one == pytest.approx(spectral_efficiency(sc, u, b))


def test_interference_only_from_cochannel(sc):
    u = sc.users[0]
    b0 = sc.base_stations[0]
    lb = link_budget(sc, u, b0)
    # generated scenarios give each BS its own channel: no interference
    assert lb.interference_w == 0.0
    assert lb.noise_w > 0
    assert lb.sinr > 0


def test_shared_channel_creates_interference():
    sc2 = generate_synthetic(
        seed=11, n_users=4, n_bs=3, n_cns=4, overrides={"shared_channel": True}
    )
    u = sc2.users[0]
    lb = link_budget(sc2, u, sc2.base_stations[0])
    assert lb.interference_w > 0
    assert sinr(sc2, u, sc2.base_stations[0]) < lb.rx_power_w / lb.noise_w


def _assert_tables_match_scalar(sc):
    lt = link_tables(sc)
    assert lt is link_tables(sc)  # built once per scenario instance
    for u in sc.users:
        for b in sc.base_stations:
            i, j = lt.user_index[u.id], lt.bs_index[b.id]
            assert lt.sinr[i, j] == pytest.approx(sinr(sc, u, b), rel=1e-12)
            assert lt.se_bps[i, j] == pytest.approx(spectral_efficiency(sc, u, b), rel=1e-12)
            assert lt.se_of(u.id, b.id) == lt.se_bps[i, j]


def test_link_tables_match_scalar_on_shared_channel():
    sc = generate_synthetic(
        seed=5, n_users=40, n_bs=5, n_cns=4, overrides={"shared_channel": True}
    )
    _assert_tables_match_scalar(sc)


def test_link_tables_match_scalar_with_line_of_sight_users():
    # two cells share a channel; u0 and u2 stand inside the 50 m LoS range
    # and u3 on b0's site, where b1's interference is tiny next to b0's power
    sc = make_scenario(
        users=[
            {"id": "u0", "position": [520.0, 500.0]},
            {"id": "u1", "position": [900.0, 1300.0], "height_m": 2.5},
            {"id": "u2", "position": [1500.0, 1030.0]},
            {"id": "u3", "position": [500.0, 500.0]},
        ],
        base_stations=[
            {"id": "b0", "position": [500.0, 500.0], "channel_id": 0},
            {"id": "b1", "position": [1500.0, 1000.0], "channel_id": 0},
            {"id": "b2", "position": [1000.0, 2000.0], "channel_id": 1},
        ],
    )
    los = [
        (u.id, b.id)
        for u in sc.users
        for b in sc.base_stations
        if distance(u.position, b.position) <= sc.radio.los_threshold_m
    ]
    assert ("u0", "b0") in los and ("u2", "b1") in los
    _assert_tables_match_scalar(sc)


def test_link_tables_are_read_only(sc):
    lt = link_tables(sc)
    with pytest.raises(ValueError):
        lt.se_bps[0, 0] = 0.0


def test_traffic_load_reference_value(sc):
    # full frame flow at the ladder floor: 960*1080 px * 24 bpp * 0.01 * 72 fps
    load = traffic_load_bps(sc, 1.0, (960, 1080), 72)
    assert load == pytest.approx(17_915_904.0)
    # share scales linearly
    assert traffic_load_bps(sc, 0.25, (960, 1080), 72) == pytest.approx(load / 4)


def test_frame_bits(sc):
    assert frame_bits(sc, (960, 1080)) == pytest.approx(960 * 1080 * 24 * 0.01)


def test_buffer_latency(sc):
    b = sc.base_stations[0]
    # capacity 1e5 f/s, arrivals leave 100 f/s of slack -> 10 ms
    assert buffer_latency_s(b, b.frame_capacity_fps - 100.0) == pytest.approx(0.010)
    assert buffer_latency_s(b, b.frame_capacity_fps) == math.inf
    assert buffer_latency_s(b, b.frame_capacity_fps + 1) == math.inf


def test_render_latency(sc):
    """The frame is rendered at the serving cell's nearest node."""
    b = sc.base_stations[0]
    render = fixed_parts(sc, *cell_terms(sc, b), 0.0, pixels((960, 1080)), 72)[1]
    assert render == pytest.approx(960 * 1080 * 72 / sc.cn(b.nearest_cn).render_speed_pps)


def test_fixed_parts_agree_on_numbers_and_arrays(sc):
    """One column at a time and all columns at once give the same bits."""
    lt = link_tables(sc)
    picks = [(u, b, res, fps) for u in sc.users for b in sc.base_stations
             for res in sc.headset_of(u).resolutions for fps in sc.headset_of(u).frame_rates]
    terms = np.array([cell_terms(sc, b) for _, b, _, _ in picks]).T
    rows = [lt.user_index[u.id] for u, _, _, _ in picks]
    cols = [lt.bs_index[b.id] for _, b, _, _ in picks]
    arrays = fixed_parts(sc, *terms, lt.distance_m[rows, cols],
                         np.array([pixels(res) for _, _, res, _ in picks], dtype=float),
                         np.array([fps for _, _, _, fps in picks], dtype=float))
    totals = sum(arrays).tolist()
    assert totals == [fixed_latency_s(sc, u, b, res, fps) for u, b, res, fps in picks]


def test_routing_latency_uses_best_path(sc):
    b = sc.base_stations[0]
    lat = routing_latency_s(sc, b)
    assert lat == min(p.latency_s for p in sc.paths(b.id, b.nearest_cn))


def alone(u, grants, res=(960, 1080), fps=72):
    """A stage-1 solution admitting u alone, on the cells of `grants`."""
    return Stage1Solution(
        assoc={u.id: tuple(grants)},
        prbs={(u.id, bid): g for bid, g in grants.items()},
        resolution={u.id: res},
        frame_rate={u.id: fps},
        share={(u.id, bid): 1 / len(grants) for bid in grants},
        admitted=frozenset({u.id}),
    )


def test_latency_breakdown_components(sc):
    u, b = sc.users[0], sc.base_stations[0]
    res, fps = (960, 1080), 72
    table = latency_columns(sc, alone(u, {b.id: 100}, res, fps))
    assert table.parts.shape == (6, 1) and not table.parts.flags.writeable
    routing, render, propagation, tx, processing, queueing = table.parts[:, 0]
    bits = frame_bits(sc, res)
    assert tx == pytest.approx(bits / throughput_bps(sc, u, b, 100))
    assert processing == pytest.approx(bits / b.processing_capacity_bps)
    # the user's own 72 frames/s are the cell's only arrivals
    assert queueing == pytest.approx(1.0 / (b.frame_capacity_fps - 72.0))
    assert routing == routing_latency_s(sc, b)
    assert render == pixels(res) * fps / sc.cn(b.nearest_cn).render_speed_pps


def test_latency_breakdown_takes_worst_bs(sc):
    """The deadline check reads the slower of two serving cells."""
    u = sc.users[0]
    hs = sc.headset_of(u)
    ids = tuple(b.id for b in sc.base_stations[:2])
    sol = alone(u, {ids[0]: 100, ids[1]: 1}, hs.resolutions[0], hs.frame_rates[0])
    totals = sum(latency_columns(sc, sol).parts).tolist()
    assert totals[1] > totals[0]
    (late,) = [v for v in verify_stage1(sol, sc) if v.kind == "deadline"]
    assert late.detail.startswith(f"latency {totals[1] * 1e3:.3f} ms")
    assert late.detail.endswith(f"(binding cell {ids[1]})")


def test_latency_breakdown_zero_grants_is_infinite(sc):
    u, b = sc.users[0], sc.base_stations[0]
    parts = latency_columns(sc, alone(u, {b.id: 0})).parts[:, 0]
    assert parts[3] == math.inf
    # arrivals at the frame capacity leave the queue no slack
    full = alone(u, {b.id: 50}, fps=int(b.frame_capacity_fps))
    assert latency_columns(sc, full).parts[5, 0] == math.inf


def test_propagation_is_distance_over_c(sc):
    u, b = sc.users[0], sc.base_stations[0]
    parts = latency_columns(sc, alone(u, {b.id: 50})).parts[:, 0]
    assert parts[2] == pytest.approx(
        distance(u.position, b.position) / sc.radio.speed_of_light_mps
    )
    # 300 m of range is one microsecond
    assert 300.0 / sc.radio.speed_of_light_mps == pytest.approx(1e-6)


def test_deadline_is_frame_period(sc):
    assert sc.radio.deadline_for(90) == pytest.approx(1.0 / 90)


@settings(max_examples=40, deadline=None)
@given(
    d=st.floats(min_value=1.0, max_value=1000.0),
    f=st.floats(min_value=0.5, max_value=100.0),
)
def test_nlos_never_below_los_beyond_threshold(d, f):
    """Blocked propagation should not beat free-space at equal range (d >= 10 m)."""
    if d < 10:
        d = 10.0
    los = path_loss_db(d, f, los_threshold_m=d + 1)
    nlos = path_loss_db(d, f, los_threshold_m=d - 1)
    # the street-canyon fits cross below ~5 GHz only at short range
    if f >= 1.0 and d >= 30:
        assert nlos > los - 3.0


@settings(max_examples=30, deadline=None)
@given(prbs=st.integers(min_value=1, max_value=64))
def test_more_prbs_never_slower(sc, prbs):
    u, b = sc.users[0], sc.base_stations[0]
    t1 = throughput_bps(sc, u, b, prbs)
    t2 = throughput_bps(sc, u, b, prbs + 1)
    assert t2 > t1
