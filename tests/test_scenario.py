"""Scenario construction, validation, config round-trip and mobility."""
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrcgsim import scenario
from vrcgsim.metrics import run_experiment
from vrcgsim.scenario import (
    RESOLUTION_LADDER,
    Link,
    ScenarioError,
    default_headsets,
    distance,
    enumerate_paths,
    generate_synthetic,
    load_scenario,
    pixels,
    scenario_to_json,
    step_positions,
    validate_scenario,
)


def small_scenario(seed=7, n_users=12, n_bs=3, n_cns=4):
    return generate_synthetic(seed=seed, n_users=n_users, n_bs=n_bs, n_cns=n_cns)


def test_resolution_ladder_strictly_increasing():
    px = [pixels(r) for r in RESOLUTION_LADDER]
    assert all(b > a for a, b in zip(px, px[1:]))
    assert px[0] == 960 * 1080
    assert px[-1] == 2880 * 2720


def test_headset_catalog_weights_sum_to_one():
    headsets, weights = default_headsets()
    assert len(headsets) == len(weights) == 22
    assert abs(sum(weights) - 1.0) < 1e-12
    for hs in headsets:
        px = [pixels(r) for r in hs.resolutions]
        assert all(b > a for a, b in zip(px, px[1:]))
        assert all(b > a for a, b in zip(hs.frame_rates, hs.frame_rates[1:]))


def test_generated_counts_and_tiers():
    sc = generate_synthetic(seed=1, n_users=30, n_bs=10, n_cns=13)
    assert len(sc.users) == 30
    assert len(sc.base_stations) == 10
    tiers = [c.tier for c in sc.compute_nodes]
    assert tiers.count("edge") == 10
    assert tiers.count("regional") == 2
    assert tiers.count("cloud") == 1
    # 30% of 56 PRBs are left for the VR slice
    assert sc.base_stations[0].usable_prbs == 16


def test_generation_is_deterministic():
    a = scenario_to_json(generate_synthetic(seed=42, n_users=25, n_bs=4, n_cns=5))
    b = scenario_to_json(generate_synthetic(seed=42, n_users=25, n_bs=4, n_cns=5))
    assert a == b
    c = scenario_to_json(generate_synthetic(seed=43, n_users=25, n_bs=4, n_cns=5))
    assert a != c


def test_users_always_in_coverage():
    sc = small_scenario()
    for u in sc.users:
        assert any(
            distance(u.position, b.position) <= b.coverage_radius_m for b in sc.base_stations
        )


def test_object_shares_normalized():
    sc = small_scenario()
    for u in sc.users:
        assert abs(sum(o.pixel_share for o in u.objects) - 1.0) < 1e-9
        assert abs(sum(o.attention for o in u.objects) - 1.0) < 1e-9


def test_config_round_trip_is_identity():
    sc = small_scenario()
    text = scenario_to_json(sc)
    sc2 = load_scenario(text)
    assert scenario_to_json(sc2) == text


def test_link_id_is_formatted_once():
    """The id is cached on first read; it is no field, so equality,
    hashing and the scenario codec ignore it."""
    sc = small_scenario()
    text = scenario_to_json(sc)
    link = sc.links[0]
    assert link.id is link.id == f"{link.src}->{link.dst}"
    assert link == Link(link.src, link.dst, link.capacity_bps, link.latency_s)
    assert hash(link) == hash(Link(link.src, link.dst, link.capacity_bps, link.latency_s))
    assert scenario_to_json(sc) == text


def test_load_rejects_bad_config():
    sc = small_scenario()
    import json

    cfg = json.loads(scenario_to_json(sc))
    cfg["users"][0]["headset"] = "nope"
    cfg["base_stations"][0]["usable_prbs"] = 0
    with pytest.raises(ScenarioError) as err:
        load_scenario(json.dumps(cfg))
    msgs = " ".join(err.value.violations)
    # both violations are reported, not just the first
    assert "unknown headset" in msgs
    assert "usable_prbs" in msgs


def test_load_rejects_non_json():
    with pytest.raises(ScenarioError):
        load_scenario("{not json")


def test_validate_flags_unsorted_headset_modes():
    sc = small_scenario()
    import json

    cfg = json.loads(scenario_to_json(sc))
    cfg["headsets"][0]["frame_rates"] = [90, 72]
    with pytest.raises(ScenarioError) as err:
        load_scenario(json.dumps(cfg))
    assert any("frame_rates" in v for v in err.value.violations)


def diamond_links():
    # cn0 - mid1 - bs9 and cn0 - mid2 - bs9, plus a slow direct edge
    mk = lambda a, b, lat: [
        Link(src=a, dst=b, capacity_bps=1e9, latency_s=lat),
        Link(src=b, dst=a, capacity_bps=1e9, latency_s=lat),
    ]
    links = []
    links += mk("cn0", "mid1", 1e-4)
    links += mk("cn0", "mid2", 1e-4)
    links += mk("mid1", "bs9", 2e-4)
    links += mk("mid2", "bs9", 3e-4)
    links += mk("cn0", "bs9", 9e-4)
    return tuple(links)


def test_enumerate_paths_orders_by_latency_then_nodes():
    paths = enumerate_paths(diamond_links(), "bs9", "cn0", 3)
    assert [p.latency_s for p in paths] == pytest.approx([3e-4, 4e-4, 9e-4])
    assert paths[0].nodes == ("cn0", "mid1", "bs9")
    assert paths[1].nodes == ("cn0", "mid2", "bs9")
    assert paths[2].nodes == ("cn0", "bs9")
    assert paths[0].id == "cn0->bs9#0"


def _left_to_right(latencies) -> float:
    total = 0.0
    for lat in latencies:
        total += lat
    return total


# Latencies that tie exactly (equal values) and only up to rounding
# (0.1 + 0.2 and 0.3, 0.1 + 0.2 + 0.3 and 0.6), zero included.
_TIED_LATENCIES = st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.6))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    names=st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=7, unique=True),
)
def test_enumerate_paths_matches_exhaustive_enumeration(data, names):
    """Every route of a small digraph, against sorting all its simple paths."""
    pairs = [(a, b) for a in names for b in names if a != b]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    links = [
        Link(src=a, dst=b, capacity_bps=1e9, latency_s=data.draw(_TIED_LATENCIES))
        for a, b in chosen
    ]
    links = data.draw(st.permutations(links))  # the input order must not matter
    src, dst = names[0], names[-1]
    latency = {(ln.src, ln.dst): ln.latency_s for ln in links}
    expected = []
    inner = names[1:-1]
    for n in range(len(inner) + 1):
        for mid in itertools.permutations(inner, n):
            seq = (src, *mid, dst)
            hops = list(zip(seq, seq[1:]))
            if all(h in latency for h in hops):
                expected.append((_left_to_right(latency[h] for h in hops), seq))
    expected.sort()
    k = data.draw(st.integers(min_value=1, max_value=len(expected) + 1))
    paths = enumerate_paths(links, dst, src, k)
    assert [(p.latency_s, p.nodes) for p in paths] == expected[:k]
    for p in paths:
        assert [(ln.src, ln.dst) for ln in p.links] == list(zip(p.nodes, p.nodes[1:]))


def test_routes_on_an_80_cell_ring_are_the_shortest():
    """The generator's 80-cell, 90-node crosshaul, against networkx."""
    nx = pytest.importorskip("networkx")
    links = []

    def pair(a, b, lat):
        links.extend(Link(src=s, dst=d, capacity_bps=1e10, latency_s=lat)
                     for s, d in ((a, b), (b, a)))

    for i in range(80):
        pair(f"cn{i}", f"cn{(i + 1) % 80}", 2e-4)
        pair(f"cn{i}", f"bs{i}", 5e-5)
    for j in range(9):  # regional nodes cn80..cn88 on two opposite ring anchors
        anchor = j * 80 // 9
        pair(f"cn{80 + j}", f"cn{anchor}", 5e-4)
        pair(f"cn{80 + j}", f"cn{(anchor + 40) % 80}", 5e-4)
        pair("cn89", f"cn{80 + j}", 1e-3)  # the cloud node
    graph = nx.DiGraph()
    graph.add_weighted_edges_from(((ln.src, ln.dst, ln.latency_s) for ln in links), "lat")
    for cn, bs in (("cn0", "bs79"), ("cn20", "bs79"), ("cn85", "bs79"), ("cn89", "bs40")):
        paths = enumerate_paths(links, bs, cn, 3)
        ref = itertools.islice(nx.shortest_simple_paths(graph, cn, bs, weight="lat"), 3)
        ref_lat = [nx.path_weight(graph, seq, "lat") for seq in ref]
        assert [p.latency_s for p in paths] == pytest.approx(ref_lat, rel=1e-12)


def test_routes_on_a_uniform_grid_come_fast_and_in_node_order():
    """A 20 x 20 grid of equal links: every shortest route ties on latency."""
    n = 20

    def node(r, c):
        return f"g{r * n + c:03d}"

    links = [
        Link(src=a, dst=b, capacity_bps=1e9, latency_s=1e-4)
        for r in range(n) for c in range(n)
        for r2, c2 in ((r, c + 1), (r + 1, c)) if r2 < n and c2 < n
        for a, b in ((node(r, c), node(r2, c2)), (node(r2, c2), node(r, c)))
    ]
    start = time.perf_counter()
    paths = enumerate_paths(links, node(n - 1, n - 1), node(0, 0), 5)
    assert time.perf_counter() - start < 10.0
    assert [p.latency_s for p in paths] == [_left_to_right([1e-4] * (2 * n - 2))] * 5
    assert [p.nodes for p in paths] == sorted(p.nodes for p in paths)
    # the least node sequence runs along the first row, then down the last column
    assert paths[0].nodes == tuple(node(0, c) for c in range(n)) + tuple(
        node(r, n - 1) for r in range(1, n)
    )


def test_enumerate_paths_respects_k():
    assert len(enumerate_paths(diamond_links(), "bs9", "cn0", 2)) == 2
    assert len(enumerate_paths(diamond_links(), "bs9", "cn0", 10)) == 3


def test_hop_distance_on_ring():
    sc = generate_synthetic(seed=3, n_users=5, n_bs=6, n_cns=6)
    assert sc.hop_distance("cn0", "cn0") == 0
    assert sc.hop_distance("cn0", "cn1") == 1
    # 6-node ring: opposite nodes are 3 hops apart
    assert sc.hop_distance("cn0", "cn3") == 3
    assert sc.hop_distance("cn0", "cn5") == 1


def test_mobility_step_is_deterministic_and_keeps_coverage():
    sc = small_scenario()
    a = step_positions(sc, 4)
    b = step_positions(sc, 4)
    assert scenario_to_json(a) == scenario_to_json(b)
    assert validate_scenario(a) == []
    # stationary users never move
    for before, after in zip(sc.users, a.users):
        if before.speed_mps == 0:
            assert after.position == before.position


def test_mobility_steps_differ():
    sc = small_scenario()
    a = step_positions(sc, 0)
    b = step_positions(sc, 1)
    movers = [u.id for u in sc.users if u.speed_mps > 0]
    assert movers, "scenario should contain moving users"
    assert scenario_to_json(a) != scenario_to_json(b)


def test_hop_counts_outlive_a_mobility_step(monkeypatch):
    """Links do not move, so no node pair is searched twice in a run."""
    sc = generate_synthetic(seed=42, n_users=60, n_bs=4, n_cns=6,
                            overrides={"migration_unit_cost": 5.0})
    searched = []
    search = scenario._best_route

    def counted(adj, root, target, weight):
        searched.append((root[1], target))
        return search(adj, root, target, weight)

    monkeypatch.setattr(scenario, "_best_route", counted)
    run_experiment(sc, ["gepar"], timesteps=3)
    assert searched and len(searched) == len(set(searched))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_users=st.integers(min_value=1, max_value=20),
    n_bs=st.integers(min_value=1, max_value=5),
    n_cns=st.integers(min_value=1, max_value=7),
)
def test_generated_scenarios_always_validate(seed, n_users, n_bs, n_cns):
    sc = generate_synthetic(seed=seed, n_users=n_users, n_bs=n_bs, n_cns=n_cns)
    assert validate_scenario(sc) == []
    # every BS can reach its nearest CN
    for b in sc.base_stations:
        assert sc.paths(b.id, b.nearest_cn)


def test_rejects_nonpositive_sizes():
    with pytest.raises(ValueError):
        generate_synthetic(seed=0, n_users=0, n_bs=1, n_cns=1)
    with pytest.raises(ValueError):
        generate_synthetic(seed=0, n_users=1, n_bs=0, n_cns=1)


def test_unknown_override_rejected():
    with pytest.raises(ValueError, match="unknown overrides"):
        generate_synthetic(seed=0, n_users=1, n_bs=1, n_cns=1, overrides={"typo_key": 1})
