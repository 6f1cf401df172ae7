"""Hand-built scenario configs for targeted solver tests."""
import json

from hypothesis import strategies as st

from vrcgsim.scenario import generate_synthetic, load_scenario, scenario_to_json

BIG = 1e15  # effectively unconstrained capacity


def make_scenario(
    *,
    users,
    base_stations,
    compute_nodes=None,
    links=None,
    headsets=None,
    games=None,
    radio=None,
    seed=0,
    area=(4000.0, 4000.0),
):
    """Assemble a scenario from terse dict fragments.

    Every fragment only needs the fields the test cares about; the rest
    default to values that keep the corresponding constraint slack.
    """
    headsets = headsets or [
        {"id": "h", "resolutions": [[960, 1080], [1080, 1200]], "frame_rates": [72, 90]}
    ]
    games = games or [
        {"id": "gq", "preference_mode": "quality"},
        {"id": "gp", "preference_mode": "performance"},
    ]
    if compute_nodes is None:
        compute_nodes = [{"id": "cn0", "position": list(base_stations[0]["position"])}]
    if links is None:
        links = []
        for b in base_stations:
            links.append({"src": "cn0", "dst": b["id"], "capacity_bps": 10e9, "latency_s": 5e-5})
            links.append({"src": b["id"], "dst": "cn0", "capacity_bps": 10e9, "latency_s": 5e-5})

    cfg = {
        "seed": seed,
        "area_m": list(area),
        "radio": radio or {},
        "base_stations": [
            {
                "total_prbs": 56,
                "usable_prbs": 16,
                "prb_bandwidth_hz": 360e3,
                "tx_power_dbm": 33.0,
                "processing_capacity_bps": 1e9,
                "frame_capacity_fps": 1e5,
                "coverage_radius_m": 4000.0,
                "nearest_cn": "cn0",
                **({"channel_id": i} | b),
            }
            for i, b in enumerate(base_stations)
        ],
        "compute_nodes": [
            {
                "tier": "edge",
                "gpu_cap": BIG,
                "cpu_cap": BIG,
                "ram_cap": BIG,
                "net_cap": BIG,
                "render_speed_pps": BIG,
                "fixed_cost": 100.0,
                "unit_costs": {"gpu": 2e-8, "cpu": 1e-2, "ram": 1e-6, "net": 5e-8},
                **c,
            }
            for c in compute_nodes
        ],
        "links": links,
        "headsets": headsets,
        "games": games,
        "users": [
            {
                "height_m": 1.5,
                "headset": headsets[0]["id"],
                "game": games[0]["id"],
                "frame_arrival_rate": 72.0,
                "speed_mps": 0.0,
                "heading_rad": 0.0,
                "objects": [
                    {"id": "o0", "pixel_share": 0.6, "attention": 0.7},
                    {"id": "o1", "pixel_share": 0.4, "attention": 0.3},
                ],
                **u,
            }
            for u in users
        ],
    }
    return load_scenario(json.dumps(cfg))


def tiny_scenario(seed, n_users=3, n_bs=2, n_cns=2, **over):
    """Seeded instance small enough for the exhaustive solvers."""
    catalog = [
        {"id": "t0", "weight": 0.5, "frame_rates": [72, 90],
         "resolutions": [[960, 1080], [1080, 1200], [1280, 1440]]},
        {"id": "t1", "weight": 0.5, "frame_rates": [72, 90],
         "resolutions": [[960, 1080], [1080, 1200]]},
    ]
    overrides = {
        "ttis_per_window": 24,
        "usable_prbs": 8,
        "headset_catalog": catalog,
        "objects_per_user": 2,
    } | over
    return generate_synthetic(seed, n_users, n_bs, n_cns,
                              area_m=(600.0, 600.0), overrides=overrides)


def mobility_scenario():
    """250 users on the paper city, set up so relocation is a real choice."""
    # remote tiers tight enough that rerouting matters, activation fees
    # low enough that placements spread across tiers instead of piling
    # onto one node; relocation then only happens when a solver picks it
    over = {"regional_cap_bps": 6e8, "cloud_cap_bps": 8e8,
            "migration_unit_cost": 5.0}
    sc = generate_synthetic(seed=42, n_users=250, n_bs=10, n_cns=13,
                            overrides=over)
    cfg = json.loads(scenario_to_json(sc))
    fees = {"edge": 10.0, "regional": 8.0, "cloud": 6.0}
    for cn in cfg["compute_nodes"]:
        cn["fixed_cost"] = fees[cn["tier"]]
    return load_scenario(json.dumps(cfg))


def split_scenario():
    """One direct link too small for the stream, a longer detour with room."""
    return make_scenario(
        users=[{"id": "u0", "position": [1008.0, 1000.0], "game": "gq"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0]}],
        compute_nodes=[
            {"id": "cn0", "position": [1000.0, 1000.0]},
            {"id": "cn1", "position": [2000.0, 1000.0], "tier": "regional",
             "fixed_cost": 1e9},
        ],
        links=[
            {"src": "cn0", "dst": "bs0", "capacity_bps": 12e6, "latency_s": 5e-5},
            {"src": "bs0", "dst": "cn0", "capacity_bps": 12e6, "latency_s": 5e-5},
            {"src": "cn0", "dst": "cn1", "capacity_bps": 40e9, "latency_s": 5e-4},
            {"src": "cn1", "dst": "cn0", "capacity_bps": 40e9, "latency_s": 5e-4},
            {"src": "cn1", "dst": "bs0", "capacity_bps": 40e9, "latency_s": 5e-4},
            {"src": "bs0", "dst": "cn1", "capacity_bps": 40e9, "latency_s": 5e-4},
        ],
    )


def crowded_city(seed, n_users, n_bs, side, **overrides):
    return generate_synthetic(seed=seed, n_users=n_users, n_bs=n_bs, n_cns=3,
                              area_m=(side, side), overrides=overrides)


# small cities where cells fill up, users are displaced and split across cells
crowded_cities = st.builds(
    crowded_city,
    seed=st.integers(0, 10_000),
    n_users=st.integers(20, 300),
    n_bs=st.integers(1, 4),
    side=st.sampled_from([400.0, 800.0]),
    usable_prbs=st.integers(1, 3),
    ttis_per_window=st.sampled_from([20, 200, 2000]),
    deadline_s=st.sampled_from([None, 0.05]),
    max_connections=st.integers(1, 3),
)
