"""The scenario schema: strict loading, field rules and bad-config handling.

Every bad config must end in ScenarioError (exit 2 from the CLI) with a
message naming the object and the field; anything the loader accepts must
run through the pipeline with every verifier clean.
"""
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrcgsim import scenario
from vrcgsim.cli import main
from vrcgsim.metrics import run_experiment
from vrcgsim.scenario import ScenarioError, generate_synthetic, load_scenario, scenario_to_json

PIPELINE = ["vexa", "gepar", "amps", "mtpsched"]


@pytest.fixture(scope="module")
def probe_config():
    """What `vrcgsim generate --users 20` writes."""
    return json.loads(scenario_to_json(generate_synthetic(0, 20, 4, 6)))


def _set(*path_and_value):
    *path, value = path_and_value

    def mutate(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


def _duplicate_first_link(cfg):
    cfg["links"].append(dict(cfg["links"][0]))


# (mutation, what the message must say)
PROBES = {
    "frame_capacity_fps=0": (_set("base_stations", 0, "frame_capacity_fps", 0),
                             "bs bs0: frame_capacity_fps"),
    "ttis_per_window='2000'": (_set("radio", "ttis_per_window", "2000"),
                               "radio: ttis_per_window"),
    "link capacity NaN": (_set("links", 0, "capacity_bps", math.nan),
                          "link cn0->cn1: capacity_bps"),
    "processing_capacity_bps<0": (_set("base_stations", 0, "processing_capacity_bps", -1e9),
                                  "bs bs0: processing_capacity_bps"),
    "fixed_cost<0": (_set("compute_nodes", 0, "fixed_cost", -100.0), "cn cn0: fixed_cost"),
    "deadline_s<0": (_set("radio", "deadline_s", -0.01), "radio: deadline_s"),
    "bits_per_pixel=0": (_set("radio", "bits_per_pixel", 0), "radio: bits_per_pixel"),
    "speed_mps=inf": (_set("users", 0, "speed_mps", math.inf), "user u0: speed_mps"),
    "duplicate link": (_duplicate_first_link, "link cn0->cn1: duplicate id"),
    "tx_power_dbm NaN": (_set("base_stations", 0, "tx_power_dbm", math.nan),
                         "bs bs0: tx_power_dbm"),
    "user position NaN": (_set("users", 0, "position", 0, math.nan),
                          "user u0: position must be finite"),
    "coverage_radius_m NaN": (_set("base_stations", 0, "coverage_radius_m", math.nan),
                              "bs bs0: coverage_radius_m"),
}


@pytest.mark.parametrize("case", sorted(PROBES))
def test_probe_config_exits_2_naming_object_and_field(case, probe_config, tmp_path, capsys):
    mutate, expected = PROBES[case]
    cfg = json.loads(json.dumps(probe_config))
    mutate(cfg)
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--methods", ",".join(PIPELINE)]) == 2
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"frame_capacity_fps": 0}, {"bits_per_pixel": math.nan}, {"k_paths": 0},
])
def test_bad_overrides_raise_scenario_error(overrides):
    with pytest.raises(ScenarioError) as err:
        generate_synthetic(seed=0, n_users=5, n_bs=2, n_cns=3, overrides=overrides)
    assert any(next(iter(overrides)) in v for v in err.value.violations)


def test_load_types_are_strict(probe_config):
    cfg = json.loads(json.dumps(probe_config))
    cfg["base_stations"][0]["total_prbs"] = 56.0  # an int field takes only an int
    cfg["base_stations"][1]["tx_power_dbm"] = True  # a bool is no number
    cfg["users"][0]["game"] = 3
    cfg["users"][1]["position"] = [1.0, 2.0, 3.0]
    with pytest.raises(ScenarioError) as err:
        load_scenario(json.dumps(cfg))
    assert sorted(err.value.violations) == [
        "bs bs0: total_prbs must be an integer, got 56.0",
        "bs bs1: tx_power_dbm must be a number, got True",
        "user u0: game must be a string, got 3",
        "user u1: position must be a list of 2, got [1.0, 2.0, 3.0]",
    ]


def test_load_takes_an_int_for_a_float_and_fills_defaults(probe_config):
    cfg = json.loads(json.dumps(probe_config))
    cfg["base_stations"][0]["tx_power_dbm"] = 33
    cfg["radio"] = {}
    for key in ("height_m", "speed_mps", "heading_rad", "objects"):
        del cfg["users"][0][key]
    sc = load_scenario(json.dumps(cfg))
    assert type(sc.base_stations[0].tx_power_dbm) is float
    assert sc.radio == scenario.RadioParams()
    u = sc.users[0]
    assert (u.height_m, u.speed_mps, u.heading_rad, u.objects) == (1.5, 0.0, 0.0, ())


def test_load_reports_unknown_and_missing_keys(probe_config):
    cfg = json.loads(json.dumps(probe_config))
    cfg["users"][2]["hieght_m"] = 1.5
    del cfg["compute_nodes"][1]["unit_costs"]["ram"]
    del cfg["seed"]
    with pytest.raises(ScenarioError) as err:
        load_scenario(json.dumps(cfg))
    assert sorted(err.value.violations) == [
        "cn cn1 unit_costs: missing key ram",
        "missing key seed",
        "user u2: unknown key 'hieght_m'",
    ]


def test_routes_are_enumerated_only_for_a_valid_config(probe_config, monkeypatch):
    calls = []
    real = scenario.enumerate_paths
    monkeypatch.setattr(scenario, "enumerate_paths", lambda *a: calls.append(a) or real(*a))
    cfg = json.loads(json.dumps(probe_config))
    cfg["links"][0]["latency_s"] = -1.0
    with pytest.raises(ScenarioError):
        load_scenario(json.dumps(cfg))
    assert calls == []
    load_scenario(json.dumps(probe_config))
    assert len(calls) == 4 * 6


def _leaves(node, path):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))
    else:
        yield path


FUZZ_CONFIGS = [
    scenario_to_json(generate_synthetic(seed, 10, 3, 4)) for seed in range(3)
]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_bad_field_is_rejected_or_runs_clean(data):
    cfg = json.loads(data.draw(st.sampled_from(FUZZ_CONFIGS), label="config"))
    how = data.draw(st.sampled_from(
        ["nan", "inf", "-inf", "zero", "negative", "string", "bool", "duplicate id"]), label="how")
    if how == "duplicate id":
        section = data.draw(st.sampled_from(["users", "base_stations", "compute_nodes", "links"]))
        items = cfg[section]
        i, j = data.draw(st.lists(st.integers(0, len(items) - 1), min_size=2, max_size=2,
                                  unique=True), label="entries")
        keys = ("src", "dst") if section == "links" else ("id",)
        for key in keys:
            items[j][key] = items[i][key]
        field = "duplicate id"
    else:
        section = data.draw(st.sampled_from(sorted(cfg)), label="section")
        path = data.draw(st.sampled_from(list(_leaves(cfg[section], (section,)))), label="path")
        node = cfg
        for key in path[:-1]:
            node = node[key]
        old = node[path[-1]]
        node[path[-1]] = {
            "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0,
            "negative": -abs(old) if type(old) in (int, float) and old else -1,
            "string": "7", "bool": True,
        }[how]
        field = next(k for k in reversed(path) if isinstance(k, str))
    try:
        sc = load_scenario(json.dumps(cfg))
    except ScenarioError as e:
        if field != "id":  # a renamed id shows up where it is referred to
            assert any(field in v for v in e.violations), e.violations
        return
    run_experiment(sc, PIPELINE)  # raises ExperimentAbort if a verifier finds anything
