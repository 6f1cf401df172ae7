import json

import pytest

from helpers import tiny_scenario
from vrcgsim.metrics import (
    CSV_COLUMNS,
    ExperimentAbort,
    MethodMetrics,
    MetricsReport,
    doc_to_solutions,
    emit,
    jain_index,
    run_experiment,
    solutions_to_doc,
    verify_document,
)
from vrcgsim.scenario import generate_synthetic
from vrcgsim.stage1 import qoe_stage1, vexa
from vrcgsim.stage3 import amps, total_qoe_stage3


PIPELINE = ["vexa", "sa", "dc", "gepar", "single_path", "unconstrained",
            "amps", "mtpsched", "rr", "pf"]


def test_jain_reference_points():
    assert jain_index([1, 1, 1, 1]) == pytest.approx(1.0)
    assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_index([3, 3]) == pytest.approx(jain_index([300, 300]))
    assert jain_index([2, 1]) == pytest.approx(jain_index([20, 10]))
    assert jain_index([0, 0, 0]) == 1.0
    assert jain_index([]) == 1.0
    with pytest.raises(ValueError):
        jain_index([1, -1])


def test_single_timestep_report_fields():
    sc = generate_synthetic(seed=4, n_users=25, n_bs=3, n_cns=4)
    reports = run_experiment(sc, PIPELINE, timesteps=1)
    assert len(reports) == 1
    rows = reports[0].methods
    assert list(rows) == PIPELINE

    s1 = vexa(sc)
    expected = sum(qoe_stage1(sc, s1, u) for u in s1.admitted)
    assert rows["vexa"].total_qoe == pytest.approx(expected)
    assert rows["vexa"].avg_qoe == pytest.approx(expected / 25)
    assert rows["vexa"].fixed_cost is None
    assert rows["vexa"].unadmitted_count == 25 - len(s1.admitted)

    assert rows["gepar"].total_cost == pytest.approx(
        rows["gepar"].fixed_cost
        + rows["gepar"].variable_cost
        + rows["gepar"].migration_cost
    )
    assert rows["gepar"].total_qoe is None

    # the refinement never loses scene quality against the uniform start
    assert rows["amps"].total_qoe >= rows["vexa"].total_qoe - 1e-9
    assert rows["amps"].avg_mtp_s > 0
    assert rows["rr"].prb_usage_fraction == pytest.approx(1.0)
    assert rows["mtpsched"].prb_usage_fraction <= rows["rr"].prb_usage_fraction


def test_unknown_method_and_bad_timesteps():
    sc = tiny_scenario(seed=1)
    with pytest.raises(ValueError, match="unknown methods"):
        run_experiment(sc, ["vexa", "nope"])
    with pytest.raises(ValueError, match="timesteps"):
        run_experiment(sc, ["vexa"], timesteps=0)


def test_migration_costs_chain_across_steps():
    sc = generate_synthetic(seed=12, n_users=40, n_bs=4, n_cns=5)
    reports = run_experiment(sc, ["gepar"], timesteps=4)
    assert [r.timestep for r in reports] == [0, 1, 2, 3]
    # the first step has no predecessor, so nothing can migrate
    assert reports[0].methods["gepar"].migration_cost == 0.0
    for r in reports:
        assert r.methods["gepar"].migration_cost >= 0.0


def test_experiment_is_deterministic():
    sc = generate_synthetic(seed=9, n_users=20, n_bs=3, n_cns=4)
    a = emit(run_experiment(sc, PIPELINE, timesteps=2), "csv")
    b = emit(run_experiment(sc, PIPELINE, timesteps=2), "csv")
    assert a == b


@pytest.mark.parametrize("method, verifier", [
    ("vexa", "verify_stage1"),
    ("gepar", "verify_stage2"),
    ("amps", "verify_stage3"),
])
def test_abort_carries_partial_reports(monkeypatch, method, verifier):
    import vrcgsim.metrics as metrics
    from vrcgsim.stage1 import Violation

    sc = generate_synthetic(seed=2, n_users=10, n_bs=2, n_cns=3)
    calls = {"n": 0}
    real = getattr(metrics, verifier)

    def flaky(*args):
        calls["n"] += 1
        if calls["n"] >= 2:
            return [Violation("capacity", "cn0", "cooked")]
        return real(*args)

    # the experiment loop must look verifiers up when it calls them
    monkeypatch.setattr(metrics, verifier, flaky)
    with pytest.raises(ExperimentAbort) as exc:
        run_experiment(sc, dict.fromkeys(["vexa", method]), timesteps=3)
    assert exc.value.timestep == 1
    assert exc.value.method == method
    assert len(exc.value.reports) == 1
    assert "cooked" in str(exc.value)


def test_emit_empty_and_single_row():
    assert emit([], "csv") == ",".join(CSV_COLUMNS) + "\n"
    report = MetricsReport(
        timestep=0,
        methods={"vexa": MethodMetrics(total_qoe=1.5, avg_qoe=0.75,
                                       jain_index=1.0, prb_usage_fraction=0.5,
                                       solve_time_s=0.123, unadmitted_count=0)},
    )
    text = emit([report], "csv")
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[1] == "0,vexa,1.5,0.75,1,,,,,,0.5,0,0"
    timed = emit([report], "csv", include_timing=True)
    assert timed.splitlines()[1].split(",")[11] == "0.123"


def test_emit_json_round_trip():
    sc = generate_synthetic(seed=3, n_users=12, n_bs=2, n_cns=3)
    reports = run_experiment(sc, ["vexa", "gepar", "amps"], timesteps=2)
    text = emit(reports, "json")
    doc = json.loads(text)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text
    assert [r["timestep"] for r in doc["reports"]] == [0, 1]
    row = doc["reports"][0]["methods"]["vexa"]
    assert row["total_qoe"] == pytest.approx(reports[0].methods["vexa"].total_qoe)
    assert row["fixed_cost"] is None
    with pytest.raises(ValueError, match="format"):
        emit(reports, "yaml")


def test_solution_documents_round_trip_and_verify():
    sc = generate_synthetic(seed=6, n_users=15, n_bs=3, n_cns=4)
    reports, sols = run_experiment(
        sc, ["vexa", "gepar", "amps", "rr"], timesteps=1, collect_solutions=True)
    doc = solutions_to_doc(sc, sols)
    # the document survives a json round trip
    doc = json.loads(json.dumps(doc))
    back = doc_to_solutions(doc)
    assert back["stage1"] == sols["stage1"]
    assert back["gepar"] == sols["gepar"]
    assert back["amps"] == sols["amps"]
    findings = verify_document(sc, doc)
    assert all(not v for v in findings.values())

    # schedules flatten to (bs, tti, user, prbs) rows
    quad = doc["solutions"]["amps"]["schedule"][0]
    assert len(quad) == 4
    bs, tti, user, prbs = quad
    assert sols["amps"].schedule[(bs, tti)] and prbs >= 1

    # cyclic schedulers are exempt, but a doctored spread schedule is not
    assert findings["rr"] == []
    bad = json.loads(json.dumps(solutions_to_doc(sc, sols)))
    bad["solutions"]["amps"]["schedule"] = bad["solutions"]["amps"]["schedule"][1:]
    assert any(verify_document(sc, bad)["amps"])


def test_oracle_rows_report_their_stage():
    sc = tiny_scenario(seed=5, n_users=3, n_bs=2, n_cns=2, max_connections=1)
    reports = run_experiment(
        sc, ["vexa", "oracle_stage1", "gepar", "oracle_stage2", "amps",
             "oracle_stage3"], timesteps=1)
    rows = reports[0].methods
    assert rows["oracle_stage1"].total_qoe >= rows["vexa"].total_qoe - 1e-9
    assert rows["oracle_stage2"].total_cost <= rows["gepar"].total_cost + 1e-9
    assert rows["oracle_stage3"].total_qoe >= rows["amps"].total_qoe - 1e-9
    s1 = vexa(sc)
    assert rows["amps"].total_qoe == pytest.approx(
        total_qoe_stage3(sc, s1, amps(sc, s1).object_resolution))
