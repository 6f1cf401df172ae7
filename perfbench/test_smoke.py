"""Smoke tests of the benchmark on shrunk workloads.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs for about a second at a tiny shape, untraced and
traced, and must emit exactly the metrics BENCHMARK.json names.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from tracing import categories, labels, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(cwd, workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace, kind):
    proc = _run(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"], proc.stderr
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC[kind]}
    for m in SPEC[kind]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    for name in out["metrics"]:
        assert f"{workload} {name} " in proc.stderr


def test_workloads_match_benchmark_json():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "paper-city", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children_and_folds_baseline_bodies():
    spans = [
        ["metrics.run_experiment", 0.0, 10.0, -1],
        ["stage1.baseline_single_association", 1.0, 5.0, 0],
        ["stage1.vexa", 1.5, 4.5, 1],
        ["stage1.maximize_qoe", 2.0, 3.0, 2],
        ["stage1.verify_stage1", 5.0, 7.0, 0],
        ["radio.link_tables", 5.5, 6.0, 4],
    ]
    names = labels(spans)
    assert names[2] == "stage1.baseline_single_association"
    assert self_times(spans) == [4.0, 1.0, 2.0, 1.0, 1.5, 0.5]
    assert categories(spans, names) == [None, "solve", "solve", "solve", "check", "check"]
