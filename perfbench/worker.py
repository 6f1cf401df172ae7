"""One workload in one process: set up, step for a fixed time, check.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS SETUPS TRACED TINY

Prints one JSON object with the raw measurements; perfbench/run.py turns
them into metrics. The steps are timed at their boundaries by a hook on
`metrics.step_positions`, the one call `run_experiment` makes between two
timesteps; with TRACED=1 every public function of the library is wrapped
as well (see tracing.py).
"""
from __future__ import annotations

import bisect
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, categories, labels, self_times
from workloads import WORKLOADS, build_scenario, scenario_seed, tiny

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# (metric, span name, phase, what); set-up metrics are per scenario set up,
# the others per timestep run
LAYER_METRICS = (
    ("scenario.generate_s", "scenario.generate_synthetic", "setup", "self"),
    ("scenario.enumerate_paths_s", "scenario.enumerate_paths", "setup", "self"),
    ("scenario.enumerate_paths_calls", "scenario.enumerate_paths", "setup", "calls"),
    ("scenario.load_s", "scenario.load_scenario", "setup", "self"),
    ("scenario.step_positions_s", "scenario.step_positions", "step", "self"),
    ("radio.link_tables_s", "radio.link_tables", "step", "self"),
    ("radio.link_tables_calls_per_step", "radio.link_tables", "step", "calls"),
    ("stage1.vexa_s", "stage1.vexa", "step", "self"),
    ("stage1.maximize_qoe_s", "stage1.maximize_qoe", "step", "self"),
    ("stage1.sa_s", "stage1.baseline_single_association", "step", "self"),
    ("stage1.dc_s", "stage1.baseline_dual_connectivity", "step", "self"),
    ("stage1.verify_s", "stage1.verify_stage1", "step", "self"),
    ("stage2.gepar_s", "stage2.gepar", "step", "self"),
    ("stage2.single_path_s", "stage2.baseline_single_path", "step", "self"),
    ("stage2.unconstrained_s", "stage2.baseline_unconstrained", "step", "self"),
    ("stage2.stage1_columns_s", "stage2.stage1_columns", "step", "self"),
    ("stage2.stage1_columns_calls_per_step", "stage2.stage1_columns", "step", "calls"),
    ("stage2.verify_s", "stage2.verify_stage2", "step", "self"),
    ("stage2.total_cost_s", "stage2.total_cost", "step", "self"),
    ("stage3.amps_s", "stage3.amps", "step", "self"),
    ("stage3.mtpsched_s", "stage3.mtpsched", "step", "self"),
    ("stage3.mtpsched_calls_per_step", "stage3.mtpsched", "step", "calls"),
    ("stage3.mtp_latency_s", "stage3.mtp_latency", "step", "self"),
    ("stage3.mtp_latency_calls_per_step", "stage3.mtp_latency", "step", "calls"),
    ("stage3.verify_s", "stage3.verify_stage3", "step", "self"),
    ("metrics.loop_self_s", "metrics.run_experiment", "step", "self"),
    ("metrics.emit_s", "metrics.emit", "step", "self"),
)


class Deadline(Exception):
    """Raised at a step boundary once the run's time is up."""


class StepClock:
    """Step boundaries, taken where run_experiment moves its users."""

    def __init__(self):
        self.marks: list[float] = []
        self.deadline = math.inf

    def hook(self, step_positions):
        def timed_step_positions(*args, **kwargs):
            now = time.perf_counter()
            self.marks.append(now)
            if now >= self.deadline:
                raise Deadline
            return step_positions(*args, **kwargs)

        return timed_step_positions


def _rows(reports, method):
    return [r.methods[method] for r in reports if method in r.methods]


def _mean(reports, method, field, scale=1.0):
    vals = [getattr(row, field) for row in _rows(reports, method)]
    vals = [v for v in vals if v is not None]
    return statistics.fmean(vals) * scale if vals else 0.0


def _sum(reports, method, field):
    return float(sum(getattr(row, field) or 0.0 for row in _rows(reports, method)))


def quality(reports, users: int) -> dict[str, float]:
    """Solution quality of one chain of timesteps; 0 where a method is absent."""
    methods = reports[0].methods if reports else {}
    head = "amps" if "amps" in methods else "vexa"
    served = [
        users - sum(r.methods[m].unadmitted_count for m in ("vexa", "gepar")
                    if m in r.methods)
        for r in reports
    ]
    return {
        "served_frac": statistics.fmean(served) / users if served else 0.0,
        "qoe_avg": _mean(reports, head, "avg_qoe"),
        "unadmitted_frac": _mean(reports, "vexa", "unadmitted_count", 1 / users),
        "cost_mean": _mean(reports, "gepar", "total_cost"),
        "migration_cost_sum": _sum(reports, "gepar", "migration_cost"),
        "mtp_avg_ms": _mean(reports, "mtpsched", "avg_mtp_s", 1e3),
        "stage1.sa.unadmitted_frac": _mean(reports, "sa", "unadmitted_count", 1 / users),
        "stage1.dc.unadmitted_frac": _mean(reports, "dc", "unadmitted_count", 1 / users),
        "stage2.unplaced_frac": _mean(reports, "gepar", "unadmitted_count", 1 / users),
        "stage2.single_path.migration_cost_sum":
            _sum(reports, "single_path", "migration_cost"),
        "stage2.unconstrained.migration_cost_sum":
            _sum(reports, "unconstrained", "migration_cost"),
    }


def check_reports(reports, methods, steps: int, users: int) -> list[str]:
    """Problems in one finished chain's reported numbers (empty when sound)."""
    problems = []
    if [r.timestep for r in reports] != list(range(steps)):
        problems.append(f"timesteps {[r.timestep for r in reports]}")
    for r in reports:
        if list(r.methods) != list(methods):
            problems.append(f"step {r.timestep}: rows {list(r.methods)}")
            continue
        for m, row in r.methods.items():
            where = f"step {r.timestep} {m}"
            for field, v in vars(row).items():
                if v is not None and not math.isfinite(v):
                    problems.append(f"{where}: {field}={v}")
            if row.unadmitted_count is not None and not 0 <= row.unadmitted_count <= users:
                problems.append(f"{where}: unadmitted_count={row.unadmitted_count}")
            for field in ("jain_index", "prb_usage_fraction"):
                v = getattr(row, field)
                if v is not None and not 0.0 <= v <= 1.0 + 1e-9:
                    problems.append(f"{where}: {field}={v}")
            if row.total_cost is not None:
                parts = row.fixed_cost + row.variable_cost + row.migration_cost
                if not math.isclose(row.total_cost, parts, rel_tol=1e-9, abs_tol=1e-9):
                    problems.append(f"{where}: total_cost {row.total_cost} != {parts}")
            if row.avg_mtp_s is not None and not row.avg_mtp_s > 0.0:
                problems.append(f"{where}: avg_mtp_s={row.avg_mtp_s}")
    return problems


def layer_metrics(spans, begin: float, setups: int, steps_run: int) -> dict[str, float]:
    """Per-layer self times and call counts from the traced run's spans."""
    names = labels(spans)
    selfs = self_times(spans)
    cats = categories(spans, names)
    total: dict[tuple, float] = {}
    by_cat = {"solve": 0.0, "check": 0.0}
    for rec, name, s, cat in zip(spans, names, selfs, cats):
        phase = "setup" if rec[1] < begin else "step"
        total[name, phase, "self"] = total.get((name, phase, "self"), 0.0) + s
        total[name, phase, "calls"] = total.get((name, phase, "calls"), 0) + 1
        if cat and phase == "step":
            by_cat[cat] += s
    per = {"setup": max(setups, 1), "step": max(steps_run, 1)}
    out = {
        metric: total.get((name, phase, what), 0) / per[phase]
        for metric, name, phase, what in LAYER_METRICS
    }
    out["metrics.check_to_solve_ratio"] = (
        by_cat["check"] / by_cat["solve"] if by_cat["solve"] else 0.0)
    return out


def run(vrc, w, seed: int, seconds: float, setups: int, traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(vrc)
    metrics = vrc.metrics
    clock = StepClock()
    metrics.step_positions = clock.hook(metrics.step_positions)
    stage1_of_steps = []  # (snapshot, vexa solution) of the first chain
    if traced:
        solve_stage1 = metrics.vexa

        def kept_vexa(sc, *args, **kwargs):
            sol = solve_stage1(sc, *args, **kwargs)
            if len(stage1_of_steps) < w.steps:
                stage1_of_steps.append((sc, sol))
            return sol

        metrics.vexa = kept_vexa

    setup_s, scenarios = [], []
    for k in range(setups):
        t0 = time.perf_counter()
        scenarios.append(build_scenario(vrc, w, scenario_seed(seed, k)))
        setup_s.append(time.perf_counter() - t0)
    users = len(scenarios[0].users)

    step_s, step_starts, problems, digests = [], [], [], {}
    attempted = failed = failures = 0
    first_reports = None
    busy = 0.0
    begin = time.perf_counter()
    i = 0
    while True:
        k = i % setups
        clock.marks = []
        reports = failed_at = None
        start = time.perf_counter()
        try:
            reports = metrics.run_experiment(scenarios[k], w.methods, timesteps=w.steps)
            clock.marks.append(time.perf_counter())
        except Deadline:
            pass
        except (vrc.ExperimentAbort, ValueError) as exc:
            # the failed step and the rest of its chain count as failed
            failed_at = time.perf_counter()
            print(f"step {len(clock.marks)} of chain {i} failed: {exc}", file=sys.stderr)
            if isinstance(exc, vrc.ExperimentAbort):
                problems.append(str(exc))
                if i == 0:
                    first_reports = exc.reports
            failed += w.steps - len(clock.marks)
            attempted += w.steps - len(clock.marks)
            failures += 1
        bounds = [start] + clock.marks
        step_starts += bounds[:-1]
        step_s += [b - a for a, b in zip(bounds, bounds[1:])]
        attempted += len(clock.marks)
        busy += (failed_at or bounds[-1]) - start
        if reports is not None:
            problems += check_reports(reports, w.methods, w.steps, users)
            digest = hashlib.sha256(metrics.emit(reports).encode()).hexdigest()
            if digests.setdefault(k, digest) != digest:
                problems.append(f"scenario {k} emitted different reports on a rerun")
            if i == 0:
                first_reports = reports
        if i == 0:
            clock.deadline = begin + seconds
        i += 1
        if time.perf_counter() >= begin + seconds:
            break

    result = {
        "users": users,
        "setup_s": setup_s,
        "step_s": step_s,
        "busy_s": busy,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digests.get(0),
        "quality": quality(first_reports or [], users),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        mtpsched = tracer.originals["stage3.mtpsched"]
        ok = 0
        for sc, sol in stage1_of_steps:
            try:
                mtpsched(sc, sol)
                ok += 1
            except ValueError:
                pass
        layers = layer_metrics(tracer.spans, begin, setups, len(step_s) + failures)
        layers["stage3.schedulable_frac"] = (
            ok / len(stage1_of_steps) if stage1_of_steps else 0.0)
        result["layers"] = layers
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans = [
            [name, start, end, parent, bisect.bisect_right(step_starts, start) - 1]
            for name, start, end, parent in tracer.spans
        ]
        path = OUT_DIR / f"spans-{w.name}-{seed}.json"
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "step"],
                                    "spans": spans}))
    return result


def main(argv) -> int:
    name, seed, seconds, setups, traced, tiny_shape = argv
    sys.path.insert(0, str(ROOT / "src"))
    import vrcgsim

    w = WORKLOADS[name]
    if tiny_shape == "1":
        w = tiny(w)
    result = run(vrcgsim, w, int(seed), float(seconds), int(setups), traced == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
