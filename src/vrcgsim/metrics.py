"""Metric aggregation, the mobility experiment loop and result emission.

run_experiment re-solves the pipeline once per mobility step and records
one row of metrics per requested method. Rows only carry the quantities
a method actually produces: association solvers report QoE and grant
usage, placement solvers report money, schedulers report latency and PRB
usage. Solve times are measured around the solver call alone and are
zeroed during emission by default so equal runs emit equal bytes.
"""
from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace

from . import oracle as oracle_mod
from .scenario import Scenario, step_positions
from .stage1 import (
    Stage1Solution,
    Violation,
    at_cap,
    grant_pool,
    qoe_stage1,
    verify_stage1,
    vexa,
)
from .stage2 import (
    Stage2Solution,
    baseline_single_path,
    baseline_unconstrained,
    gepar,
    total_cost,
    verify_stage2,
)
from .stage3 import (
    Stage3Solution,
    amps,
    baseline_proportional_fair,
    baseline_round_robin,
    flat_schedule,
    mtp_latency,
    mtpsched,
    qoe_stage3,
    verify_stage3,
)

@dataclass(frozen=True)
class MethodMetrics:
    total_qoe: float | None = None
    avg_qoe: float | None = None
    jain_index: float | None = None
    fixed_cost: float | None = None
    variable_cost: float | None = None
    migration_cost: float | None = None
    total_cost: float | None = None
    avg_mtp_s: float | None = None
    prb_usage_fraction: float | None = None
    solve_time_s: float = 0.0
    unadmitted_count: int | None = None


@dataclass(frozen=True)
class MetricsReport:
    timestep: int
    methods: dict[str, MethodMetrics]


class ExperimentAbort(RuntimeError):
    """A solver produced output its own verifier rejects."""

    def __init__(self, timestep: int, method: str, violations: list[Violation],
                 reports: list[MetricsReport]):
        self.timestep = timestep
        self.method = method
        self.violations = violations
        self.reports = reports
        first = violations[0]
        kinds = Counter(v.kind for v in violations)
        super().__init__(
            f"{method} failed verification at timestep {timestep} "
            f"({len(violations)} violations: "
            f"{', '.join(f'{n} {kind}' for kind, n in kinds.items())}; "
            f"first: {first.kind} {first.subject}: {first.detail})"
        )


def jain_index(values) -> float:
    """Raj Jain's fairness index, 1 for perfect equality.

    An all-zero population is treated as perfectly fair: nobody has more
    than anyone else.
    """
    vals = list(values)
    if not vals:
        return 1.0
    if any(v < 0 for v in vals):
        raise ValueError("fairness is defined over non-negative values")
    square_sum = sum(v * v for v in vals)
    if square_sum == 0:
        return 1.0
    total = sum(vals)
    return total * total / (len(vals) * square_sum)


# ---------------------------------------------------------------------------
# Per-stage metric extraction


def _pool_size(sc: Scenario) -> int:
    return sum(grant_pool(b, sc.radio) for b in sc.base_stations)


def _stage1_row(sc: Scenario, stage1, sol: Stage1Solution, prev, dt: float) -> MethodMetrics:
    per_user = [qoe_stage1(sc, sol, uid) for uid in sorted(sol.admitted)]
    total = sum(per_user)
    return MethodMetrics(
        total_qoe=total,
        avg_qoe=total / len(sc.users) if sc.users else 0.0,
        jain_index=jain_index(per_user),
        prb_usage_fraction=sum(sol.prbs.values()) / _pool_size(sc),
        solve_time_s=dt,
        unadmitted_count=len(sc.users) - len(sol.admitted),
    )


def _stage2_row(sc: Scenario, stage1, sol: Stage2Solution, prev, dt: float) -> MethodMetrics:
    cost = total_cost(sol, sc, stage1, prev_placement=prev)
    return MethodMetrics(
        fixed_cost=cost.fixed,
        variable_cost=cost.variable,
        migration_cost=cost.migration,
        total_cost=cost.total,
        solve_time_s=dt,
        unadmitted_count=len(sol.unplaced),
    )


def _scene_fields(sc: Scenario, stage1: Stage1Solution, resolutions) -> dict:
    per_user = [
        qoe_stage3(sc, stage1, resolutions, uid) for uid in sorted(stage1.admitted)
    ]
    total = sum(per_user)
    return {
        "total_qoe": total,
        "avg_qoe": total / len(sc.users) if sc.users else 0.0,
        "jain_index": jain_index(per_user),
    }


def _schedule_fields(sc: Scenario, stage1: Stage1Solution, sol: Stage3Solution) -> dict:
    report = mtp_latency(sol, sc, stage1)
    # every grant of the schedule as given: rr and pf ignore stage-1 totals
    assigned = int(flat_schedule(sol, sc).n.sum())
    return {
        "avg_mtp_s": (
            statistics.mean(report.average_s.values()) if report.average_s else None
        ),
        "prb_usage_fraction": assigned / _pool_size(sc),
    }


def _scene_row(sc, stage1, resolutions, prev, dt) -> MethodMetrics:
    return MethodMetrics(**_scene_fields(sc, stage1, resolutions), solve_time_s=dt)


def _schedule_row(sc, stage1, sol, prev, dt) -> MethodMetrics:
    return MethodMetrics(**_schedule_fields(sc, stage1, sol), solve_time_s=dt)


def _refined_row(sc, stage1, sol, prev, dt) -> MethodMetrics:
    return MethodMetrics(
        **_scene_fields(sc, stage1, sol.object_resolution),
        **_schedule_fields(sc, stage1, sol),
        solve_time_s=dt,
    )


# ---------------------------------------------------------------------------
# The method table


@dataclass(frozen=True)
class _Method:
    """One method: its stage, solver, metrics row and counted violations.

    solve(scenario, stage1, previous placement) returns the solution and
    row(scenario, stage1, solution, previous placement, solve time) its
    metrics. counted lists the violation kinds that count against the
    method; None counts every kind and () skips the verifier.
    """

    stage: int
    solve: Callable
    row: Callable
    counted: tuple[str, ...] | None = None


# The solvers are looked up by name when a lambda runs, so replacing one
# on this module (as a test or tracer does) takes effect. sa and dc are
# vexa capped at one and two cells: at_cap reuses the pipeline's vexa
# solution where it provably is theirs and solves them otherwise.
_METHODS = {
    "vexa": _Method(1, lambda sc, s1, prev: s1, _stage1_row),  # solved for the pipeline
    "sa": _Method(1, lambda sc, s1, prev: at_cap(sc, s1, 1), _stage1_row),
    "dc": _Method(1, lambda sc, s1, prev: at_cap(sc, s1, 2), _stage1_row),
    "oracle_stage1": _Method(1, lambda sc, s1, prev: oracle_mod.exact_stage1(sc)[0], _stage1_row),
    "gepar": _Method(2, lambda sc, s1, prev: gepar(sc, s1, prev), _stage2_row),
    "single_path": _Method(2, lambda sc, s1, prev: baseline_single_path(sc, s1, prev), _stage2_row),
    # this baseline prices violations instead of forbidding them; only
    # structural problems count against it
    "unconstrained": _Method(
        2, lambda sc, s1, prev: baseline_unconstrained(sc, s1, prev), _stage2_row,
        counted=("placement", "routing"),
    ),
    "oracle_stage2": _Method(2, lambda sc, s1, prev: oracle_mod.exact_stage2(sc, s1)[0], _stage2_row),
    "amps": _Method(3, lambda sc, s1, prev: amps(sc, s1), _refined_row),
    "mtpsched": _Method(3, lambda sc, s1, prev: mtpsched(sc, s1), _schedule_row),
    # cyclic schedulers ignore grant totals and groups by definition, and
    # the exhaustive refinement returns resolutions only: none is verified
    "rr": _Method(3, lambda sc, s1, prev: baseline_round_robin(sc, s1), _schedule_row, ()),
    "pf": _Method(3, lambda sc, s1, prev: baseline_proportional_fair(sc, s1), _schedule_row, ()),
    "oracle_stage3": _Method(3, lambda sc, s1, prev: oracle_mod.exact_stage3(sc, s1)[0], _scene_row, ()),
}
METHODS = tuple(_METHODS)


def _violations(name: str, sol, sc: Scenario, stage1) -> list[Violation]:
    """What the stage verifier finds in sol that counts against `name`."""
    counted = _METHODS[name].counted if name in _METHODS else None
    if counted == ():
        return []
    if isinstance(sol, Stage1Solution):
        found = verify_stage1(sol, sc)
    else:
        stage = 2 if isinstance(sol, Stage2Solution) else 3
        if stage1 is None:
            raise ValueError(f"stage-{stage} solutions need the stage1 entry")
        verify = verify_stage2 if stage == 2 else verify_stage3
        found = verify(sol, sc, stage1)
    return found if counted is None else [v for v in found if v.kind in counted]


# ---------------------------------------------------------------------------
# The experiment loop


def run_experiment(
    sc: Scenario,
    methods,
    timesteps: int = 1,
    collect_solutions: bool = False,
) -> list[MetricsReport] | tuple[list[MetricsReport], dict]:
    """Solve the requested methods over a seeded mobility trace.

    Users move one waypoint step between timesteps; placement methods
    carry their own previous placement forward, so their migration costs
    chain across the run. Any verifier complaint aborts with
    ExperimentAbort carrying the reports gathered so far. With
    collect_solutions the last timestep's solutions come back too,
    keyed by method, with the shared association under "stage1".
    """
    methods = list(methods)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(
            f"unknown methods {unknown}; choose from {', '.join(METHODS)}"
        )
    if timesteps < 1:
        raise ValueError("timesteps must be at least 1")

    reports: list[MetricsReport] = []
    prev: dict[str, dict[str, str]] = {}
    world = sc
    solutions: dict[str, object] = {}
    needs_stage1 = any(m != "oracle_stage1" for m in methods)
    for t in range(timesteps):
        if t > 0:
            world = step_positions(world, t)
        t0 = time.perf_counter()
        stage1 = vexa(world) if needs_stage1 else None
        vexa_dt = time.perf_counter() - t0
        rows: dict[str, MethodMetrics] = {}
        solutions = {"stage1": stage1} if needs_stage1 else {}
        for m in methods:
            spec = _METHODS[m]
            t0 = time.perf_counter()
            sol = spec.solve(world, stage1, prev.get(m))
            dt = vexa_dt if m == "vexa" else time.perf_counter() - t0
            row = spec.row(world, stage1, sol, prev.get(m), dt)
            violations = _violations(m, sol, world, stage1)
            if violations:
                raise ExperimentAbort(t, m, violations, reports)
            if spec.stage == 2:
                prev[m] = dict(sol.placement)
            rows[m] = row
            if collect_solutions:  # otherwise each solution is freed once the next is solved
                solutions[m] = sol
        reports.append(MetricsReport(timestep=t, methods=rows))
    if collect_solutions:
        return reports, solutions
    return reports


# ---------------------------------------------------------------------------
# Emission

CSV_COLUMNS = ("timestep", "method", *(f.name for f in fields(MethodMetrics)))


def _fmt(value, column: str) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"non-finite metric in column {column}")
        return f"{value:.9g}"
    return str(value)


def emit(reports, fmt: str = "csv", include_timing: bool = False) -> str:
    """Render reports to a csv or json document (newline-terminated).

    Solve times are written as zero unless include_timing is set, keeping
    repeated runs byte-identical.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; use csv or json")
    table = [
        (report.timestep, {
            method: asdict(row if include_timing else replace(row, solve_time_s=0.0))
            for method, row in report.methods.items()
        })
        for report in reports
    ]
    if fmt == "json":
        doc = {"reports": [{"timestep": t, "methods": rows} for t, rows in table]}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [",".join(CSV_COLUMNS)]
    for t, rows in table:
        for method, row in rows.items():
            lines.append(",".join([str(t), method, *(_fmt(v, c) for c, v in row.items())]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Solution documents (for the verify subcommand)


def solutions_to_doc(sc: Scenario, solutions: dict) -> dict:
    """Serialize a run's final solutions into one JSON-friendly document."""
    doc: dict = {"seed": sc.seed, "solutions": {}}
    for name, sol in solutions.items():
        if isinstance(sol, Stage1Solution):
            doc["solutions"][name] = {
                "stage": 1,
                "assoc": {u: list(bs) for u, bs in sorted(sol.assoc.items())},
                "prbs": [[u, b, y] for (u, b), y in sorted(sol.prbs.items())],
                "resolution": {
                    u: list(r) for u, r in sorted(sol.resolution.items())
                },
                "frame_rate": dict(sorted(sol.frame_rate.items())),
                "share": [[u, b, s] for (u, b), s in sorted(sol.share.items())],
            }
        elif isinstance(sol, Stage2Solution):
            doc["solutions"][name] = {
                "stage": 2,
                "placement": dict(sorted(sol.placement.items())),
                "selected_paths": {
                    u: list(ps) for u, ps in sorted(sol.selected_paths.items())
                },
                "flow": [[u, p, q] for (u, p), q in sorted(sol.flow.items())],
                "unplaced": sorted(sol.unplaced),
            }
        elif isinstance(sol, Stage3Solution):
            doc["solutions"][name] = {
                "stage": 3,
                "object_resolution": [
                    [u, o, r[0], r[1]]
                    for (u, o), r in sorted(sol.object_resolution.items())
                ],
                "schedule": [
                    [b, tti, u, n]
                    for (b, tti), entries in sorted(sol.schedule.items())
                    for u, n in entries
                ],
                "tti_groups": {
                    u: list(starts) for u, starts in sorted(sol.tti_groups.items())
                },
            }
    return doc


def _int32(value, name: str, what: str) -> int:
    v = int(value)
    if not -2**31 <= v < 2**31:
        raise ValueError(f"solution {name!r}: {what} {v} does not fit 32 bits")
    return v


def _resolution(value, name: str, uid: str) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2
            and all(type(v) is int for v in value)):
        raise ValueError(
            f"solution {name!r}: resolution {value!r} of user {uid} is not two integers")
    return tuple(value)


def doc_to_solutions(doc: dict) -> dict:
    """Rebuild solver outputs from a solutions document.

    TTIs, grant counts, group starts and stage-1 grants must fit a signed
    32-bit integer, and a stage-1 resolution must be two integers; a
    ValueError names the solution and the field of any that does not.
    """
    out: dict = {}
    for name, entry in doc["solutions"].items():
        stage = entry["stage"]
        if stage == 1:
            assoc = {u: tuple(bs) for u, bs in entry["assoc"].items()}
            out[name] = Stage1Solution(
                assoc=assoc,
                prbs={(u, b): _int32(y, name, "prbs") for u, b, y in entry["prbs"]},
                resolution={
                    u: _resolution(r, name, u) for u, r in entry["resolution"].items()
                },
                frame_rate={u: int(f) for u, f in entry["frame_rate"].items()},
                share={(u, b): float(s) for u, b, s in entry["share"]},
                admitted=frozenset(assoc),
            )
        elif stage == 2:
            placement = dict(entry["placement"])
            out[name] = Stage2Solution(
                placement=placement,
                selected_paths={
                    u: tuple(ps) for u, ps in entry["selected_paths"].items()
                },
                flow={(u, p): float(q) for u, p, q in entry["flow"]},
                active_cns=frozenset(placement.values()),
                unplaced=frozenset(entry["unplaced"]),
            )
        elif stage == 3:
            schedule: dict[tuple[str, int], list] = {}
            for b, tti, u, n in entry["schedule"]:
                schedule.setdefault((b, _int32(tti, name, "schedule TTI")), []).append(
                    (u, _int32(n, name, "schedule grant count")))
            out[name] = Stage3Solution(
                object_resolution={
                    (u, o): (int(w), int(h))
                    for u, o, w, h in entry["object_resolution"]
                },
                schedule={k: tuple(v) for k, v in schedule.items()},
                tti_groups={
                    u: tuple(_int32(s, name, "tti_groups start") for s in starts)
                    for u, starts in entry["tti_groups"].items()
                },
            )
        else:
            raise ValueError(f"solution {name!r} has unknown stage {stage!r}")
    return out


def verify_document(sc: Scenario, doc: dict) -> dict[str, list[Violation]]:
    """Run each serialized solution through its stage verifier.

    The same exemptions apply as during a run: cyclic schedulers are not
    held to grant totals, and the unconstrained baseline only answers for
    structural placement and routing problems. When the stage1 entry has
    findings, a later stage that cannot be read against it gets one
    not-checked finding instead.
    """
    sols = doc_to_solutions(doc)
    stage1 = sols.get("stage1")
    found = {"stage1": verify_stage1(stage1, sc)} if stage1 is not None else {}
    for name, sol in sols.items():
        if name in found:
            continue
        try:
            found[name] = _violations(name, sol, sc, stage1)
        except (KeyError, TypeError, ValueError):
            if not found.get("stage1") or isinstance(sol, Stage1Solution):
                raise
            found[name] = [Violation("not-checked", name,
                                     "cannot be read against the faulty stage1 entry")]
    return found
