"""vrcgsim: deterministic staged resource allocation for VR cloud gaming.

The library models a cellular edge network serving VR game streams and
solves three dependent allocation problems in sequence:

1. user admission, multi-connectivity association, PRB budgeting and
   per-user resolution/frame-rate selection (`stage1`),
2. game-engine placement on edge/regional/cloud compute with multipath
   crosshaul routing (`stage2`),
3. attention-weighted per-object resolution refinement and deadline-aware
   PRB-to-TTI scheduling (`stage3`).

Each stage ships greedy solvers, the baselines they are measured against,
an exact oracle (`oracle`: enumeration within a fixed budget for stages 1
and 3, a mixed-integer model solved by scipy's HiGHS for stage 2) and
independent feasibility verifiers. `metrics.run_experiment` drives the full
pipeline over mobility steps and the `vrcgsim` CLI wraps it.
"""
from .metrics import (
    CSV_COLUMNS,
    METHODS,
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
from .oracle import (
    OracleRefusal,
    exact_stage1,
    exact_stage2,
    exact_stage3,
)
from .scenario import (
    REFRESH_RATES,
    RESOLUTION_LADDER,
    BaseStation,
    ComputeNode,
    Game,
    Headset,
    Link,
    Path,
    RadioParams,
    ResourceCosts,
    Scenario,
    ScenarioError,
    User,
    VirtualObject,
    enumerate_paths,
    generate_synthetic,
    load_scenario,
    pixels,
    scenario_to_config,
    scenario_to_json,
    step_positions,
    validate_scenario,
)
from .stage1 import (
    Stage1Solution,
    Violation,
    baseline_dual_connectivity,
    baseline_single_association,
    maximize_qoe,
    qoe_stage1,
    total_qoe_stage1,
    verify_stage1,
    vexa,
)
from .stage2 import (
    CostBreakdown,
    Stage2Solution,
    baseline_single_path,
    baseline_unconstrained,
    gepar,
    migration_cost,
    total_cost,
    verify_stage2,
)
from .stage3 import (
    MtpReport,
    Stage3Solution,
    amps,
    baseline_proportional_fair,
    baseline_round_robin,
    mtp_latency,
    mtpsched,
    qoe_stage3,
    total_qoe_stage3,
    verify_stage3,
)

__all__ = [
    "CSV_COLUMNS",
    "METHODS",
    "REFRESH_RATES",
    "RESOLUTION_LADDER",
    "BaseStation",
    "ComputeNode",
    "CostBreakdown",
    "ExperimentAbort",
    "Game",
    "Headset",
    "Link",
    "MethodMetrics",
    "MetricsReport",
    "MtpReport",
    "OracleRefusal",
    "Path",
    "RadioParams",
    "ResourceCosts",
    "Scenario",
    "ScenarioError",
    "Stage1Solution",
    "Stage2Solution",
    "Stage3Solution",
    "User",
    "VirtualObject",
    "Violation",
    "amps",
    "baseline_dual_connectivity",
    "baseline_proportional_fair",
    "baseline_round_robin",
    "baseline_single_association",
    "baseline_single_path",
    "baseline_unconstrained",
    "doc_to_solutions",
    "emit",
    "enumerate_paths",
    "exact_stage1",
    "exact_stage2",
    "exact_stage3",
    "generate_synthetic",
    "gepar",
    "jain_index",
    "load_scenario",
    "maximize_qoe",
    "migration_cost",
    "mtp_latency",
    "mtpsched",
    "pixels",
    "qoe_stage1",
    "qoe_stage3",
    "run_experiment",
    "scenario_to_config",
    "scenario_to_json",
    "solutions_to_doc",
    "step_positions",
    "total_cost",
    "total_qoe_stage1",
    "total_qoe_stage3",
    "validate_scenario",
    "verify_document",
    "verify_stage1",
    "verify_stage2",
    "verify_stage3",
    "vexa",
]

__version__ = "0.1.0"
