"""Benchmark of the three-stage allocator on one workload.

    python3 perfbench/run.py --workload paper-city --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. The workload runs in a worker
process of its own (perfbench/worker.py) with numpy held to one thread
and a fixed string-hash seed.
With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics,
taken from a traced worker run after an untraced one on the same seed so
the tracing overhead can be read off. Every metric is also printed to
standard error as `workload name value unit`. Metric names and units are
listed in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = ROOT / ".bench_build" / "perfbench" / "digests.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BUDGET_S = 175  # for the whole invocation, every worker included


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def worker(workload, seed, seconds, setups, traced, tiny, give_up) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(seconds), str(setups), str(int(traced)), str(int(tiny))]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=give_up - time.monotonic(), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def same_as_before(key: str, record: dict) -> bool:
    """Keep the first record per key; later runs of the same code must match it."""
    seen = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if key in seen:
        return seen[key] == record
    seen[key] = record
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, DIGESTS)
    return True


def step_stats(run: dict) -> dict[str, float]:
    steps = run["step_s"]
    # p90 only where at least ten samples lie beyond it
    p90 = statistics.quantiles(steps, n=10)[-1] if len(steps) >= 100 else 0.0
    return {
        "step_s_p50": statistics.median(steps) if steps else 0.0,
        "step_s_p90": p90,
        "step_samples": len(steps),
        "step_fail_frac": run["failed"] / max(run["attempted"], 1),
    }


def end_to_end(run: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "user_steps_per_s": run["users"] * len(run["step_s"]) / run["busy_s"],
        "step_s_p50": step_stats(run)["step_s_p50"],
        "peak_rss_mb": run["peak_rss_mb"],
        "served_frac": run["quality"]["served_frac"],
    }


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    out = dict(traced["layers"])
    out.update(traced["quality"])
    del out["served_frac"]
    plain_steps = step_stats(plain)
    out["trace.overhead_frac"] = (
        step_stats(traced)["step_s_p50"] / plain_steps.pop("step_s_p50") - 1.0)
    out.update(plain_steps)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to a few seconds (smoke test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "vrcgsim" / "__init__.py").is_file():
        print(f"no vrcgsim sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    give_up = time.monotonic() + BUDGET_S
    setups = WORKLOADS[args.workload].setups
    common = (args.workload, args.seed, args.seconds)
    if args.trace:
        # set up once: the per-layer set-up metrics are per scenario anyway
        runs = [worker(*common, 1, traced, args.tiny, give_up) for traced in (False, True)]
        metrics = per_layer(*runs)
    else:
        runs = [worker(*common, setups, False, args.tiny, give_up)]
        metrics = end_to_end(runs[0])

    problems = [p for r in runs for p in r["problems"]]
    key = f"{args.workload}:{args.seed}:{int(args.tiny)}:{code_hash()}"
    for r in runs:
        if not same_as_before(key, {"digest": r["digest"], "quality": r["quality"]}):
            problems.append("reports or quality differ from an earlier run "
                            "of the same code and seed")
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)

    unit = units()
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {n: {"value": v, "unit": unit[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
