"""Run every workload on several seeds and record the results.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BENCH_baseline.json

For each workload this makes one untraced run per seed and one traced run
on the first seed, prints every metric by name with its unit, and gives
each end-to-end metric's median, quartiles and quartile spread (the
distance between the first and third quartile as a share of the median)
next to the bound BENCHMARK.json sets. With --out the summary is written
as JSON together with a note of the machine and the git commit measured.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("scenario", "radio", "stage1", "stage2", "stage3", "metrics")


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def shares(layers: dict) -> dict:
    """Each module's share of traced step time, and path enumeration's of set-up."""
    step = {m: layers[m]["value"] for m, _, phase, what in LAYER_METRICS
            if phase == "step" and what == "self"}
    setup = {m: layers[m]["value"] for m, _, phase, what in LAYER_METRICS
             if phase == "setup" and what == "self"}
    out = {f"{mod}_step_share": sum(v for m, v in step.items() if m.startswith(mod + "."))
           / sum(step.values()) for mod in MODULES}
    out["enumerate_paths_setup_share"] = (
        setup["scenario.enumerate_paths_s"] / sum(setup.values()))
    return out


def machine() -> dict:
    import numpy

    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git("rev-parse", "HEAD"),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": machine(), "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs, walls = [], []
        for seed in args.seeds:
            out, wall = bench(name, seed, spec["run_seconds"], 0)
            runs.append(out)
            walls.append(wall)
            ok &= out["correct"] and out["failed"] == 0
            print(f"{name} seed {seed}: {wall:.1f} s, attempted {out['attempted']}, "
                  f"failed {out['failed']}, correct {out['correct']}", flush=True)
        entry = {"run_wall_s": summary(walls), "attempted": [r["attempted"] for r in runs],
                 "end_to_end": {}}
        for metric, bound in bounds.items():
            s = summary([r["metrics"][metric]["value"] for r in runs])
            s.update(unit=runs[0]["metrics"][metric]["unit"], bound=bound, runs=len(runs))
            entry["end_to_end"][metric] = s
            flag = "" if metric == "setup_s" or s["spread"] <= bound / 3 else "  WIDE"
            print(f"{name} {metric} {s['median']:.6g} {s['unit']} "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.3f}, "
                  f"bound {bound}, {len(runs)} runs){flag}", flush=True)
        out, wall = bench(name, args.seeds[0], spec["run_seconds"], 1)
        ok &= out["correct"] and out["failed"] == 0
        entry["traced_seed"] = args.seeds[0]
        entry["traced_run_wall_s"] = wall
        entry["per_layer"] = out["metrics"]
        print(f"{name} traced seed {args.seeds[0]}: {wall:.1f} s", flush=True)
        for metric, v in out["metrics"].items():
            print(f"{name} {metric} {v['value']:.6g} {v['unit']}", flush=True)
        entry["shares"] = shares(out["metrics"])
        for key, v in entry["shares"].items():
            print(f"{name} {key} {v:.3f}", flush=True)
        record["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
