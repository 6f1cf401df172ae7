"""Spans around the public functions of each vrcgsim module.

The wrappers are installed from the benchmark, at every place a traced
function is bound, so calls between the library's own modules are seen
too (`amps` calling `mtpsched`, `vexa` calling `maximize_qoe`, each
module's own `link_tables`). Spans stay in memory as
[name, start, end, parent index] and are written out once, at the end.
"""
from __future__ import annotations

import functools
import sys
import time

TARGETS = {
    "scenario": ("generate_synthetic", "load_scenario", "enumerate_paths",
                 "step_positions"),
    "radio": ("link_tables",),
    "stage1": ("vexa", "maximize_qoe", "baseline_single_association",
               "baseline_dual_connectivity", "verify_stage1"),
    "stage2": ("gepar", "baseline_single_path", "baseline_unconstrained",
               "stage1_columns", "verify_stage2", "total_cost"),
    "stage3": ("amps", "mtpsched", "mtp_latency", "verify_stage3"),
    "metrics": ("run_experiment", "emit"),
}

# sa and dc are vexa with fewer connections: the vexa span inside them is
# their body, so its time is theirs
FOLD_INTO_PARENT = {
    "stage1.vexa": ("stage1.baseline_single_association",
                    "stage1.baseline_dual_connectivity"),
}

SOLVERS = frozenset((
    "stage1.vexa", "stage1.maximize_qoe", "stage1.baseline_single_association",
    "stage1.baseline_dual_connectivity", "stage2.gepar",
    "stage2.baseline_single_path", "stage2.baseline_unconstrained",
    "stage3.amps", "stage3.mtpsched",
))
CHECKS = frozenset((
    "stage1.verify_stage1", "stage2.verify_stage2", "stage3.verify_stage3",
    "stage3.mtp_latency", "stage2.total_cost",
))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.originals: dict[str, object] = {}

    def install(self, package) -> None:
        """Wrap every target wherever a loaded module of `package` binds it."""
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if n == prefix or n.startswith(prefix + ".")]
        for mod_name, names in TARGETS.items():
            mod = getattr(package, mod_name)
            for fn_name in names:
                label = f"{mod_name}.{fn_name}"
                orig = getattr(mod, fn_name)
                self.originals[label] = orig
                wrapped = self._wrap(label, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced


def labels(spans) -> list[str]:
    """Span names, with folded spans named after their parent."""
    out: list[str] = []
    for name, _, _, parent in spans:
        if parent >= 0 and spans[parent][0] in FOLD_INTO_PARENT.get(name, ()):
            name = out[parent]
        out.append(name)
    return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def categories(spans, names) -> list[str | None]:
    """'solve' or 'check' per span; helpers inherit their caller's."""
    out: list[str | None] = []
    for (_, _, _, parent), name in zip(spans, names):
        if name in SOLVERS:
            out.append("solve")
        elif name in CHECKS:
            out.append("check")
        else:
            out.append(out[parent] if parent >= 0 else None)
    return out
