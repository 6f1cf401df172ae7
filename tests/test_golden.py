"""Pinned outputs: the emitted CSV and solution documents of fixed runs.

The byte-stability tests elsewhere compare two runs of the same code;
these compare against files written by an earlier version, so a refactor
that drifts a float or flips a decision shows up here. To re-pin after a
deliberate change of results, run `PYTHONPATH=src python tests/test_golden.py`
from the repository root and commit the rewritten files under tests/data/.
"""
import hashlib
import json
from pathlib import Path

from helpers import mobility_scenario, tiny_scenario
from vrcgsim.metrics import METHODS, emit, run_experiment, solutions_to_doc
from vrcgsim.scenario import generate_synthetic

DATA = Path(__file__).parent / "data"
NON_ORACLE = [m for m in METHODS if not m.startswith("oracle_")]


def _digest(sc, solutions) -> str:
    doc = json.dumps(solutions_to_doc(sc, solutions), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _city():
    sc = generate_synthetic(seed=21, n_users=60, n_bs=4, n_cns=6)
    reports, sols = run_experiment(sc, NON_ORACLE, timesteps=2,
                                   collect_solutions=True)
    return {"golden_city.csv": emit(reports, "csv"),
            "golden_city.sha256": _digest(sc, sols) + "\n"}


def _tiny():
    sc = tiny_scenario(seed=0)
    reports, sols = run_experiment(sc, METHODS, timesteps=1,
                                   collect_solutions=True)
    return {"golden_tiny.csv": emit(reports, "csv"),
            "golden_tiny.sha256": _digest(sc, sols) + "\n"}


def _mobility():
    sc = mobility_scenario()
    reports, sols = run_experiment(sc, ["gepar", "single_path", "unconstrained"],
                                   timesteps=10, collect_solutions=True)
    return {"golden_mobility.csv": emit(reports, "csv"),
            "golden_mobility.sha256": _digest(sc, sols) + "\n"}


def _contended(name, n_users, overrides):
    sc = generate_synthetic(seed=21, n_users=n_users, n_bs=4, n_cns=5,
                            area_m=(800, 800), overrides=overrides)
    reports, sols = run_experiment(sc, ["vexa", "sa", "dc"], timesteps=2,
                                   collect_solutions=True)
    return {f"{name}.csv": emit(reports, "csv"),
            f"{name}.sha256": _digest(sc, sols) + "\n"}


def _crowded():
    return _contended("golden_crowded", 300, {"usable_prbs": 2})


def _split():
    return _contended("golden_split", 80, {"usable_prbs": 1, "ttis_per_window": 20,
                                           "deadline_s": 0.05})


def _check(outputs: dict[str, str]):
    for name, text in outputs.items():
        assert text == (DATA / name).read_text(), f"{name} differs from the pinned output"


def test_city_run_matches_pinned_output():
    """60 users, 4 cells, 6 nodes: every non-oracle method over 2 steps."""
    _check(_city())


def test_tiny_run_matches_pinned_output():
    """An oracle-sized city through all thirteen methods."""
    _check(_tiny())


def test_mobility_run_matches_pinned_output():
    """The acceptance mobility city: chained placements over 10 steps."""
    _check(_mobility())


def test_crowded_admission_matches_pinned_output():
    """300 users on 4 cells with 2 usable PRBs each: admission evicts."""
    _check(_crowded())


def test_split_admission_matches_pinned_output():
    """80 users on 1-PRB cells under a relaxed deadline: evictions and
    two-cell placements."""
    _check(_split())


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for outputs in (_city(), _tiny(), _mobility(), _crowded(), _split()):
        for name, text in outputs.items():
            (DATA / name).write_text(text)
