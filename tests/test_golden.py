"""Pinned outputs: the emitted CSV and solution documents of fixed runs.

The byte-stability tests elsewhere compare two runs of the same code;
these compare against files written by an earlier version, so a refactor
that drifts a float or flips a decision shows up here. To re-pin after a
deliberate change of results, run `PYTHONPATH=src python tests/test_golden.py`
from the repository root and commit the rewritten files under tests/data/.
"""
import hashlib
import json
import os
import subprocess
import sys
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


# every order and float total below once varied with the hash seed
HASH_SEED_SCRIPT = """
import json
from dataclasses import replace
from vrcgsim.metrics import emit, run_experiment
from vrcgsim.scenario import generate_synthetic, load_scenario, scenario_to_json
from vrcgsim.stage1 import total_qoe_stage1, verify_stage1, vexa
from vrcgsim.stage2 import gepar, verify_stage2
from vrcgsim.stage3 import amps, total_qoe_stage3

sc = generate_synthetic(seed=3, n_users=200, n_bs=4, n_cns=5)
sol = vexa(sc)
print(list(sol.assoc))
print(list(sol.assoc) == [u.id for u in sc.users if u.id in sol.admitted])
print(repr(total_qoe_stage1(sc, sol)), repr(total_qoe_stage3(sc, sol, amps(sc, sol).object_resolution)))

over = {"regional_cap_bps": 6e8, "cloud_cap_bps": 8e8, "migration_unit_cost": 5.0}
cfg = json.loads(scenario_to_json(generate_synthetic(seed=5, n_users=250, n_bs=10, n_cns=13,
                                                     overrides=over)))
fees = [0.1, 0.2, 0.3, 0.7, 1.1, 1.3, 0.9, 2.3, 0.01, 3.7, 0.05, 0.6, 0.45]
for cn, fee in zip(cfg["compute_nodes"], fees):
    cn["fixed_cost"] = fee
print(emit(run_experiment(load_scenario(json.dumps(cfg)), ["gepar", "unconstrained"],
                          timesteps=2), "json"))

sc = generate_synthetic(seed=21, n_users=60, n_bs=4, n_cns=6)
sol = vexa(sc)
zeroed = dict(sol.prbs)
for pair in sorted(zeroed)[::7][:6]:
    zeroed[pair] = 0
print(verify_stage1(replace(sol, prbs=zeroed), sc))

sc = generate_synthetic(seed=3, n_users=60, n_bs=4, n_cns=6)
sol = vexa(sc)
placed = gepar(sc, sol)
placement = dict(placed.placement)
for uid in sorted(placement)[:6]:
    del placement[uid]
placement.update({f"ghost{i}": f"cn{i - 1}" for i in (1, 2, 3)})
print([v.subject for v in verify_stage2(replace(placed, placement=placement), sc, sol)[:9]])
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    """Stage-1 dict order, float totals and stage-1 and stage-2 audit findings,
    under two hash seeds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout)
    assert runs[0].splitlines()[1] == "True"
    assert "serving cell has no grants" in runs[0]
    # placed ghosts in placement order, then the dropped users in id order
    assert runs[0].splitlines()[-1] == str(
        ["ghost1", "ghost2", "ghost3", "u0", "u1", "u10", "u11", "u12", "u13"])
    assert runs[0] == runs[1]


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for outputs in (_city(), _tiny(), _mobility(), _crowded(), _split()):
        for name, text in outputs.items():
            (DATA / name).write_text(text)
