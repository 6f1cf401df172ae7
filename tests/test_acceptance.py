"""End-to-end checks of the pipeline at realistic scale.

One test per headline property: solution feasibility across a seeded
scenario sweep, optimality gaps against the exhaustive solvers, solver
wall time, QoE uplift from attention-aware refinement, the playability
crossover between cyclic and spread scheduling, grant savings, migration
cost under mobility, and byte-stable CLI output. Each test prints a
single PASS or FAIL line with the measured numbers.
"""
import statistics
import time

import pytest

import scalar_oracle
from helpers import mobility_scenario as _mobility_scenario
from helpers import tiny_scenario
from vrcgsim import metrics
from vrcgsim.cli import main
from vrcgsim.oracle import exact_stage1, exact_stage2, exact_stage3
from vrcgsim.scenario import generate_synthetic
from vrcgsim.stage1 import total_qoe_stage1, vexa
from vrcgsim.stage2 import gepar, total_cost
from vrcgsim.stage3 import (
    amps,
    baseline_round_robin,
    mtp_latency,
    mtpsched,
    total_qoe_stage3,
)

PIPELINE = ["vexa", "gepar", "amps", "mtpsched"]
PLAYABLE_S = 0.030


def _report(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def feasibility_sweep():
    """100 seeded scenarios from 50 to 400 users on a 10 BS, 13 CN city.

    The experiment loop verifies every stage of every solution and
    aborts on the first violation, so a clean pass proves feasibility.
    """
    rows, aborts = [], []
    t0 = time.perf_counter()
    for i in range(100):
        n = 50 + round(350 * i / 99)
        sc = generate_synthetic(seed=i, n_users=n, n_bs=10, n_cns=13)
        try:
            reports = metrics.run_experiment(sc, PIPELINE)
            rows.append(reports[0].methods)
        except metrics.ExperimentAbort as abort:
            aborts.append((i, abort))
    return rows, aborts, time.perf_counter() - t0


def _grant_usage(sc, sol):
    pool = sum(b.usable_prbs for b in sc.base_stations) * sc.radio.ttis_per_window
    assigned = sum(n for entries in sol.schedule.values() for _, n in entries)
    return assigned / pool


@pytest.fixture(scope="module")
def schedule_sweep():
    """One saturating base station at the stock numerology, 25 to 400 users."""
    out = {}
    for n in (25, 50, 100, 150, 200, 300, 400):
        sc = generate_synthetic(seed=5, n_users=n, n_bs=1, n_cns=2)
        b = sc.base_stations[0]
        assert (b.usable_prbs, sc.radio.tti_s, sc.radio.ttis_per_window) == (
            16, 5e-4, 2000)
        s1 = vexa(sc)
        rr = baseline_round_robin(sc, s1)
        rr_mtp = statistics.mean(mtp_latency(rr, sc, s1).average_s.values())
        try:
            ms = mtpsched(sc, s1)
        except ValueError:
            out[n] = (rr_mtp, None, _grant_usage(sc, rr), None)
            continue
        ms_mtp = statistics.mean(mtp_latency(ms, sc, s1).average_s.values())
        out[n] = (rr_mtp, ms_mtp, _grant_usage(sc, rr), _grant_usage(sc, ms))
    return out


def test_every_solution_verifies_across_the_sweep(feasibility_sweep):
    rows, aborts, dt = feasibility_sweep
    ok = not aborts and len(rows) == 100 and dt < 300.0
    first = f", first abort: {aborts[0][1]}" if aborts else ""
    _report("feasibility sweep", ok,
            f"{len(rows)}/100 scenarios violation-free in {dt:.0f}s{first}")


def test_association_qoe_tracks_the_exhaustive_optimum():
    gaps = []
    for seed in range(50):
        sc = tiny_scenario(seed, 3, 2, 2)
        _, best = exact_stage1(sc)
        got = total_qoe_stage1(sc, vexa(sc))
        gaps.append(0.0 if best <= 1e-12 else max(0.0, (best - got) / best))
    mean, worst = statistics.mean(gaps), max(gaps)
    _report("association oracle gap", mean <= 0.05 and worst <= 0.10,
            f"mean {mean:.2%}, worst {worst:.2%} over 50 instances")


def test_placement_cost_tracks_the_exhaustive_optimum():
    shapes = [(3, 2, 2), (4, 3, 3)]
    ratios = []
    for seed in range(50):
        n_users, n_bs, n_cns = shapes[seed % 2]
        sc = tiny_scenario(seed, n_users, n_bs, n_cns, max_connections=1)
        s1 = vexa(sc)
        assert s1.admitted, f"seed {seed} admitted nobody"
        _, best = exact_stage2(sc, s1)
        _, brute = scalar_oracle.exact_stage2(sc, s1)
        assert best == pytest.approx(brute, rel=1e-9, abs=0.0), f"seed {seed}: model misses"
        sol = gepar(sc, s1)
        assert sol.unplaced == frozenset(), f"seed {seed} left users unplaced"
        ratios.append(total_cost(sol, sc, s1).total / best)
    worst = max(ratios)
    _report("placement oracle gap", worst <= 1.15,
            f"worst cost ratio {worst:.3f} over 50 instances")


def test_refined_qoe_tracks_the_exhaustive_optimum():
    ratios = []
    for seed in range(50):
        sc = tiny_scenario(seed, 3, 2, 2)
        s1 = vexa(sc)
        assert s1.admitted, f"seed {seed} admitted nobody"
        _, best = exact_stage3(sc, s1)
        got = total_qoe_stage3(sc, s1, amps(sc, s1).object_resolution)
        ratios.append(1.0 if best <= 1e-12 else got / best)
    worst = min(ratios)
    _report("refinement oracle gap", worst >= 0.90,
            f"worst QoE ratio {worst:.3f} over 50 instances")


def test_refined_qoe_tracks_the_exact_optimum_at_paper_scale():
    # users decompose, so the exact refinement enumerates 1200 x 3**5 scenes
    floors = {1000: 0.884, 1001: 0.911}
    ratios = {}
    for seed in floors:
        sc = generate_synthetic(seed, 1200, 10, 13)
        s1 = vexa(sc)
        _, best = exact_stage3(sc, s1)
        ratios[seed] = total_qoe_stage3(sc, s1, amps(sc, s1).object_resolution) / best
    _report("paper-scale refinement gap", all(ratios[s] >= floors[s] for s in floors),
            ", ".join(f"seed {s} QoE ratio {r:.4f} (floor {floors[s]})"
                      for s, r in ratios.items()))


def test_association_solves_twelve_hundred_users_within_a_second():
    sc = generate_synthetic(seed=7, n_users=1200, n_bs=10, n_cns=13)
    t0 = time.perf_counter()
    s1 = vexa(sc)
    dt = time.perf_counter() - t0
    _report("association wall time", dt < 1.0 and len(s1.admitted) > 0,
            f"1200 users, 10 cells in {dt * 1e3:.0f}ms")


def test_refinement_never_loses_qoe_and_usually_gains(feasibility_sweep):
    rows, aborts, _ = feasibility_sweep
    assert not aborts
    uplifts = [r["amps"].total_qoe - r["vexa"].total_qoe for r in rows]
    floor, median = min(uplifts), statistics.median(uplifts)
    _report("refinement uplift", floor >= -1e-9 and median > 0.0,
            f"min uplift {floor:.3f}, median {median:.3f} over {len(rows)} runs")


def test_spread_schedule_stays_playable_after_round_robin_breaks(schedule_sweep):
    crossover = None
    for n, (rr_mtp, ms_mtp, _, _) in sorted(schedule_sweep.items()):
        if rr_mtp > PLAYABLE_S and ms_mtp is not None and ms_mtp <= PLAYABLE_S:
            crossover = n
            break
    if crossover is None:
        _report("playability crossover", False, "no crossover in the sweep")
    doubled = schedule_sweep.get(2 * crossover)
    # past the crossover the spread schedule must hold the line until it
    # runs out of schedulable TTIs altogether
    ok = doubled is not None and (doubled[1] is None or doubled[1] <= PLAYABLE_S)
    rr_ms = schedule_sweep[crossover][0] * 1e3
    ms_ms = schedule_sweep[crossover][1] * 1e3
    at2 = "infeasible" if doubled[1] is None else f"{doubled[1] * 1e3:.1f}ms"
    _report("playability crossover", ok,
            f"at {crossover} users RR {rr_ms:.1f}ms vs spread {ms_ms:.1f}ms, "
            f"spread at {2 * crossover} users {at2}")


def test_spread_schedule_saves_grants_under_light_load(schedule_sweep):
    worst, at = 0.0, None
    for n, (_, ms_mtp, rr_use, ms_use) in sorted(schedule_sweep.items()):
        if n > 100 or ms_use is None:
            continue
        if ms_use / rr_use > worst:
            worst, at = ms_use / rr_use, n
    _report("grant savings", worst <= 0.25,
            f"worst usage ratio {worst:.3f} at {at} users")


def test_flexible_routing_relocates_less_than_both_baselines():
    sc = _mobility_scenario()
    methods = ("gepar", "single_path", "unconstrained")
    reports = metrics.run_experiment(sc, list(methods), timesteps=20)
    cum = {m: sum(r.methods[m].migration_cost for r in reports) for m in methods}
    served = all(r.methods[m].unadmitted_count == 0
                 for r in reports for m in methods)
    g = cum["gepar"]
    ok = (served and g <= 0.85 * cum["single_path"]
          and g <= 0.85 * cum["unconstrained"])
    _report("migration under mobility", ok,
            f"cumulative gepar {g:.0f} vs single_path {cum['single_path']:.0f} "
            f"and unconstrained {cum['unconstrained']:.0f} over 20 steps")


def test_cli_output_is_byte_identical_across_runs(tmp_path):
    args = ["run", "--seed", "11", "--users", "30", "--bs", "3", "--cns", "4",
            "--methods", "vexa,sa,gepar,amps,mtpsched", "--timesteps", "2"]
    outs = []
    for tag in ("a", "b"):
        res = tmp_path / f"res_{tag}.csv"
        sols = tmp_path / f"sol_{tag}.json"
        code = main(args + ["--out", str(res), "--solutions", str(sols)])
        assert code == 0
        outs.append((res.read_bytes(), sols.read_bytes()))
    gen = []
    for tag in ("a", "b"):
        path = tmp_path / f"gen_{tag}.json"
        assert main(["generate", "--seed", "11", "--users", "30",
                     "--out", str(path)]) == 0
        gen.append(path.read_bytes())
    ok = outs[0] == outs[1] and gen[0] == gen[1]
    _report("byte-stable output", ok,
            f"run {len(outs[0][0])}B + solutions {len(outs[0][1])}B and "
            f"generate {len(gen[0])}B identical across repeats")
