"""sa and dc reuse the pipeline's vexa solution only where it is theirs.

stage1.at_cap(sc, vexa(sc), cap) must equal vexa(sc, max_connections=cap)
whichever branch it takes: it reuses the solution at the scenario's own
cap, and below it when nobody holds two cells, and solves otherwise.
"""
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import crowded_cities, crowded_city
from vrcgsim import metrics, stage1
from vrcgsim.metrics import run_experiment
from vrcgsim.scenario import generate_synthetic
from vrcgsim.stage1 import at_cap, vexa


def golden_city(n_users, **overrides):
    """The first timestep of tests/test_golden.py's contended cities."""
    return generate_synthetic(seed=21, n_users=n_users, n_bs=4, n_cns=5,
                              area_m=(800, 800), overrides=overrides)


CROWDED = {"n_users": 300, "usable_prbs": 2}  # every admitted user on one cell
SPLIT = {"n_users": 80, "usable_prbs": 1, "ttis_per_window": 20, "deadline_s": 0.05}


@pytest.fixture
def vexa_calls(monkeypatch):
    """How many times vexa is called, by at_cap or by the experiment loop."""
    calls = []
    real = stage1.vexa

    def counted(*args, **kwargs):
        calls.append(kwargs.get("max_connections"))
        return real(*args, **kwargs)

    monkeypatch.setattr(stage1, "vexa", counted)
    monkeypatch.setattr(metrics, "vexa", counted)
    return calls


# short windows under an absolute deadline, where about one city in six
# splits a user over two or three cells
split_cities = st.builds(
    crowded_city,
    seed=st.integers(0, 10_000),
    n_users=st.integers(20, 200),
    n_bs=st.integers(2, 4),
    side=st.sampled_from([400.0, 800.0]),
    usable_prbs=st.integers(1, 3),
    ttis_per_window=st.just(20),
    deadline_s=st.just(0.05),
    max_connections=st.integers(2, 3),
)


@example(sc=golden_city(**SPLIT))
@example(sc=crowded_city(4042, 139, 4, 800.0, usable_prbs=1, ttis_per_window=20,
                         deadline_s=0.05, max_connections=3))  # one user on three cells
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sc=st.one_of(crowded_cities, split_cities))
def test_at_cap_is_vexa_at_that_cap(sc):
    full = vexa(sc)
    for cap in range(0, 5):
        got = at_cap(sc, full, cap)
        assert got == vexa(sc, max_connections=cap), cap
        assert got is not full and got._memo == {}


@pytest.mark.parametrize("city,solved", [(CROWDED, []), (SPLIT, [1, 2])])
def test_at_cap_solves_only_below_a_split(vexa_calls, city, solved):
    """The crowded city reuses at every cap; the split city, whose cap is 3,
    reuses there and solves at 1 and 2, where its answer differs."""
    sc = golden_city(**city)
    full = vexa(sc)
    assert any(len(cells) > 1 for cells in full.assoc.values()) == bool(solved)
    got = [at_cap(sc, full, cap) for cap in (1, 2, 3)]
    assert vexa_calls == solved
    assert got == [vexa(sc, max_connections=cap) for cap in (1, 2, 3)]
    assert (got[0] == full) == (not solved)


@pytest.mark.parametrize("city,solves", [(CROWDED, 1), (SPLIT, 3)])
def test_a_step_solves_sa_and_dc_only_where_they_differ(monkeypatch, vexa_calls, city, solves):
    """Each row is still audited on its own solution and latency table."""
    audited = []
    real = metrics.verify_stage1

    def audit(sol, sc):
        audited.append(sol)
        return real(sol, sc)

    monkeypatch.setattr(metrics, "verify_stage1", audit)
    run_experiment(golden_city(**city), ("vexa", "sa", "dc"))
    assert len(vexa_calls) == solves
    assert len({id(sol) for sol in audited}) == 3
    assert all("latency_columns" in sol._memo for sol in audited)
