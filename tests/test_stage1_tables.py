"""The table-driven stage-1 solvers against the from-scratch reference.

tests/scalar_stage1.py keeps the per-solve ranking, the two-pass grant
sizing and the incumbent scan; these tests require the link tables'
ranking and every admission solver to agree with it exactly on crowded
cities, where cells fill up, users are displaced and split across cells.
"""
import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import scalar_stage1 as ref
from helpers import make_scenario
from vrcgsim import stage1
from vrcgsim.radio import link_tables
from vrcgsim.scenario import generate_synthetic
from vrcgsim.stage1 import baseline_dual_connectivity, baseline_single_association, vexa

SOLVERS = {"vexa": vexa, "sa": baseline_single_association, "dc": baseline_dual_connectivity}


def crowded_city(seed, n_users, n_bs, side, **overrides):
    return generate_synthetic(seed=seed, n_users=n_users, n_bs=n_bs, n_cns=3,
                              area_m=(side, side), overrides=overrides)


crowded_cities = st.builds(
    crowded_city,
    seed=st.integers(0, 10_000),
    n_users=st.integers(20, 300),
    n_bs=st.integers(1, 4),
    side=st.sampled_from([400.0, 800.0]),
    usable_prbs=st.integers(1, 3),
    ttis_per_window=st.sampled_from([20, 200, 2000]),
    deadline_s=st.sampled_from([None, 0.05]),
    max_connections=st.integers(1, 3),
)


def _reference_rank(sc) -> np.ndarray:
    ctx = ref.ScalarCtx(sc)
    return np.array([[ctx.rank[u.id].get(b.id, -1) for b in sc.base_stations]
                     for u in sc.users])


# cities where the order of displacement within one rank decides who stays
@example(sc=crowded_city(500, 226, 3, 400.0, usable_prbs=3, ttis_per_window=200,
                         max_connections=2))
@example(sc=crowded_city(3603, 122, 4, 800.0, usable_prbs=1, ttis_per_window=2000,
                         deadline_s=0.05, max_connections=2))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sc=crowded_cities)
def test_admission_matches_the_reference(sc):
    np.testing.assert_array_equal(link_tables(sc).rank, _reference_rank(sc))
    for name, solve in SOLVERS.items():
        with ref.patched():
            expected = solve(sc)
        assert solve(sc) == expected, name


def test_rank_is_a_read_only_int8_table():
    sc = generate_synthetic(seed=5, n_users=60, n_bs=4, n_cns=5)
    rank = link_tables(sc).rank
    assert rank.dtype == np.int8 and not rank.flags.writeable
    np.testing.assert_array_equal(rank, _reference_rank(sc))


def test_equal_sinr_ranks_by_column():
    """A user midway between two cells on their own channels sees the
    same SINR from both; the earlier-listed cell ranks first."""
    sc = make_scenario(
        users=[{"id": "u0", "position": [1300.0, 1000.0]}],
        base_stations=[{"id": "bs9", "position": [1600.0, 1000.0]},
                       {"id": "bs0", "position": [1000.0, 1000.0]}],
    )
    lt = link_tables(sc)
    assert lt.sinr[0, 0] == lt.sinr[0, 1]
    assert lt.rank.tolist() == [[0, 1]]
    assert vexa(sc).assoc["u0"] == ("bs9",)


def test_a_column_is_sized_with_one_fixed_latency(monkeypatch):
    calls = {"demand": 0, "fixed": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(stage1._Ctx, "demand", counted("demand", stage1._Ctx.demand))
    monkeypatch.setattr(stage1, "fixed_latency_s", counted("fixed", stage1.fixed_latency_s))
    sc = crowded_city(21, 120, 4, 800.0, usable_prbs=2)
    vexa(sc)
    assert calls["demand"] > len(sc.users)
    assert calls["fixed"] == calls["demand"]
