"""The table-driven stage-1 solvers and audit against the from-scratch reference.

tests/scalar_stage1.py keeps the per-solve ranking, the two-pass scalar
grant sizing, the incumbent scan, the upgrade pass that offers everyone a
step every round and the user-by-user audit; these tests require the
link tables' ranking, the array sizing, every admission solver, the
worklist upgrade pass and verify_stage1 to agree with it exactly on
crowded cities, where cells fill up, users are displaced and split across
cells, and upgrades that give back grants let waiting users move again.
"""
import contextlib
from dataclasses import fields, replace

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import scalar_stage1 as ref
from helpers import crowded_cities, crowded_city, make_scenario
from vrcgsim import stage1
from vrcgsim.metrics import run_experiment
from vrcgsim.radio import link_tables
from vrcgsim.scenario import generate_synthetic
from vrcgsim.stage1 import (
    Stage1Solution,
    baseline_dual_connectivity,
    baseline_single_association,
    maximize_qoe,
    verify_stage1,
    vexa,
)

SOLVERS = {"vexa": vexa, "sa": baseline_single_association, "dc": baseline_dual_connectivity}
FIELDS = ("assoc", "prbs", "resolution", "frame_rate", "share")


def exact(sol: Stage1Solution):
    """Every field of a solution, dicts in their own order."""
    return [list(getattr(sol, f).items()) for f in FIELDS] + [sorted(sol.admitted)]


def outcome(fn, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except (KeyError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


def by_user(sc, sol):
    """stage1.latency_columns read back as the reference's parts by user and cell."""
    table, cells = stage1.latency_columns(sc, sol), sc._lookup["bs"]
    parts = table.parts.T.tolist()
    out = {}
    for uid, k in table.users.items():
        serving = [bid for bid in sol.assoc.get(uid, ()) if bid in cells]
        assert len(serving) == table.first[k + 1] - table.first[k]
        out[uid] = {bid: tuple(parts[p]) for p, bid in enumerate(serving, table.first[k])}
    return out


@contextlib.contextmanager
def no_upgrades():
    """vexa stops at admission: its upgrade pass hands the state back as it is."""
    saved = stage1._upgrade
    stage1._upgrade = lambda st: st.to_solution()
    try:
        yield
    finally:
        stage1._upgrade = saved


@contextlib.contextmanager
def holders_checked():
    """After each placement attempt, every cell's holder list must be the
    sorted (rank of the cell, catalog row, uid) of the users placed there."""
    saved = stage1._try_place

    def checked(ctx, st, uid, parts):
        displaced = saved(ctx, st, uid, parts)
        rank, row = ctx.lt.rank.tolist(), ctx.lt.user_index
        placed = {bid: [] for bid in st.holders}
        for v, cells in st.place.items():
            for bid in cells:
                placed[bid].append((rank[row[v]][ctx.lt.bs_index[bid]], row[v], v))
        assert st.holders == {bid: sorted(held) for bid, held in placed.items()}
        return displaced

    stage1._try_place = checked
    try:
        yield
    finally:
        stage1._try_place = saved


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
        with holders_checked():
            assert exact(solve(sc)) == exact(expected), name


def padded(sc, sol, extra) -> Stage1Solution:
    """sol with extra grants on some pairs, as far as the pools have room.

    A padded column holds more grants than its next rung needs, so its
    upgrade gives grants back and users waiting on that cell can move.
    """
    room = {b.id: stage1.grant_pool(b, sc.radio) for b in sc.base_stations}
    for (_, bid), g in sol.prbs.items():
        room[bid] -= g
    prbs = dict(sol.prbs)
    for key, more in extra:
        more = min(more, room[key[1]])
        if more > 0:
            prbs[key] += more
            room[key[1]] -= more
    return Stage1Solution(sol.assoc, prbs, sol.resolution, sol.frame_rate, sol.share,
                          sol.admitted)


def admitted_only(sc) -> Stage1Solution:
    with no_upgrades():
        return vexa(sc)


@st.composite
def padded_solutions(draw):
    """An admitted, not yet upgraded solution with some grants padded."""
    sc = draw(crowded_cities)
    sol = admitted_only(sc)
    keys = draw(st.lists(st.sampled_from(sorted(sol.prbs)), max_size=30, unique=True)
                if sol.prbs else st.just([]))
    return sc, padded(sc, sol, [(key, draw(st.integers(1, 3 * sol.prbs[key]))) for key in keys])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=padded_solutions())
def test_upgrades_match_the_reference(case):
    sc, sol = case
    expected = ref.maximize_qoe(sol, sc)
    assert exact(maximize_qoe(sol, sc)) == exact(expected)


def test_a_freed_cell_brings_waiting_users_back(monkeypatch):
    """Upgrades of padded users give grants back, and users whose step did
    not fit before then move, in the order of the reference."""
    sc = crowded_city(1, 120, 2, 400.0, usable_prbs=2)
    sol = admitted_only(sc)
    sol = padded(sc, sol, [(key, 2 * g) for i, (key, g) in enumerate(sorted(sol.prbs.items()))
                           if i % 3 == 0])
    seen = {"steps": 0, "freed": 0, "came back": 0}
    failed: set[str] = set()
    try_upgrade = stage1._try_upgrade

    def counted(ctx, st, uid, step):
        freed = try_upgrade(ctx, st, uid, step)
        seen["steps"] += 1
        seen["freed"] += bool(freed)
        seen["came back"] += uid in failed and freed is not None
        (failed.add if freed is None else failed.discard)(uid)
        return freed

    monkeypatch.setattr(stage1, "_try_upgrade", counted)
    assert exact(maximize_qoe(sol, sc)) == exact(ref.maximize_qoe(sol, sc))
    assert seen["freed"] > 0 and seen["came back"] > 0
    # the reference offers every user a step in each of at least two rounds
    assert seen["steps"] < 2 * len(sol.admitted)


def test_a_user_freed_in_its_round_moves_in_that_round():
    """A waiting user whose cell gains slack ahead of its place moves in
    the same round, before a user the order puts after it.

    Three users share one spot, one cell and one three-rung ladder, so
    they size alike; u3 sits at the top of its own ladder and fills the
    pool. Round 1: u0 cannot fit (the pool is overdrawn), u1's upgrade
    gives back grants and u0 may try again, next round; u2, still short,
    waits. Round 2: u0 moves and gives back S grants, where S covers
    either u2's first step or u1's second but not both. u2 comes before
    u1 in the order, so u2 takes them.
    """
    # a weak link, so each rung needs more grants than the last
    at = [3500.0, 1000.0]
    sc = make_scenario(
        users=[{"id": f"u{i}", "position": at} for i in range(3)]
        + [{"id": "u3", "position": at, "headset": "top"}],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0], "tx_power_dbm": 0.0}],
        headsets=[{"id": "h", "resolutions": [[960, 1080], [1080, 1200], [1440, 1600]],
                   "frame_rates": [72]},
                  {"id": "top", "resolutions": [[960, 1080]], "frame_rates": [72]}],
    )
    scalar = ref.ScalarCtx(sc)
    s0, s1, s2 = (scalar.demand("u0", "bs0", 1, res, 72)
                  for res in sc.headset_of(sc.user("u0")).resolutions)
    a, b = s1 - s0, s2 - s1
    slack = max(a, b)
    assert 0 < a and 0 < b and slack < a + b
    pad = {"u0": slack + 1, "u1": slack + a + 1, "u2": 0}
    pool = stage1.grant_pool(sc.bs("bs0"), sc.radio)
    fill = pool - (3 * s0 + slack + 2 * a)
    assert fill > 0
    grants = {f"u{i}": s0 + pad[f"u{i}"] for i in range(3)} | {"u3": fill}
    sol = Stage1Solution(
        assoc={uid: ("bs0",) for uid in grants},
        prbs={(uid, "bs0"): g for uid, g in grants.items()},
        resolution={uid: (960, 1080) for uid in grants},
        frame_rate=dict.fromkeys(grants, 72),
        share={(uid, "bs0"): 1.0 for uid in grants},
        admitted=frozenset(grants),
    )
    got = maximize_qoe(sol, sc)
    assert exact(got) == exact(ref.maximize_qoe(sol, sc))
    assert [got.resolution[f"u{i}"] for i in range(3)] == [(1080, 1200)] * 3


def test_sizing_matches_the_scalar_reference():
    """Every covering (user, cell) at every menu selection and split."""
    for sc in (crowded_city(11, 80, 4, 800.0, usable_prbs=2, max_connections=3),
               crowded_city(12, 60, 3, 400.0, deadline_s=0.05, ttis_per_window=200)):
        ctx, scalar = stage1._Ctx(sc), ref.ScalarCtx(sc)
        lt = ctx.lt
        cases = [
            (u.id, bid, parts, res, fps)
            for u in sc.users
            for bid in scalar.cands[u.id]
            for parts in (1, 2, 3)
            for res in sc.headset_of(u).resolutions
            for fps in sc.headset_of(u).frame_rates
        ]
        got = ctx.size([lt.user_index[c[0]] for c in cases], [lt.bs_index[c[1]] for c in cases],
                       [ctx.rung(c[3], c[4]) for c in cases], [c[2] for c in cases])
        assert got == [scalar.demand(*c) for c in cases]
        assert any(g is None for g in got) and any(g is not None for g in got)
        for u in sc.users:
            hs = sc.headset_of(u)
            for parts in (1, 2, 3):
                assert ctx.demand(u.id, parts) == [
                    scalar.demand(u.id, bid, parts, hs.resolutions[0], hs.frame_rates[0])
                    for bid in scalar.cands[u.id]
                ]


@st.composite
def doctored_solutions(draw):
    """A vexa solution with hand edits the audit must word like the reference."""
    sc = draw(crowded_cities)
    sol = vexa(sc)
    assoc, prbs = dict(sol.assoc), dict(sol.prbs)
    res, fps, share = dict(sol.resolution), dict(sol.frame_rate), dict(sol.share)
    admitted = set(sol.admitted)
    users = sorted(admitted)
    bids = [b.id for b in sc.base_stations]
    for kind in draw(st.lists(st.sampled_from(
            ["menu", "zero", "ghost-user", "ghost-cell", "share", "saturate", "tie", "starve"]),
            max_size=4)):
        if not users:
            break
        uid = draw(st.sampled_from(users))
        bid = assoc[uid][0]
        if kind == "menu":
            # off the menu, or missing altogether
            edit = draw(st.sampled_from(["res", "fps", "no-res", "no-fps"]))
            if edit == "res":
                res[uid] = (draw(st.integers(1, 4000)), 7)
            elif edit == "fps":
                fps[uid] = draw(st.integers(1, 500))
            elif edit == "no-res":
                res.pop(uid, None)
            else:
                fps.pop(uid, None)
        elif kind == "zero":
            prbs[(uid, bid)] = draw(st.integers(-2, 0))
        elif kind == "ghost-user":
            ghost = f"ghost{len(admitted)}"
            admitted.add(ghost)
            assoc[ghost] = (bid,)
            prbs[(ghost, bid)] = 5
            res[ghost], fps[ghost], share[(ghost, bid)] = res.get(uid), 90, 1.0
        elif kind == "ghost-cell":
            assoc[uid] += ("bs-ghost",)
            prbs[(uid, "bs-ghost")] = draw(st.integers(0, 5))
            share[(uid, "bs-ghost")] = 0.5
        elif kind == "share":
            edit = draw(st.sampled_from([0.0, -0.5, 0.7, 2.0, None]))
            if edit is None:
                share.pop((uid, bid), None)
            else:
                share[(uid, bid)] = edit
        elif kind == "saturate":
            # one frame rate (off the menu) fills the cell's queue for all
            fps[uid] = int(sc.bs(bid).frame_capacity_fps) + draw(st.integers(-1, 1))
        elif kind == "tie":
            # the same cell twice, or a second cell with no grants at all:
            # the first of equal columns binds
            other = draw(st.sampled_from([bid, *bids]))
            assoc[uid] += (other,)
            prbs.setdefault((uid, other), 0)
            if other != bid:
                prbs[(uid, bid)] = 0
            share[(uid, other)] = share.get((uid, other), 0.5)
        elif kind == "starve":
            # too few grants for the stream and for the deadline
            prbs[(uid, bid)] = draw(st.integers(1, 3))
    return sc, Stage1Solution(assoc, prbs, res, fps, share, frozenset(admitted))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=doctored_solutions())
def test_audit_matches_the_reference(case):
    sc, sol = case
    assert outcome(verify_stage1, sol, sc) == outcome(ref.verify_stage1, sol, sc)
    assert outcome(by_user, sc, sol) == outcome(ref.latency_columns, sc, sol)


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
    """A solve prices each (user, cell, rung) column at most once, in
    batches, and demand only reads what was priced."""
    priced: list[tuple[int, int, int]] = []
    calls = {"price": 0, "fixed": 0, "demand": 0}
    asking: list[str] = []
    price, demand, fixed_parts = stage1._Ctx._price, stage1._Ctx.demand, stage1.fixed_parts

    def counted_price(self, rows, cols, rungs):
        calls["price"] += 1
        priced.extend(zip(rows.tolist(), cols.tolist(), rungs.tolist()))
        return price(self, rows, cols, rungs)

    def counted_demand(self, uid, parts):
        calls["demand"] += 1
        asking.append(uid)
        try:
            return demand(self, uid, parts)
        finally:
            asking.pop()

    def counted_fixed(*args):
        assert not asking, "demand priced a column"
        calls["fixed"] += 1
        return fixed_parts(*args)

    monkeypatch.setattr(stage1._Ctx, "_price", counted_price)
    monkeypatch.setattr(stage1._Ctx, "demand", counted_demand)
    monkeypatch.setattr(stage1, "fixed_parts", counted_fixed)
    sc = crowded_city(21, 120, 4, 800.0, usable_prbs=2)
    vexa(sc)
    assert calls["demand"] >= len(sc.users)
    assert calls["fixed"] == calls["price"]
    assert len(priced) > len(sc.users)
    assert len(set(priced)) == len(priced)


def test_no_stage1_state_outlives_its_solve():
    """A run keeps nothing of its solves: the scenario holds only what
    link_tables leaves, the tables only their fields, a solution no memo,
    and an upgrade pass run on a solution leaves nothing on it."""
    sc = crowded_city(3, 150, 3, 400.0, usable_prbs=2)
    fresh = set(replace(sc)._lookup)
    run_experiment(sc, ("vexa", "sa", "dc"))
    lt = link_tables(sc)
    assert set(sc._lookup) == fresh | {"links"}
    assert set(vars(lt)) == {f.name for f in fields(lt)}
    sol = vexa(sc)
    assert sol._memo == {}
    maximize_qoe(sol, sc)
    assert sol._memo == {}


def test_a_solve_builds_one_state_and_one_solution(monkeypatch):
    """vexa's upgrade pass runs on the state admission built."""
    calls = {"state": 0, "solution": 0}
    init, to_solution = stage1._State.__init__, stage1._State.to_solution

    def counted_init(self, ctx):
        calls["state"] += 1
        init(self, ctx)

    def counted_to_solution(self):
        calls["solution"] += 1
        return to_solution(self)

    monkeypatch.setattr(stage1._State, "__init__", counted_init)
    monkeypatch.setattr(stage1._State, "to_solution", counted_to_solution)
    sc = crowded_city(3, 150, 3, 400.0, usable_prbs=2)
    for name, solve in SOLVERS.items():
        calls.update(state=0, solution=0)
        solve(sc)
        assert calls == {"state": 1, "solution": 1}, name
