"""Stage 3 on arrays against its grant-by-grant reference.

tests/scalar_stage3.py keeps the grant layout, the frame drain and the
schedule audit as plain loops. Generated cities and doctored schedules
go through both versions, which must agree exactly: the same reports
with the same key order, the same violations in the same order and
words, and the same exceptions.
"""
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import scalar_stage3 as ref
from helpers import make_scenario
from vrcgsim import stage1, stage3
from vrcgsim.metrics import run_experiment
from vrcgsim.radio import link_tables
from vrcgsim.scenario import generate_synthetic
from vrcgsim.stage1 import Stage1Solution, grant_pool, vexa
from vrcgsim.stage3 import (
    Stage3Solution,
    amps,
    baseline_proportional_fair,
    baseline_round_robin,
    flat_schedule,
    mtp_latency,
    mtpsched,
    verify_stage3,
)

PIPELINE = ("vexa", "gepar", "amps", "mtpsched")


@st.composite
def cities(draw, ttis=(1, 7, 40, 200)):
    """A small generated city and its stage-1 solution.

    Short windows and few PRBs crowd the cells, so users get truncated
    frames, and a relaxed deadline lets stage 1 split streams. Some users
    are then joined to extra cells, so several cells serve one user and
    may grant it the same TTI.
    """
    overrides = {
        "ttis_per_window": draw(st.sampled_from(ttis)),
        "usable_prbs": draw(st.integers(1, 6)),
        "shared_channel": draw(st.booleans()),
    }
    if draw(st.booleans()):
        overrides["deadline_s"] = 0.05
    sc = generate_synthetic(
        seed=draw(st.integers(0, 10_000)), n_users=draw(st.integers(1, 50)),
        n_bs=draw(st.integers(1, 4)), n_cns=3, area_m=(600.0, 600.0),
        overrides=overrides,
    )
    s1 = vexa(sc)
    assoc, prbs = dict(s1.assoc), dict(s1.prbs)
    for uid in draw(st.lists(st.sampled_from(sorted(s1.admitted)), max_size=5,
                             unique=True) if s1.admitted else st.just([])):
        for b in sc.base_stations:
            if b.id not in assoc[uid] and draw(st.booleans()):
                assoc[uid] += (b.id,)
                prbs[(uid, b.id)] = draw(st.integers(1, 4))
    s1 = Stage1Solution(assoc, prbs, s1.resolution, s1.frame_rate, s1.share, s1.admitted)
    return sc, s1


def _outcome(fn, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


def _report(rep):
    if isinstance(rep, tuple):
        return rep
    # the reference keeps tuples of floats, the array code read-only views
    samples = [(uid, tuple(v)) for uid, v in rep.samples.items()]
    return (list(rep.average_s.items()), samples, rep.truncated)


def _check(sol, sc, s1):
    """The array code and the reference agree on sol."""
    assert _report(_outcome(mtp_latency, sol, sc, s1)) == _report(
        _outcome(ref.mtp_latency, sol, sc, s1))
    found = _outcome(ref.verify_stage3, sol, sc, s1)
    assert _outcome(verify_stage3, sol, sc, s1) == found


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(city=cities())
def test_solver_schedules_match_the_reference(city):
    sc, s1 = city
    expected = _outcome(ref.mtpsched, sc, s1)
    got = _outcome(mtpsched, sc, s1)
    sols = [baseline_round_robin(sc, s1), baseline_proportional_fair(sc, s1)]
    if isinstance(expected, tuple):
        assert got == expected
        assert _outcome(amps, sc, s1) == expected
    else:
        assert list(got.schedule.items()) == list(expected.schedule.items())
        assert list(got.tti_groups.items()) == list(expected.tti_groups.items())
        sols += [amps(sc, s1), got]
    for sol in sols:
        _check(sol, sc, s1)


def _same_schedule(got, expected):
    assert list(got.schedule.items()) == list(expected.schedule.items())
    assert list(got.tti_groups.items()) == list(expected.tti_groups.items())


@pytest.mark.parametrize("seed", [1000, 1001])
def test_paper_city_schedules_match_the_reference(seed):
    sc = generate_synthetic(seed=seed, n_users=1200, n_bs=10, n_cns=13)
    s1 = vexa(sc)
    _same_schedule(mtpsched(sc, s1), ref.mtpsched(sc, s1))


RATES = (72, 90)  # 3 and 4 groups in a 0.05 s window


@st.composite
def extra_grants(draw):
    """Users owing more grants than they have groups, two frame rates a cell.

    Every serving cell owes its user one to four grants beyond its groups,
    and the first two users share cell 0 at different frame rates. Short
    windows with few PRBs make the extras of one user compete for a TTI.
    """
    ttis = draw(st.sampled_from((12, 40, 200)))
    usable = draw(st.integers(1, 6))
    sc = generate_synthetic(
        seed=draw(st.integers(0, 10_000)),
        n_users=draw(st.integers(2, max(2, min(30, ttis * usable // 12)))),
        n_bs=draw(st.integers(1, 3)), n_cns=3, area_m=(600.0, 600.0),
        overrides={"ttis_per_window": ttis, "tti_s": 0.05 / ttis, "usable_prbs": usable},
    )
    cells = [b.id for b in sc.base_stations]
    assoc, prbs, fps = {}, {}, {}
    for k, u in enumerate(sc.users):
        fps[u.id] = RATES[k] if k < 2 else draw(st.sampled_from(RATES))
        first = cells[0] if k < 2 else draw(st.sampled_from(cells))
        rest = [b for b in cells if b != first]
        assoc[u.id] = (first, *(draw(st.lists(st.sampled_from(rest), max_size=1))
                                if rest else ()))
        for bid in assoc[u.id]:
            prbs[(u.id, bid)] = sc.radio.tti_groups_for(fps[u.id]) + draw(st.integers(1, 4))
    s1 = Stage1Solution(
        assoc, prbs,
        {u.id: sc.headset_of(u).resolutions[0] for u in sc.users}, fps,
        {key: 1.0 / len(assoc[key[0]]) for key in prbs},
        frozenset(u.id for u in sc.users),
    )
    return sc, s1


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(city=extra_grants())
def test_extra_grants_match_the_reference(city):
    sc, s1 = city
    groups = [sc.radio.tti_groups_for(s1.frame_rate[uid]) for uid in ("u0", "u1")]
    assert groups[0] != groups[1]
    expected = _outcome(ref.mtpsched, sc, s1)
    got = _outcome(mtpsched, sc, s1)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        _same_schedule(got, expected)
        _check(got, sc, s1)


def _hand_layout(owed, ttis=4):
    """One cell of one PRB over `ttis` TTIs; owed holds (frame rate, grants).

    A 0.03 s window gives 72 fps two groups and 30 fps one.
    """
    sc = make_scenario(
        users=[{"id": f"u{k}", "position": [1008.0, 1000.0], "game": "gq"}
               for k in range(len(owed))],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0], "usable_prbs": 1}],
        radio={"ttis_per_window": ttis, "tti_s": 0.03 / ttis},
    )
    uids = [f"u{k}" for k in range(len(owed))]
    s1 = Stage1Solution(
        {uid: ("bs0",) for uid in uids},
        {(uid, "bs0"): y for uid, (_, y) in zip(uids, owed)},
        {uid: (960, 1080) for uid in uids},
        {uid: fps for uid, (fps, _) in zip(uids, owed)},
        {(uid, "bs0"): 1.0 for uid in uids},
        frozenset(uids),
    )
    return sc, s1


@pytest.mark.parametrize("owed, message", [
    ([(72, 5)], "5 grants exceed the 4 schedulable on bs0"),
    # u0's pin takes TTI 2 and u1's TTIs 1 and 3, so u2 finds group 0
    # ([0, 2)) open and group 1 ([2, 4)) full; u3's debt keeps the total
    # within the pool
    ([(30, 1), (72, 2), (72, 2), (72, -1)], "no spare TTI left in group 1 on bs0"),
    # u1's pin and first two extras leave one TTI for its last two extras
    ([(30, -2), (30, 5)], "schedule of bs0 is full"),
])
def test_layout_errors_match_the_reference(owed, message):
    sc, s1 = _hand_layout(owed)
    with pytest.raises(ValueError) as raised:
        mtpsched(sc, s1)
    assert type(raised.value) is ValueError and str(raised.value) == message
    assert _outcome(ref.mtpsched, sc, s1) == (ValueError, message)


def test_seeded_flat_grants_equal_a_rebuild():
    """amps and mtpsched share the layout's grant arrays, read-only."""
    sc = generate_synthetic(seed=4, n_users=60, n_bs=3, n_cns=4)
    s1 = vexa(sc)
    sols = [amps(sc, s1), mtpsched(sc, s1)]
    seeded = [sol._memo["flat"][1] for sol in sols]
    for sol, flat in zip(sols, seeded):
        fresh = Stage3Solution(sol.object_resolution, sol.schedule, sol.tti_groups)
        rebuilt = flat_schedule(fresh, sc)
        for name in vars(rebuilt):
            got, want = getattr(flat, name), getattr(rebuilt, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert not got.flags.writeable
        assert flat_schedule(sol, sc) is flat
    assert all(a is b for a, b in zip(vars(seeded[0]).values(), vars(seeded[1]).values()))


def test_fixed_latency_is_priced_once_per_timestep(monkeypatch):
    """A timestep's audit, placement and latency metric read one latency
    table, so each cell's queue is priced once per stage-1 solution."""
    queued = []
    queue = stage1.buffer_latency_s
    monkeypatch.setattr(stage1, "buffer_latency_s",
                        lambda bs, fps: queued.append(bs.id) or queue(bs, fps))
    sc = generate_synthetic(seed=4, n_users=60, n_bs=3, n_cns=4)
    (report,) = run_experiment(sc, ["vexa", "gepar", "amps", "mtpsched"])
    assert queued == [b.id for b in sc.base_stations]
    assert report.methods["amps"].avg_mtp_s > 0 and report.methods["mtpsched"].avg_mtp_s > 0


def test_scene_loads_are_priced_once_per_solution(monkeypatch):
    """mtp_latency and the audit's load pass share one scene load per user."""
    priced = []
    load = stage3.objects_load
    monkeypatch.setattr(stage3, "objects_load", lambda *a: priced.append(a[3]) or load(*a))
    sc = generate_synthetic(seed=4, n_users=60, n_bs=3, n_cns=4)
    s1 = vexa(sc)
    for sol in (amps(sc, s1), mtpsched(sc, s1)):
        priced.clear()
        report = mtp_latency(sol, sc, s1)
        assert verify_stage3(sol, sc, s1) == []
        assert sorted(priced) == sorted(s1.admitted) == sorted(report.average_s)


EDITS = (
    "drop", "move", "zero", "negative", "add-empty", "duplicate", "overfill",
    "outside", "unserved", "ghost-user", "ghost-cell", "regroup", "no-groups",
    "short", "upgrade", "missing-object", "unknown-object", "off-menu", "starts",
)


def _doctor(kind, draw, sol, sc, s1):
    """sol and s1 after one hand edit of a kind a tampered file carries.

    Most kinds break one section of the audit only, so a numpy pass that
    misses its own kind of fault cannot hide behind another section.
    """
    schedule = {k: list(v) for k, v in sol.schedule.items()}
    resolutions = dict(sol.object_resolution)
    groups = dict(sol.tti_groups)
    prbs = dict(s1.prbs)
    ttis = sc.radio.ttis_per_window
    users = sorted(s1.admitted)
    cells = [b.id for b in sc.base_stations]
    se = link_tables(sc).se_of

    def used(bid, tti):
        return sum(n for _, n in schedule.get((bid, tti), ()))

    def served(uid):
        return sum(
            n * se(uid, bid) for (bid, _), entries in schedule.items()
            for u, n in entries if u == uid
        )

    keys = sorted(k for k, v in schedule.items() if v)
    uid = draw(st.sampled_from(users))
    bid = draw(st.sampled_from(s1.assoc[uid]))
    if kind in ("drop", "move", "zero", "negative", "add-empty", "duplicate"):
        key = draw(st.sampled_from(keys))
        i = draw(st.integers(0, len(schedule[key]) - 1))
        who, n = schedule[key][i]
        if kind == "drop":
            del schedule[key][i]
        elif kind == "move":  # totals stay; the TTI may overflow or leave the window
            del schedule[key][i]
            to = (key[0], draw(st.integers(0, ttis - 1) | st.sampled_from([-1, ttis])))
            schedule.setdefault(to, []).append((who, n))
        elif kind in ("zero", "negative"):
            schedule[key][i] = (who, 0 if kind == "zero" else -draw(st.integers(1, 3)))
        elif kind == "add-empty":
            schedule[key].append((who, 0))
        else:  # the same user twice in one TTI
            schedule[key].append((who, draw(st.integers(1, 3))))
    elif kind == "overfill":
        # grants of one cell gather in one TTI: totals stay, capacity breaks
        cell = draw(st.sampled_from(cells))
        to = (cell, draw(st.integers(0, ttis - 1)))
        for key in keys:
            if key[0] == cell and key != to and used(*to) <= sc.bs(cell).usable_prbs:
                schedule.setdefault(to, []).extend(schedule.pop(key))
    elif kind == "outside":  # one more grant, owed too, outside the window
        tti = draw(st.sampled_from([-2, -1, ttis, ttis + 3]))
        schedule.setdefault((bid, tti), []).append((uid, 1))
        prbs[(uid, bid)] += 1
    elif kind == "unserved":
        schedule.setdefault((draw(st.sampled_from(cells)), 0), []).append((uid, 1))
    elif kind == "ghost-user":
        schedule.setdefault((bid, 0), []).append(("ghost", 1))
    elif kind == "ghost-cell":
        schedule.setdefault(("bs-ghost", 0), []).append((draw(st.sampled_from([uid, "ghost"])), 1))
    elif kind == "regroup":
        # the user's grants in one group on one cell move to a TTI with
        # room outside the group: totals stay, coverage breaks
        starts = list(groups[uid]) + [ttis]
        j = draw(st.integers(0, len(groups[uid]) - 1))
        inside = [k for k in keys if k[0] == bid and starts[j] <= k[1] < starts[j + 1]]
        moved = sum(n for k in inside for u, n in schedule[k] if u == uid)
        room = [t for t in range(ttis) if not starts[j] <= t < starts[j + 1]
                and used(bid, t) + moved <= sc.bs(bid).usable_prbs]
        if room:
            for k in inside:
                schedule[k] = [e for e in schedule[k] if e[0] != uid]
            schedule.setdefault((bid, draw(st.sampled_from(room))), []).append((uid, moved))
    elif kind == "no-groups":
        if draw(st.booleans()):
            del groups[uid]
        else:
            groups[uid] = ()
    elif kind == "starts":
        # group starts edited by hand: unsorted, negative or past the window
        starts = draw(st.lists(st.integers(-3, ttis + 3), min_size=1, max_size=4))
        if draw(st.booleans()):
            # one more grant, owed too, outside the window and alone in group 0
            tti = draw(st.sampled_from([-2, -1, ttis, ttis + 3]))
            schedule.setdefault((bid, tti), []).append((uid, 1))
            prbs[(uid, bid)] += 1
            starts[:0] = [tti, tti + 1]
        groups[uid] = tuple(starts)
    elif kind == "short":
        # grants go, and stage 1 owes fewer, until they no longer carry the scene
        scene = stage3.objects_load(sc, s1, resolutions, uid)
        for key in sorted((k for k in keys if k[0] == bid), reverse=True):
            if served(uid) < scene * (1 - 1e-9):
                break
            for i, (u, n) in enumerate(schedule[key]):
                if u == uid:
                    schedule[key][i] = (u, n - 1)
                    schedule[key] = [e for e in schedule[key] if e[1] > 0]
                    prbs[(uid, bid)] -= 1
                    break
    elif kind == "upgrade":
        # every object at the top rung, over the stage-1 budget, with
        # grants added in spare room so that throughput still holds
        top = sc.headset_of(sc.user(uid)).resolutions[-1]
        for o in sc.user(uid).objects:
            resolutions[(uid, o.id)] = top
        scene = stage3.objects_load(sc, s1, resolutions, uid)
        for tti in range(ttis):
            if served(uid) >= scene:
                break
            if used(bid, tti) < sc.bs(bid).usable_prbs:
                schedule.setdefault((bid, tti), []).append((uid, 1))
                prbs[(uid, bid)] += 1
    elif kind == "missing-object":
        del resolutions[draw(st.sampled_from(sorted(resolutions)))]
    elif kind == "unknown-object":
        resolutions[(draw(st.sampled_from([uid, "ghost"])), "o-ghost")] = (960, 1080)
    else:
        resolutions[draw(st.sampled_from(sorted(resolutions)))] = (123, 456)
    doctored = Stage3Solution(resolutions, {k: tuple(v) for k, v in schedule.items()}, groups)
    return doctored, Stage1Solution(s1.assoc, prbs, s1.resolution, s1.frame_rate,
                                    s1.share, s1.admitted)


@pytest.mark.parametrize("kind", EDITS)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(city=cities(ttis=(7, 40, 200)), data=st.data())
def test_doctored_schedules_match_the_reference(kind, city, data):
    sc, s1 = city
    base = _outcome(mtpsched, sc, s1)
    assume(not isinstance(base, tuple) and base.schedule)
    sol, doctored_s1 = _doctor(kind, data.draw, base, sc, s1)
    _check(sol, sc, doctored_s1)


def test_grant_layout_is_built_once_per_timestep(monkeypatch):
    """amps and mtpsched share one layout, and none outlives its timestep."""
    built = []
    build = stage3._grant_layout

    def counted(sc, s1):
        built.append(s1)
        return build(sc, s1)

    monkeypatch.setattr(stage3, "_grant_layout", counted)
    sc = generate_synthetic(seed=4, n_users=60, n_bs=3, n_cns=4)
    tables_only = generate_synthetic(seed=4, n_users=60, n_bs=3, n_cns=4)
    link_tables(tables_only)
    run_experiment(sc, PIPELINE, timesteps=2)
    assert len(built) == 2 and built[0] is not built[1]
    assert set(sc._lookup) == set(tables_only._lookup)


def test_samples_are_read_only_views_of_one_array():
    sc = generate_synthetic(seed=4, n_users=40, n_bs=3, n_cns=4)
    s1 = vexa(sc)
    views = list(mtp_latency(mtpsched(sc, s1), sc, s1).samples.values())
    assert len(views) == len(s1.admitted)
    assert all(not v.flags.writeable and v.base is views[0].base for v in views)


def test_layout_follows_the_scenario_it_is_asked_for():
    sc = generate_synthetic(seed=4, n_users=40, n_bs=3, n_cns=4)
    fewer = generate_synthetic(seed=4, n_users=40, n_bs=3, n_cns=4,
                               overrides={"usable_prbs": 6})
    s1 = vexa(sc)
    assert mtpsched(sc, s1).schedule == ref.mtpsched(sc, s1).schedule
    # the same stage-1 solution on another scenario gets its own layout
    assert mtpsched(fewer, s1).schedule == ref.mtpsched(fewer, s1).schedule


def test_flat_view_is_made_once_per_solution():
    sc = generate_synthetic(seed=4, n_users=40, n_bs=3, n_cns=4)
    s1 = vexa(sc)
    sol = mtpsched(sc, s1)
    assert flat_schedule(sol, sc) is flat_schedule(sol, sc)
    again = mtpsched(sc, s1)
    assert again.schedule is not sol.schedule  # each solution owns its schedule
    assert flat_schedule(again, sc) is not flat_schedule(sol, sc)


@pytest.mark.parametrize("method", ["mtpsched", "rr", "pf"])
def test_usage_counts_the_grants_of_the_schedule(method):
    """rr and pf hand out every PRB, whatever stage 1 asked for."""
    sc = generate_synthetic(seed=6, n_users=30, n_bs=3, n_cns=4)
    reports, sols = run_experiment(sc, [method], collect_solutions=True)
    granted = sum(n for entries in sols[method].schedule.values() for _, n in entries)
    pool = sum(grant_pool(b, sc.radio) for b in sc.base_stations)
    assert reports[0].methods[method].prb_usage_fraction == granted / pool
    if method != "mtpsched":
        assert granted != sum(sols["stage1"].prbs.values())


def test_unknown_cell_raises_like_the_reference():
    sc = generate_synthetic(seed=4, n_users=20, n_bs=2, n_cns=3)
    s1 = vexa(sc)
    sol = mtpsched(sc, s1)
    uid = sorted(s1.admitted)[0]
    bad = Stage3Solution(sol.object_resolution,
                         {**sol.schedule, ("bs-ghost", 3): ((uid, 1),)}, sol.tti_groups)
    for fn in (mtp_latency, verify_stage3):
        with pytest.raises(KeyError, match=re.escape("bs-ghost")):
            fn(bad, sc, s1)
    _check(bad, sc, s1)
