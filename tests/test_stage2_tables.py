"""The table-driven stage-2 solvers against the scalar reference, and the
stage-2 verifier against hand-edited gepar solutions."""
import inspect
import json
import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import scalar_stage2 as ref
from helpers import make_scenario
from vrcgsim.scenario import generate_synthetic, load_scenario, scenario_to_json
from vrcgsim.stage1 import vexa
from vrcgsim.stage2 import (
    Stage2Solution,
    baseline_single_path,
    baseline_unconstrained,
    gepar,
    stage2_inputs,
    stage2_table,
    variable_cost,
    verify_stage2,
)

CAPS = ("gpu_cap", "cpu_cap", "ram_cap", "net_cap")


def reloaded(sc, edit):
    """sc written out, changed by edit(cfg) and loaded back."""
    cfg = json.loads(scenario_to_json(sc))
    edit(cfg)
    return load_scenario(json.dumps(cfg))


def tight_city(seed, n_users, n_bs, n_cns, k_paths, max_connections, node_scale, link_scale,
               migration_unit_cost=5.0):
    """A small city whose nodes hold a few engines and whose crosshaul
    links a few streams, so that flows split around the ring."""
    sc = generate_synthetic(seed=seed, n_users=n_users, n_bs=n_bs, n_cns=n_cns,
                            area_m=(800.0, 800.0),
                            overrides={"k_paths": k_paths, "max_connections": max_connections,
                                       "migration_unit_cost": migration_unit_cost})
    cells = {b.id for b in sc.base_stations}

    def tighten(cfg):
        for cn in cfg["compute_nodes"]:
            for cap in CAPS:
                cn[cap] *= node_scale
        for ln in cfg["links"]:
            if not {ln["src"], ln["dst"]} & cells:
                ln["capacity_bps"] *= link_scale

    return reloaded(sc, tighten)


tight_cities = st.builds(
    tight_city,
    seed=st.integers(0, 10_000),
    n_users=st.integers(3, 40),
    n_bs=st.integers(1, 4),
    n_cns=st.integers(1, 7),
    k_paths=st.integers(1, 3),
    max_connections=st.integers(1, 3),
    node_scale=st.sampled_from([1e-2, 3e-2, 0.1, 1.0]),
    link_scale=st.sampled_from([2e-3, 5e-3, 1e-2, 1.0]),
    migration_unit_cost=st.sampled_from([0.5, 5.0, 40.0]),
)


def exact(sol: Stage2Solution):
    """Every field of a solution, dicts in their own order."""
    return (list(sol.placement.items()), list(sol.selected_paths.items()),
            list(sol.flow.items()), sol.active_cns, sol.unplaced)


def outcome(fn, *args):
    """What a solver returns, or the type and text of what it raises."""
    try:
        return exact(fn(*args))
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def placement_cases(draw):
    """A tight city, its vexa solution with up to max_connections serving
    cells per user, and a previous placement, or none."""
    sc = draw(tight_cities)
    s1 = vexa(sc)
    assoc, prbs, share = dict(s1.assoc), dict(s1.prbs), dict(s1.share)
    cells = [b.id for b in sc.base_stations]
    for uid in sorted(s1.admitted):
        # vexa splits a stream only when no single cell takes it; the
        # serving cells are drawn here so that routes to several cells
        # must be priced and fit together
        more = draw(st.lists(st.sampled_from(cells), max_size=sc.radio.max_connections - 1))
        if more:
            first = assoc[uid][0]
            assoc[uid] += tuple(more)
            for bid in assoc[uid]:
                prbs.setdefault((uid, bid), prbs[(uid, first)])
                share[(uid, bid)] = 1.0 / len(assoc[uid])
    s1 = replace(s1, assoc=assoc, prbs=prbs, share=share)
    ids = [c.id for c in sc.compute_nodes]
    prev = None
    if draw(st.booleans()):
        # each admitted user was on a random node, or nowhere
        users = sorted(s1.admitted)
        was = draw(st.lists(st.sampled_from([None, *ids]), min_size=len(users), max_size=len(users)))
        prev = {uid: cid for uid, cid in zip(users, was) if cid is not None}
    return sc, s1, prev


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=placement_cases())
def test_placement_matches_the_reference(case):
    sc, s1, prev = case
    for fast, slow in ((gepar, ref.gepar), (baseline_single_path, ref.baseline_single_path),
                       (baseline_unconstrained, ref.baseline_unconstrained)):
        assert outcome(fast, sc, s1, prev) == outcome(slow, sc, s1, prev)
    # the price is variable_cost to the last bit, not only where it ranks
    table, demand = stage2_table(sc, s1), stage2_inputs(sc, s1).demand
    assert table.variable.tolist() == [[variable_cost(c, demand[uid]) for c in sc.compute_nodes]
                                       for uid in table.users]


def test_an_unpriceable_move_raises_what_the_reference_raises():
    """Built past validation: every node still has its routes to bs0, but
    no crosshaul link joins the nodes, so no move has a hop count."""
    sc = make_scenario(
        users=[{"id": f"u{i}", "position": [1008.0 + i, 1000.0], "game": "gq"} for i in range(3)],
        base_stations=[{"id": "bs0", "position": [1000.0, 1000.0], "nearest_cn": "cnA"}],
        compute_nodes=[
            {"id": "cnA", "position": [1000.0, 1000.0]},
            {"id": "cnB", "position": [1500.0, 1000.0]},
            {"id": "cnC", "position": [2000.0, 1000.0]},
        ],
        links=[
            {"src": a, "dst": b, "capacity_bps": cap, "latency_s": lat}
            for x, y, cap, lat in (("cnA", "bs0", 10e9, 5e-5), ("cnA", "cnB", 40e9, 5e-4),
                                   ("cnB", "cnC", 40e9, 5e-4))
            for a, b in ((x, y), (y, x))
        ],
    )
    sc = replace(sc, links=tuple(ln for ln in sc.links if ln.dst == "bs0"))
    s1 = vexa(sc)
    assert s1.admitted == {"u0", "u1", "u2"}
    assert stage2_table(sc, s1).ok.all()
    prev = {"u0": "cnC", "u1": "cnB", "u2": "cnA"}
    for fast, slow in ((gepar, ref.gepar), (baseline_single_path, ref.baseline_single_path)):
        got = outcome(fast, sc, s1, prev)
        assert got == outcome(slow, sc, s1, prev)
        assert got[0] is ValueError and "no crosshaul route" in got[1]
    # staying put prices no move, so nothing raises
    assert outcome(gepar, sc, s1, {"u0": "cnA"}) == outcome(ref.gepar, sc, s1, {"u0": "cnA"})


def test_the_table_is_read_only_and_kept_on_the_solution():
    sc = tight_city(5, 30, 3, 5, 2, 2, 1.0, 1.0)
    s1 = vexa(sc)
    table = stage2_table(sc, s1)
    assert list(table.users) == sorted(s1.admitted)
    assert table.ok.shape == table.variable.shape == (len(s1.admitted), len(sc.compute_nodes))
    assert table.fastest.shape == (len(sc.base_stations), len(sc.compute_nodes))
    assert (table.ok <= table.routed).all()
    for array in (table.fastest, table.routed, table.ok, table.worst, table.variable,
                  table.lateness):
        assert not array.flags.writeable
    assert stage2_table(sc, s1) is table


# ---------------------------------------------------------------------------
# Doctored solutions


def doctor_city(seed, n_users, n_bs):
    """A city with one regional and one cloud node that gepar never takes:
    every route from either crosses a 1 kbit/s regional link, and the
    cloud's links take a second each and it renders one pixel per second."""
    sc = generate_synthetic(seed=seed, n_users=n_users, n_bs=n_bs, n_cns=n_bs + 2,
                            area_m=(800.0, 800.0), overrides={"regional_cap_bps": 1e3})

    def slow_cloud(cfg):
        (cloud,) = [cn for cn in cfg["compute_nodes"] if cn["tier"] == "cloud"]
        cloud["gpu_cap"] = 1.0
        for ln in cfg["links"]:
            if cloud["id"] in (ln["src"], ln["dst"]):
                ln["latency_s"] = 1.0

    return reloaded(sc, slow_cloud)


def _move(sc, s1, sol, uid, tier):
    """uid's engine on the node of that tier, all flow on its fastest routes."""
    (cid,) = [c.id for c in sc.compute_nodes if c.tier == tier]
    sol.placement[uid] = cid
    for key in [key for key in sol.flow if key[0] == uid]:
        del sol.flow[key]
    for bid in s1.assoc[uid]:
        sol.flow[(uid, sc.paths(bid, cid)[0].id)] = 1.0
    sol.selected_paths[uid] = tuple(sorted(pid for u, pid in sol.flow if u == uid))


def _toward(sc, s1, sol, uid):
    """uid's first serving cell and the flow keys routed toward it."""
    bid = s1.assoc[uid][0]
    ours = {p.id for p in sc.paths(bid, sol.placement[uid])}
    return bid, [key for key in sol.flow if key[0] == uid and key[1] in ours]


def _unknown_node(sc, s1, sol, uid):
    sol.placement[uid] = "cn-ghost"


def _not_admitted(sc, s1, sol, uid):
    sol.placement["ghost"] = sol.placement[uid]


def _missing(sc, s1, sol, uid):
    del sol.placement[uid], sol.selected_paths[uid]
    for key in [key for key in sol.flow if key[0] == uid]:
        del sol.flow[key]


def _keys_disagree(sc, s1, sol, uid):
    sol.selected_paths[uid] = sol.selected_paths[uid][:-1]


def _no_path(sc, s1, sol, uid):
    _, keys = _toward(sc, s1, sol, uid)
    for key in keys:
        del sol.flow[key]
    sol.selected_paths[uid] = tuple(sorted(pid for u, pid in sol.flow if u == uid))


def _short(sc, s1, sol, uid):
    key = _toward(sc, s1, sol, uid)[1][0]
    sol.flow[key] *= 0.5


def _under_minimum(sc, s1, sol, uid):
    key = _toward(sc, s1, sol, uid)[1][0]
    sol.flow[key] = sc.radio.epsilon / 2


def _stray(sc, s1, sol, uid):
    sol.flow[(uid, "path-ghost")] = 0.0
    sol.selected_paths[uid] = tuple(sorted((*sol.selected_paths[uid], "path-ghost")))


def _placed_and_unplaced(sc, s1, sol, uid):
    sol.unplaced.add(uid)


def _unplaced_ghost(sc, s1, sol, uid):
    sol.unplaced.add("ghost")


# each edit, the finding it must yield, and the subject: the user, or the
# node or link the user was moved onto
EDITS = {
    "unknown node": (_unknown_node, "placement", "unknown node {solution.placement[uid]}"),
    "placed but not admitted": (_not_admitted, "placement", "placed but not admitted in stage 1"),
    "missing user": (_missing, "placement", "admitted user neither placed nor reported"),
    "over node capacity": (lambda *a: _move(*a, "cloud"), "capacity",
                           "{name} load {got:.6g} over cap {cap:.6g}"),
    "flow keys disagree": (_keys_disagree, "routing", "flow keys disagree with selected paths"),
    "no path toward a cell": (_no_path, "routing", "no path selected toward {bid}"),
    "flows not summing to 1": (_short, "routing", "flow toward {bid} sums to {total:.9f}"),
    "flow under minimum": (_under_minimum, "routing",
                           "flow {frac:.4f} on {pid} under minimum"),
    "stray path": (_stray, "routing", "flow on unknown paths {sorted(stray)}"),
    "deadline miss": (lambda *a: _move(*a, "cloud"), "deadline",
                      "stage-2 latency via {bid} exceeds budget"),
    "link overload": (lambda *a: _move(*a, "regional"), "link",
                      "flow {link_load[ln.id]:.6g} over capacity {ln.capacity_bps:.6g}"),
    "placed and unplaced": (_placed_and_unplaced, "placement", "placed and reported unplaced"),
    "unplaced but not admitted": (_unplaced_ghost, "placement",
                                  "reported unplaced but not admitted in stage 1"),
}


def wording(template: str):
    """A finding's template as a regex: each {field} matches any text."""
    return re.compile("".join(
        ".+" if part.startswith("{") else re.escape(part)
        for part in re.split(r"(\{[^}]*\})", template)))


def test_every_finding_verify_stage2_words_has_an_edit():
    source = inspect.getsource(verify_stage2)
    found = re.findall(r'Violation\(\s*"(\w+)",\s*[\w.]+,\s*f?"([^"]*)"', source)
    assert len(found) == source.count("Violation(")
    assert sorted(found) == sorted((kind, template) for _, kind, template in EDITS.values())


@pytest.mark.parametrize("edit", EDITS)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_users=st.integers(3, 25), n_bs=st.integers(1, 3),
       data=st.data())
def test_each_doctored_solution_yields_its_finding(edit, seed, n_users, n_bs, data):
    sc = doctor_city(seed, n_users, n_bs)
    s1 = vexa(sc)
    sol = gepar(sc, s1)
    assert verify_stage2(sol, sc, s1) == []
    placed = sorted(sol.placement)
    assume(placed)
    assert set(sol.active_cns) <= {c.id for c in sc.compute_nodes if c.tier == "edge"}
    uid = data.draw(st.sampled_from(placed))
    doctored = Stage2Solution(dict(sol.placement), dict(sol.selected_paths), dict(sol.flow),
                              sol.active_cns, set(sol.unplaced))
    apply, kind, template = EDITS[edit]
    apply(sc, s1, doctored, uid)
    pattern = wording(template)
    findings = verify_stage2(replace(doctored, unplaced=frozenset(doctored.unplaced)), sc, s1)
    assert any(v.kind == kind and pattern.fullmatch(v.detail) for v in findings), findings
