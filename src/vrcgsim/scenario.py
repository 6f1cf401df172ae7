"""World model for the VR cloud-gaming allocation simulator.

A scenario bundles everything the three allocation stages consume: users with
headsets, games and attention-weighted scene objects, base stations with PRB
budgets, compute nodes of three tiers (edge, regional, cloud) joined by a
ring-based crosshaul, and the radio/numerology parameters. Scenarios are
value objects: generation and loading are deterministic for a given seed and
solvers never mutate them.
"""
from __future__ import annotations

import functools
import heapq
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from operator import attrgetter
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

# Per-eye resolution ladder, strictly increasing pixel count.
RESOLUTION_LADDER: tuple[tuple[int, int], ...] = (
    (960, 1080),
    (1080, 1200),
    (1280, 1440),
    (1440, 1600),
    (1440, 1700),
    (1600, 1600),
    (1832, 1920),
    (1920, 1920),
    (2064, 2208),
    (2160, 2160),
    (2160, 2400),
    (2448, 2448),
    (2560, 2560),
    (2736, 2736),
    (2880, 2720),
)

REFRESH_RATES: tuple[int, ...] = (72, 80, 90, 100, 120, 144)

# Synthetic headset market: (resolution ladder indices, refresh rates, weight).
# Weights sum to 1. Every entry starts at a low rung (ladder index 0 or 1,
# 72 Hz) so entry-level service stays possible on a loaded cell; the upper
# rungs leave headroom for per-object refinement.
_HEADSET_TABLE: tuple[tuple[tuple[int, ...], tuple[int, ...], float], ...] = (
    ((0, 1, 4), (72, 90), 0.02),
    ((0, 1, 3), (72, 90, 120), 0.03),
    ((0, 2, 5), (72, 90), 0.04),
    ((1, 3, 6), (72, 90, 120), 0.03),
    ((0, 3, 7), (72, 90, 120), 0.18),
    ((0, 1, 7), (72, 80, 90, 120), 0.06),
    ((0, 2, 7), (72, 90), 0.03),
    ((0, 1, 8), (72, 80, 90, 144), 0.05),
    ((0, 4, 8), (72, 90, 144), 0.04),
    ((1, 5, 9), (72, 90, 120), 0.08),
    ((0, 3, 9), (72, 80, 90), 0.04),
    ((1, 6, 10), (72, 90, 120), 0.03),
    ((0, 5, 10), (72, 90, 120), 0.04),
    ((1, 7, 11), (72, 90, 120, 144), 0.05),
    ((0, 6, 11), (72, 80, 90, 120), 0.03),
    ((1, 8, 12), (72, 90), 0.04),
    ((1, 9, 12), (72, 90, 120, 144), 0.02),
    ((0, 7, 13), (72, 80, 90), 0.03),
    ((1, 10, 13), (72, 90, 120), 0.02),
    ((1, 9, 14), (72, 90, 120, 144), 0.06),
    ((0, 11, 14), (72, 80, 120), 0.04),
    ((0, 8, 14), (72, 90, 100, 120), 0.04),
)

SPEED_CLASSES: tuple[tuple[str, float], ...] = (
    ("stationary", 0.0),
    ("bus", 8.0),
    ("car", 15.0),
)


class ScenarioError(ValueError):
    """Raised when a scenario config fails validation; carries every violation."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid scenario: " + "; ".join(self.violations))


# Field rules: a numeric field names its rule in its metadata. Every rule
# asks for a finite value, and a tuple-valued field applies it to each entry.
_RULES = {
    "finite": lambda v: -math.inf < v < math.inf,
    "positive": lambda v: 0 < v < math.inf,
    "non-negative": lambda v: 0 <= v < math.inf,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}
_FINITE = {"rule": "finite"}
_POSITIVE = {"rule": "positive"}
_NON_NEGATIVE = {"rule": "non-negative"}
_UNIT = {"rule": "in [0, 1]"}


@dataclass(frozen=True)
class Headset:
    id: str
    # strictly increasing pixel count
    resolutions: tuple[tuple[int, int], ...] = field(default=(), metadata=_POSITIVE)
    frame_rates: tuple[int, ...] = field(default=(), metadata=_POSITIVE)  # Hz, strictly increasing


@dataclass(frozen=True)
class Game:
    id: str
    preference_mode: str  # "quality" or "performance"


@dataclass(frozen=True)
class VirtualObject:
    id: str
    pixel_share: float = field(metadata=_UNIT)  # fraction of the frame the object occupies
    attention: float = field(metadata=_UNIT)  # fraction of user attention on the object


@dataclass(frozen=True, kw_only=True)
class User:
    id: str
    position: tuple[float, float] = field(metadata=_FINITE)
    height_m: float = field(default=1.5, metadata=_NON_NEGATIVE)
    headset: str
    game: str
    objects: tuple[VirtualObject, ...] = ()
    frame_arrival_rate: float = field(metadata=_POSITIVE)  # frames/s into the serving BS queue
    speed_mps: float = field(default=0.0, metadata=_NON_NEGATIVE)
    heading_rad: float = field(default=0.0, metadata=_FINITE)


@dataclass(frozen=True)
class BaseStation:
    id: str
    position: tuple[float, float] = field(metadata=_FINITE)
    total_prbs: int = field(metadata=_POSITIVE)
    usable_prbs: int = field(metadata=_POSITIVE)  # PRBs left after background traffic
    prb_bandwidth_hz: float = field(metadata=_POSITIVE)
    tx_power_dbm: float = field(metadata=_FINITE)
    processing_capacity_bps: float = field(metadata=_POSITIVE)  # frame processing, bits/s
    frame_capacity_fps: float = field(metadata=_POSITIVE)  # queue service rate, frames/s
    channel_id: int
    coverage_radius_m: float = field(metadata=_POSITIVE)
    nearest_cn: str


@dataclass(frozen=True)
class ResourceCosts:
    gpu: float = field(metadata=_NON_NEGATIVE)
    cpu: float = field(metadata=_NON_NEGATIVE)
    ram: float = field(metadata=_NON_NEGATIVE)
    net: float = field(metadata=_NON_NEGATIVE)


@dataclass(frozen=True)
class ComputeNode:
    id: str
    tier: str  # "edge", "regional" or "cloud"
    position: tuple[float, float] = field(metadata=_FINITE)
    gpu_cap: float = field(metadata=_POSITIVE)  # rendered pixels/s
    cpu_cap: float = field(metadata=_POSITIVE)  # frames/s
    ram_cap: float = field(metadata=_POSITIVE)  # resident pixels
    net_cap: float = field(metadata=_POSITIVE)  # bits/s
    render_speed_pps: float = field(metadata=_POSITIVE)  # pixels/s the renderer sustains
    fixed_cost: float = field(metadata=_NON_NEGATIVE)
    unit_costs: ResourceCosts

    @property
    def caps(self) -> tuple[float, float, float, float]:
        """gpu, cpu, ram and net capacity, in stage 2's demand order."""
        return (self.gpu_cap, self.cpu_cap, self.ram_cap, self.net_cap)


@dataclass(frozen=True)
class Link:
    src: str
    dst: str
    capacity_bps: float = field(metadata=_POSITIVE)
    latency_s: float = field(metadata=_NON_NEGATIVE)

    @functools.cached_property
    def id(self) -> str:
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True)
class Path:
    id: str
    cn: str
    bs: str
    links: tuple[Link, ...]
    latency_s: float
    nodes: tuple[str, ...]


@dataclass(frozen=True)
class RadioParams:
    carrier_ghz: float = field(default=3.5, metadata=_POSITIVE)
    noise_density_dbm_hz: float = field(default=-174.0, metadata=_FINITE)
    los_threshold_m: float = field(default=50.0, metadata=_NON_NEGATIVE)
    speed_of_light_mps: float = field(default=3.0e8, metadata=_POSITIVE)
    bits_per_pixel: float = field(default=24.0, metadata=_POSITIVE)
    compression_rate: float = field(default=0.01, metadata=_POSITIVE)
    tti_s: float = field(default=5.0e-4, metadata=_POSITIVE)
    ttis_per_window: int = field(default=2000, metadata=_POSITIVE)
    max_connections: int = field(default=3, metadata=_POSITIVE)
    epsilon: float = 0.05  # minimum flow fraction per selected path, in [0, 1)
    migration_unit_cost: float = field(default=5.0, metadata=_NON_NEGATIVE)
    k_paths: int = field(default=3, metadata=_POSITIVE)
    deadline_s: float | None = None  # None means one frame period (1/fps)

    @property
    def window_s(self) -> float:
        return self.tti_s * self.ttis_per_window

    def tti_groups_for(self, fps: float) -> int:
        """Number of frame-period groups the scheduling window splits into."""
        return max(1, int(math.floor(fps * self.window_s + 1e-9)))

    def deadline_for(self, fps: float) -> float:
        return self.deadline_s if self.deadline_s is not None else 1.0 / fps


def pixels(resolution: tuple[int, int]) -> int:
    return resolution[0] * resolution[1]


@dataclass(frozen=True, kw_only=True)
class Scenario:
    seed: int = field(metadata=_NON_NEGATIVE)
    # None: the extent the base stations cover
    area_m: tuple[float, float] | None = field(default=None, metadata=_POSITIVE)
    radio: RadioParams
    users: tuple[User, ...]
    base_stations: tuple[BaseStation, ...]
    compute_nodes: tuple[ComputeNode, ...]
    links: tuple[Link, ...]
    headsets: tuple[Headset, ...]
    games: tuple[Game, ...]
    # derived state, left out of comparison and of the config
    paths_by_bs_cn: dict[tuple[str, str], tuple[Path, ...]] = field(
        compare=False, repr=False, default_factory=dict
    )
    _lookup: dict = field(compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if self.area_m is None:
            object.__setattr__(self, "area_m", tuple(
                max((b.position[i] + b.coverage_radius_m for b in self.base_stations), default=1.0)
                for i in (0, 1)
            ))
        lk = {
            "user": {u.id: u for u in self.users},
            "bs": {b.id: b for b in self.base_stations},
            "cn": {c.id: c for c in self.compute_nodes},
            "headset": {h.id: h for h in self.headsets},
            "game": {g.id: g for g in self.games},
            "hops": {},
        }
        object.__setattr__(self, "_lookup", lk)

    def user(self, uid: str) -> User:
        return self._lookup["user"][uid]

    def bs(self, bid: str) -> BaseStation:
        return self._lookup["bs"][bid]

    def cn(self, cid: str) -> ComputeNode:
        return self._lookup["cn"][cid]

    def headset_of(self, user: User) -> Headset:
        return self._lookup["headset"][user.headset]

    def game_of(self, user: User) -> Game:
        return self._lookup["game"][user.game]

    def paths(self, bs_id: str, cn_id: str) -> tuple[Path, ...]:
        return self.paths_by_bs_cn.get((bs_id, cn_id), ())

    def hop_distance(self, cn_a: str, cn_b: str) -> int:
        """Crosshaul hop count between two compute nodes; ValueError if no route joins them."""
        key = (cn_a, cn_b) if cn_a < cn_b else (cn_b, cn_a)
        cache = self._lookup["hops"]
        if key not in cache:
            route = _best_route(_adjacency(self.links), (0, key[:1]), key[1], lambda ln: 1)
            if route is None:
                raise ValueError(f"no crosshaul route between cn {cn_a} and cn {cn_b}")
            cache[key] = route[0]
        return cache[key]


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


# ---------------------------------------------------------------------------
# Route search


def _adjacency(links) -> dict[str, dict[str, Link]]:
    adj: dict[str, dict[str, Link]] = {}  # node -> {next node: the link there}
    for ln in links:
        adj.setdefault(ln.src, {})[ln.dst] = ln
    return adj


def _best_route(adj, root, dst, weight=attrgetter("latency_s")):
    """The least (cost, nodes) simple route extending root = (cost, nodes) to dst, or None.

    Costs add weight(link) left to right. A node skips a label at a cost it has
    expanded (its nodes sort later) but expands each distinct cost within a
    relative 1e-12 of its best, as sums apart by rounding alone can tie later.
    """
    heap = [root]
    expanded: dict[str, list] = {}  # node -> costs expanded there, least first
    while heap:
        cost, nodes = heapq.heappop(heap)
        if nodes[-1] == dst:
            return cost, nodes
        costs = expanded.setdefault(nodes[-1], [])
        if cost in costs or (costs and cost > costs[0] * (1 + 1e-12)):
            continue
        costs.append(cost)
        for nxt, ln in adj.get(nodes[-1], {}).items():
            if nxt not in nodes:
                heapq.heappush(heap, (cost + weight(ln), nodes + (nxt,)))
    return None


def enumerate_paths(
    links: tuple[Link, ...] | list[Link], bs: str, cn: str, k: int
) -> tuple[Path, ...]:
    """Up to k loop-free crosshaul routes from compute node to base station.

    Yen's k-shortest loopless paths (Yen, Management Science 1971): exactly the
    first k simple routes in (latency, node-id sequence) order, whatever the
    order of the links, with no step limit.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    adj = _adjacency(links)
    first = _best_route(adj, (0.0, (cn,)), bs)
    candidates, routes = [] if first is None else [first], []
    while candidates and len(routes) < k:
        lat, nodes = heapq.heappop(candidates)
        hops = tuple(adj[a][b] for a, b in zip(nodes, nodes[1:]))
        routes.append(Path(f"{cn}->{bs}#{len(routes)}", cn, bs, hops, lat, nodes))
        cost = 0.0
        for i in range(len(hops) if len(routes) < k else 0):
            # leave at node i by a link that no route found so far takes from this prefix
            taken = {r.nodes[i + 1] for r in routes if r.nodes[: i + 1] == nodes[: i + 1]}
            spur_adj = {**adj, nodes[i]: {n: ln for n, ln in adj[nodes[i]].items() if n not in taken}}
            spur = _best_route(spur_adj, (cost, nodes[: i + 1]), bs)
            if spur is not None and spur not in candidates:
                heapq.heappush(candidates, spur)
            cost += hops[i].latency_s
    return tuple(routes)


# ---------------------------------------------------------------------------
# Synthetic generation

_DEFAULTS = {
    "usable_prbs": None,  # default: 30 % of the 56 PRBs a cell has
    "frame_capacity_fps": 1e5,
    "shared_channel": False,
    **{f.name: f.default for f in fields(RadioParams)},
    "objects_per_user": 5,
    "regional_cap_bps": 20e9,
    "cloud_cap_bps": 40e9,
    "headset_catalog": None,  # list of Headset-shaped dicts plus weights
}

_CN_TIERS = {
    # render px/s, gpu px/s, cpu f/s, ram px, net b/s, fixed, unit costs
    "edge": (8.5e9, 1e10, 1e4, 5e8, 2e9, 100.0, ResourceCosts(2e-8, 1e-2, 1e-6, 5e-8)),
    "regional": (2e10, 4e10, 4e4, 2e9, 8e9, 50.0, ResourceCosts(1.2e-8, 6e-3, 6e-7, 3e-8)),
    "cloud": (4e10, 2e11, 2e5, 1e10, 4e10, 20.0, ResourceCosts(6e-9, 3e-3, 3e-7, 1.5e-8)),
}


def default_headsets() -> tuple[tuple[Headset, ...], tuple[float, ...]]:
    headsets = []
    weights = []
    for i, (res_idx, rates, w) in enumerate(_HEADSET_TABLE):
        headsets.append(
            Headset(
                id=f"hs{i:02d}",
                resolutions=tuple(RESOLUTION_LADDER[j] for j in res_idx),
                frame_rates=tuple(rates),
            )
        )
        weights.append(w)
    return tuple(headsets), tuple(weights)


def default_games(n: int) -> tuple[Game, ...]:
    return tuple(
        Game(id=f"g{i:02d}", preference_mode="quality" if i % 2 == 0 else "performance")
        for i in range(n)
    )


def generate_synthetic(
    seed: int,
    n_users: int,
    n_bs: int,
    n_cns: int,
    area_m: tuple[float, float] = (2000.0, 2000.0),
    overrides: dict | None = None,
) -> Scenario:
    """Build a seeded scenario: BS grid, ring crosshaul, uniform users.

    Identical arguments produce a byte-identical scenario. Overrides replace
    entries of the default parameter table by name.
    """
    if n_users <= 0 or n_bs <= 0 or n_cns <= 0:
        raise ValueError("n_users, n_bs and n_cns must be positive")
    p = dict(_DEFAULTS)
    if overrides:
        unknown = set(overrides) - set(p)
        if unknown:
            raise ValueError(f"unknown overrides: {sorted(unknown)}")
        p.update(overrides)

    w, h = float(area_m[0]), float(area_m[1])
    cols = max(1, math.ceil(math.sqrt(n_bs * w / h))) if h > 0 else n_bs
    rows = math.ceil(n_bs / cols)
    if w / cols < 1.0 or h / rows < 1.0:
        raise ValueError("area too small to place the requested base stations")

    usable = int(p["usable_prbs"]) if p["usable_prbs"] is not None else 16

    bs_positions = []
    for i in range(n_bs):
        r, c = divmod(i, cols)
        bs_positions.append(((c + 0.5) * w / cols, (r + 0.5) * h / rows))

    n_edge = min(n_bs, n_cns)
    n_rest = n_cns - n_edge
    n_cloud = 1 if n_rest >= 1 else 0
    n_regional = n_rest - n_cloud

    cns: list[ComputeNode] = []

    def make_cn(cid, tier, pos):
        render, gpu, cpu, ram, net, fixed, costs = _CN_TIERS[tier]
        return ComputeNode(
            id=cid,
            tier=tier,
            position=pos,
            gpu_cap=gpu,
            cpu_cap=cpu,
            ram_cap=ram,
            net_cap=net,
            render_speed_pps=render,
            fixed_cost=fixed,
            unit_costs=costs,
        )

    for i in range(n_edge):
        cns.append(make_cn(f"cn{i}", "edge", bs_positions[i]))
    for j in range(n_regional):
        cns.append(make_cn(f"cn{n_edge + j}", "regional", (w * 0.5, h * 0.5)))
    for j in range(n_cloud):
        cns.append(make_cn(f"cn{n_edge + n_regional + j}", "cloud", (w * 1.5, h * 1.5)))

    links: list[Link] = []

    def add_pair(a, b, cap, lat):
        links.append(Link(src=a, dst=b, capacity_bps=cap, latency_s=lat))
        links.append(Link(src=b, dst=a, capacity_bps=cap, latency_s=lat))

    # ring over the edge CNs, base stations attached to their co-located CN
    ring = [f"cn{i}" for i in range(n_edge)]
    if len(ring) > 1:
        for i in range(len(ring)):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            if len(ring) == 2 and i == 1:
                break  # avoid duplicating the single pair on a 2-node ring
            add_pair(a, b, 10e9, 2.0e-4)
    for i in range(n_bs):
        cn_anchor = ring[i % len(ring)]
        add_pair(cn_anchor, f"bs{i}", 10e9, 5.0e-5)
    regional_ids = [c.id for c in cns if c.tier == "regional"]
    for j, rid in enumerate(regional_ids):
        a1 = ring[(j * len(ring)) // max(1, len(regional_ids)) % len(ring)]
        a2 = ring[((j * len(ring)) // max(1, len(regional_ids)) + len(ring) // 2) % len(ring)]
        add_pair(rid, a1, p["regional_cap_bps"], 5.0e-4)
        if a2 != a1:
            add_pair(rid, a2, p["regional_cap_bps"], 5.0e-4)
    cloud_ids = [c.id for c in cns if c.tier == "cloud"]
    for cid in cloud_ids:
        anchors = regional_ids if regional_ids else [ring[0], ring[len(ring) // 2]]
        for a in dict.fromkeys(anchors):
            add_pair(cid, a, p["cloud_cap_bps"], 1.0e-3)

    links_t = tuple(links)

    errs: list[str] = []
    radio = _codec(RadioParams).load({f.name: p[f.name] for f in fields(RadioParams)}, errs, "radio")
    if p["headset_catalog"] is None:
        headsets, hs_weights = default_headsets()
    else:
        headsets = tuple(
            _codec(Headset).load(
                {k: v for k, v in hd.items() if k != "weight"}, errs, f"headset {hd.get('id')}")
            for hd in p["headset_catalog"]
        )
        raw = [hd.get("weight", 1.0) for hd in p["headset_catalog"]]
        hs_weights = tuple(x / sum(raw) for x in raw)
    if errs:
        raise ScenarioError(errs)

    # nearest CN per BS by best route latency (tie: lower CN id), read off
    # the routes the scenario keeps; _checked rejects a k_paths below 1
    # before they are kept, so until then the search takes one route
    k = max(radio.k_paths, 1)
    routes = _routes(links_t, [f"bs{i}" for i in range(n_bs)], [c.id for c in cns], k)
    bss: list[BaseStation] = []
    for i, pos in enumerate(bs_positions):
        firsts = [(ps[0].latency_s, c.id) for c in cns if (ps := routes.get((f"bs{i}", c.id)))]
        if not firsts:
            raise ValueError(f"base station bs{i} unreachable from every compute node")
        bss.append(
            BaseStation(
                id=f"bs{i}",
                position=pos,
                total_prbs=56,
                usable_prbs=usable,
                prb_bandwidth_hz=360e3,
                tx_power_dbm=33.0,
                processing_capacity_bps=1e9,
                frame_capacity_fps=p["frame_capacity_fps"],
                channel_id=0 if p["shared_channel"] else i,
                coverage_radius_m=400.0,
                nearest_cn=min(firsts)[1],
            )
        )

    games = default_games(12)
    quality_games = [g for g in games if g.preference_mode == "quality"]
    perf_games = [g for g in games if g.preference_mode == "performance"]

    rng = np.random.default_rng(seed)
    users: list[User] = []
    n_obj = int(p["objects_per_user"])
    speed_values = [v for _, v in SPEED_CLASSES]
    for i in range(n_users):
        for _ in range(10000):
            pos = (float(rng.uniform(0, w)), float(rng.uniform(0, h)))
            if any(distance(pos, b.position) <= b.coverage_radius_m for b in bss):
                break
        else:
            raise ValueError("could not draw a user position inside coverage")
        hs = headsets[int(rng.choice(len(headsets), p=hs_weights))]
        if rng.random() < 0.5:
            game = quality_games[int(rng.integers(len(quality_games)))]
        else:
            game = perf_games[int(rng.integers(len(perf_games)))]
        shares = rng.dirichlet(np.ones(n_obj))
        attention = rng.dirichlet(np.ones(n_obj))
        objs = tuple(
            VirtualObject(id=f"o{j}", pixel_share=float(shares[j]), attention=float(attention[j]))
            for j in range(n_obj)
        )
        speed = speed_values[int(rng.choice(len(speed_values), p=(0.4, 0.3, 0.3)))]
        users.append(
            User(
                id=f"u{i}",
                position=pos,
                height_m=1.5,
                headset=hs.id,
                game=game.id,
                objects=objs,
                frame_arrival_rate=float(min(hs.frame_rates)),
                speed_mps=speed,
                heading_rad=float(rng.uniform(0, 2 * math.pi)),
            )
        )

    return _checked(Scenario(
        seed=seed,
        area_m=(w, h),
        radio=radio,
        users=tuple(users),
        base_stations=tuple(bss),
        compute_nodes=tuple(cns),
        links=links_t,
        headsets=headsets,
        games=games,
    ), routes)


# ---------------------------------------------------------------------------
# Schema: the dataclass fields drive loading, serialisation and field checks

# What a violation calls the entries of each collection.
_KIND = {
    User: "user", VirtualObject: "object", BaseStation: "bs", ComputeNode: "cn",
    Link: "link", Headset: "headset", Game: "game",
}


def _wrong(errs: list[str], label: str, name: str, what: str, v) -> None:
    errs.append(f"{_at(label)}{name} must be {what}, got {v!r:.60}")


# the JSON types each scalar field type takes (bool is not int here)
_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


def _join(label: str, part: str) -> str:
    return f"{label} {part}" if label else part


def _at(label: str) -> str:
    return f"{label}: " if label else ""


def _ident(d, i: int) -> str:
    """How a violation names the i-th entry of a config list (a link by its ends)."""
    if type(d) is dict and "id" in d:
        return d["id"]
    return f"{d['src']}->{d['dst']}" if type(d) is dict and {"src", "dst"} <= d.keys() else f"#{i}"


def _field_codec(tp):
    """(load, dump, child) of one field type.

    load(value, errs, label, name) returns the field value and reports a
    wrong JSON type to errs. dump is None where the value is JSON as it is.
    child is (codec, one per tuple entry) for a field of schema objects.
    """
    if tp in _SCALARS:
        json_types, what = _SCALARS[tp]

        def load(v, errs, label, name):
            if type(v) in json_types:
                return tp(v)
            _wrong(errs, label, name, what, v)

        return load, None, None
    if is_dataclass(tp):
        sub = _codec(tp)

        def load(v, errs, label, name):
            return sub.load(v, errs, _join(label, name))

        return load, sub.dump, (sub, False)
    args = get_args(tp)
    if get_origin(tp) in (Union, UnionType):  # X | None
        load, dump, child = _field_codec(next(a for a in args if a is not type(None)))
        return (lambda v, *where: None if v is None else load(v, *where)), dump, child
    # tuple[X, ...] or a fixed-length tuple[X, X]
    size = None if args[-1] is Ellipsis else len(args)
    what = "a list" if size is None else f"a list of {size}"
    if is_dataclass(args[0]):
        sub = _codec(args[0])

        def load(v, errs, label, name):
            if type(v) is not list:
                return _wrong(errs, label, name, what, v)
            prefix = _join(label, sub.kind)
            return tuple([sub.load(x, errs, f"{prefix} {_ident(x, i)}") for i, x in enumerate(v)])

        return load, lambda v: [sub.dump(x) for x in v], (sub, True)
    item, item_dump, _ = _field_codec(args[0])

    def load(v, errs, label, name):
        if type(v) is not list or (size is not None and len(v) != size):
            return _wrong(errs, label, name, what, v)
        return tuple([item(x, errs, label, name) for x in v])

    return load, (list if item_dump is None else lambda v: [item_dump(x) for x in v]), None


def _keeps(rule: str, vals: list) -> bool:
    """Whether every number in vals, numbers or tuples of them, keeps the rule.

    An interval rule that holds for the least and the largest of finite
    numbers holds for all of them.
    """
    keeps = _RULES[rule]
    try:
        while vals and type(vals[0]) is tuple:
            vals = [x for v in vals for x in v]
        # a finite sum is the cheap proof that every entry is finite; a sum can overflow
        finite = math.isfinite(sum(vals)) or all(map(math.isfinite, vals))
        return not vals or (finite and keeps(min(vals)) and keeps(max(vals)))
    except (TypeError, OverflowError):  # not all numbers, or an int past the float range
        return False


class _Codec:
    """Loads, dumps and checks one schema dataclass; built once per class."""

    def __init__(self, cls):
        hints = get_type_hints(cls)
        own = [f for f in fields(cls) if f.compare]
        self.cls = cls
        self.kind = _KIND.get(cls, "")
        self.names = frozenset(f.name for f in own)
        self.required = frozenset(
            f.name for f in own if f.default is MISSING and f.default_factory is MISSING
        )
        self.specs = tuple((f.name, *_field_codec(hints[f.name])) for f in own)
        self.rules = tuple(
            (attrgetter(f.name), f.name, f.metadata["rule"]) for f in own if "rule" in f.metadata
        )
        self.children = tuple(
            (attrgetter(name), name, *child) for name, _, _, child in self.specs if child
        )

    def load(self, d, errs: list[str], label: str):
        """One instance from its config object, or None if it has problems."""
        if type(d) is not dict:
            errs.append(f"{_at(label)}must be an object, got {d!r:.60}")
            return None
        before = len(errs)
        kw = {}
        for name, load, _, _ in self.specs:
            if name in d:
                kw[name] = load(d[name], errs, label, name)
        if d.keys() != self.names:
            errs.extend(
                f"{_at(label)}missing key {name}"
                for name, *_ in self.specs
                if name in self.required and name not in d
            )
            errs.extend(f"{_at(label)}unknown key {k!r}" for k in d if k not in self.names)
        return self.cls(**kw) if len(errs) == before else None

    def dump(self, obj) -> dict:
        out = {}
        for name, _, dump, _ in self.specs:
            v = getattr(obj, name)
            out[name] = v if dump is None else dump(v)
        return out

    def check(self, items, labels, out: list[str], cols: dict) -> None:
        """Report every field value of items that breaks its rule, then recurse.

        labels() names the items; it is called only when something breaks.
        The values read go to cols[cls, field name], in item order.
        """
        for get, name, rule in self.rules:
            vals = cols[self.cls, name] = list(map(get, items))
            if not _keeps(rule, vals):  # one pass over the column clears the common case
                out.extend(
                    f"{_at(lb)}{name} must be {rule}, got {v!r}"
                    for lb, v in zip(labels(), vals)
                    if not _keeps(rule, [v])
                )
        for get, name, sub, many in self.children:
            if many:
                kids = [k for it in items for k in get(it)]

                def kid_labels(get=get, sub=sub):
                    return [
                        _join(lb, f"{sub.kind} {k.id}")
                        for lb, it in zip(labels(), items)
                        for k in get(it)
                    ]
            else:
                kids = list(map(get, items))

                def kid_labels(name=name):
                    return [_join(lb, name) for lb in labels()]
            sub.check(kids, kid_labels, out, cols)


@functools.cache
def _codec(cls) -> _Codec:
    return _Codec(cls)


# ---------------------------------------------------------------------------
# Validation and config round-trip


def validate_scenario(sc: Scenario) -> list[str]:
    """Collect every constraint violation instead of stopping at the first.

    The per-field rules come from the dataclass fields; the checks here
    relate several fields or objects to each other.
    """
    out: list[str] = []
    cols: dict = {}
    _codec(Scenario).check((sc,), lambda: ("",), out, cols)
    w, h = sc.area_m
    r = sc.radio
    if not 0 <= r.epsilon < 1:
        out.append(f"radio: epsilon must be in [0, 1), got {r.epsilon!r}")
    if r.deadline_s is not None and not 0 < r.deadline_s < math.inf:
        out.append(f"radio: deadline_s must be positive or null, got {r.deadline_s!r}")

    seen = set()  # ids are unique across every collection
    for get, _, sub, many in _codec(Scenario).children:
        for it in get(sc) if many else ():
            if it.id in seen:
                out.append(f"{sub.kind} {it.id}: duplicate id")
            seen.add(it.id)

    for hs in sc.headsets:
        for name, seq in (
            ("resolutions", [pixels(res) for res in hs.resolutions]),
            ("frame_rates", hs.frame_rates),
        ):
            if not seq:
                out.append(f"headset {hs.id}: {name} missing or empty")
            elif any(b <= a for a, b in zip(seq, seq[1:])):
                out.append(f"headset {hs.id}: {name} not strictly increasing")

    for g in sc.games:
        if g.preference_mode not in ("quality", "performance"):
            out.append(f"game {g.id}: preference_mode must be quality or performance")

    cn_ids = {c.id for c in sc.compute_nodes}
    for b in sc.base_stations:
        if b.usable_prbs > b.total_prbs:
            out.append(f"bs {b.id}: usable_prbs must not exceed total_prbs")
        if b.nearest_cn not in cn_ids:
            out.append(f"bs {b.id}: nearest_cn {b.nearest_cn} unknown")
        if not (0 <= b.position[0] <= w and 0 <= b.position[1] <= h):
            out.append(f"bs {b.id}: position outside the scenario area")

    for c in sc.compute_nodes:
        if c.tier not in _CN_TIERS:
            out.append(f"cn {c.id}: unknown tier {c.tier}")

    node_ids = {b.id for b in sc.base_stations} | cn_ids
    for ln in sc.links:
        for end in ("src", "dst"):
            if getattr(ln, end) not in node_ids:
                out.append(f"link {ln.id}: {end} is not a known bs/cn node")
    # every compute node reaches the first and back, so every pair has a hop distance
    adj = _adjacency(sc.links)
    for c in sc.compute_nodes[1:]:
        for a, b in ((c.id, sc.compute_nodes[0].id), (sc.compute_nodes[0].id, c.id)):
            if _best_route(adj, (0, (a,)), b, lambda ln: 1) is None:
                out.append(f"cn {a}: no crosshaul route to cn {b}")

    headset_ids = {hs.id for hs in sc.headsets}
    game_ids = {g.id for g in sc.games}
    cells = [(*b.position, b.coverage_radius_m) for b in sc.base_stations]
    for u in sc.users:
        if u.headset not in headset_ids:
            out.append(f"user {u.id}: unknown headset {u.headset}")
        if u.game not in game_ids:
            out.append(f"user {u.id}: unknown game {u.game}")
        if not (0 <= u.position[0] <= w and 0 <= u.position[1] <= h):
            out.append(f"user {u.id}: position outside the scenario area")
        x, y = u.position  # the distance() arithmetic, without a call per cell
        if not any(math.hypot(x - bx, y - by) <= radius for bx, by, radius in cells):
            out.append(f"user {u.id}: position outside coverage of every base station")
    for s_name in ("pixel_share", "attention"):  # each user's object shares sum to 1
        col, start = cols[VirtualObject, s_name], 0
        for u in sc.users:
            end = start + len(u.objects)
            total = sum(col[start:end])
            if end > start and abs(total - 1.0) > 1e-9:
                out.append(f"user {u.id}: object {s_name} sums to {total:.12f}, expected 1")
            start = end
    return out


def _routes(links, bs_ids, cn_ids, k: int) -> dict[tuple[str, str], tuple[Path, ...]]:
    """Up to k routes of every (bs, cn) pair that has one, bs by bs."""
    out = {}
    for b in bs_ids:
        for c in cn_ids:
            ps = enumerate_paths(links, b, c, k)
            if ps:
                out[(b, c)] = ps
    return out


def _checked(
    sc: Scenario, routes: dict[tuple[str, str], tuple[Path, ...]] | None = None
) -> Scenario:
    """sc once it validates, with its crosshaul routes: `routes` when the
    generator has enumerated them already, else enumerated here."""
    problems = validate_scenario(sc)
    if problems:
        raise ScenarioError(problems)
    if routes is None:
        routes = _routes(sc.links, [b.id for b in sc.base_stations],
                         [c.id for c in sc.compute_nodes], sc.radio.k_paths)
    sc.paths_by_bs_cn.update(routes)
    return sc


def scenario_to_config(sc: Scenario) -> dict:
    return _codec(Scenario).dump(sc)


def scenario_to_json(sc: Scenario) -> str:
    return json.dumps(scenario_to_config(sc), indent=2, sort_keys=True) + "\n"


def load_scenario(text: str) -> Scenario:
    """Parse a scenario config document (JSON text), check its types, validate."""
    try:
        cfg = json.loads(text)
    except ValueError as e:
        raise ScenarioError([f"config is not valid JSON: {e}"]) from e
    errs: list[str] = []
    sc = _codec(Scenario).load(cfg, errs, "")
    if errs:
        raise ScenarioError(errs)
    return _checked(sc)


# ---------------------------------------------------------------------------
# Mobility


def step_positions(sc: Scenario, step_index: int) -> Scenario:
    """Advance every user one second of mobility (seeded waypoint walk).

    Users move along their heading at their speed class; a step that would
    leave the area or all coverage is replaced by a seeded heading change, so
    the in-coverage invariant is preserved. Deterministic in (seed, step).
    Links do not move, so the new scenario keeps the routes and hop counts
    found so far.
    """
    rng = np.random.default_rng((sc.seed, 0x6D0B, step_index))
    w, h = sc.area_m
    moved = []
    for u in sc.users:
        turn = float(rng.normal(0.0, 0.4))
        heading = (u.heading_rad + turn) % (2 * math.pi)
        if u.speed_mps <= 0:
            moved.append(replace(u, heading_rad=heading))
            continue
        nx = u.position[0] + u.speed_mps * math.cos(heading)
        ny = u.position[1] + u.speed_mps * math.sin(heading)
        nx = min(max(nx, 0.0), w)
        ny = min(max(ny, 0.0), h)
        covered = any(
            distance((nx, ny), b.position) <= b.coverage_radius_m for b in sc.base_stations
        )
        if covered:
            moved.append(replace(u, position=(nx, ny), heading_rad=heading))
        else:
            moved.append(replace(u, heading_rad=(heading + math.pi) % (2 * math.pi)))
    stepped = replace(sc, users=tuple(moved), paths_by_bs_cn=sc.paths_by_bs_cn)
    stepped._lookup["hops"] = sc._lookup["hops"]
    return stepped
