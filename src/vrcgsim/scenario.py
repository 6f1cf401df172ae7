"""World model for the VR cloud-gaming allocation simulator.

A scenario bundles everything the three allocation stages consume: users with
headsets, games and attention-weighted scene objects, base stations with PRB
budgets, compute nodes of three tiers (edge, regional, cloud) joined by a
ring-based crosshaul, and the radio/numerology parameters. Scenarios are
value objects: generation and loading are deterministic for a given seed and
solvers never mutate them.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

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


@dataclass(frozen=True)
class Headset:
    id: str
    resolutions: tuple[tuple[int, int], ...]  # strictly increasing pixel count
    frame_rates: tuple[int, ...]  # Hz, strictly increasing


@dataclass(frozen=True)
class Game:
    id: str
    preference_mode: str  # "quality" or "performance"


@dataclass(frozen=True)
class VirtualObject:
    id: str
    pixel_share: float  # fraction of the frame the object occupies
    attention: float  # fraction of user attention on the object


@dataclass(frozen=True)
class User:
    id: str
    position: tuple[float, float]
    height_m: float
    headset: str
    game: str
    objects: tuple[VirtualObject, ...]
    frame_arrival_rate: float  # frames/s entering the serving BS queue
    speed_mps: float = 0.0
    heading_rad: float = 0.0


@dataclass(frozen=True)
class BaseStation:
    id: str
    position: tuple[float, float]
    total_prbs: int
    usable_prbs: int  # PRBs left after background traffic
    prb_bandwidth_hz: float
    tx_power_dbm: float
    processing_capacity_bps: float  # frame processing speed, bits/s
    frame_capacity_fps: float  # queue service rate, frames/s
    channel_id: int
    coverage_radius_m: float
    nearest_cn: str


@dataclass(frozen=True)
class ResourceCosts:
    gpu: float
    cpu: float
    ram: float
    net: float


@dataclass(frozen=True)
class ComputeNode:
    id: str
    tier: str  # "edge", "regional" or "cloud"
    position: tuple[float, float]
    gpu_cap: float  # rendered pixels/s
    cpu_cap: float  # frames/s
    ram_cap: float  # resident pixels
    net_cap: float  # bits/s
    render_speed_pps: float  # pixels/s the renderer sustains
    fixed_cost: float
    unit_costs: ResourceCosts


@dataclass(frozen=True)
class Link:
    src: str
    dst: str
    capacity_bps: float
    latency_s: float

    @property
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
    carrier_ghz: float = 3.5
    noise_density_dbm_hz: float = -174.0
    los_threshold_m: float = 50.0
    speed_of_light_mps: float = 3.0e8
    bits_per_pixel: float = 24.0
    compression_rate: float = 0.01
    tti_s: float = 5.0e-4
    ttis_per_window: int = 2000
    max_connections: int = 3
    epsilon: float = 0.05  # minimum flow fraction per selected path
    migration_unit_cost: float = 5.0
    k_paths: int = 3
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


@dataclass(frozen=True)
class Scenario:
    seed: int
    area_m: tuple[float, float]
    radio: RadioParams
    users: tuple[User, ...]
    base_stations: tuple[BaseStation, ...]
    compute_nodes: tuple[ComputeNode, ...]
    links: tuple[Link, ...]
    headsets: tuple[Headset, ...]
    games: tuple[Game, ...]
    paths_by_bs_cn: dict[tuple[str, str], tuple[Path, ...]] = field(
        compare=False, repr=False, default_factory=dict
    )
    _lookup: dict = field(compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
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
        """Crosshaul hop count between two compute nodes (BFS, unweighted)."""
        if cn_a == cn_b:
            return 0
        key = (cn_a, cn_b) if cn_a < cn_b else (cn_b, cn_a)
        cache = self._lookup["hops"]
        if key not in cache:
            adj: dict[str, list[str]] = {}
            for ln in self.links:
                adj.setdefault(ln.src, []).append(ln.dst)
            seen = {key[0]: 0}
            frontier = [key[0]]
            while frontier and key[1] not in seen:
                nxt = []
                for node in frontier:
                    for peer in adj.get(node, ()):
                        if peer not in seen:
                            seen[peer] = seen[node] + 1
                            nxt.append(peer)
                frontier = nxt
            cache[key] = seen.get(key[1], -1)
        return cache[key]


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


# ---------------------------------------------------------------------------
# Path enumeration


def enumerate_paths(
    links: tuple[Link, ...] | list[Link], bs: str, cn: str, k: int
) -> tuple[Path, ...]:
    """Up to k loop-free crosshaul routes from compute node to base station.

    Routes are enumerated exhaustively over simple paths and sorted by
    (latency, node-id sequence) so the result is deterministic regardless of
    link ordering in the input.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    adj: dict[str, list[Link]] = {}
    for ln in links:
        adj.setdefault(ln.src, []).append(ln)
    for outs in adj.values():
        outs.sort(key=lambda ln: (ln.dst, ln.latency_s))
    found: list[tuple[float, tuple[str, ...], tuple[Link, ...]]] = []
    budget = 20000  # guard against pathological meshes

    def walk(node: str, seen: set[str], hops: list[Link]):
        nonlocal budget
        if budget <= 0:
            return
        budget -= 1
        if node == bs:
            lat = sum(ln.latency_s for ln in hops)
            nodes = (cn,) + tuple(ln.dst for ln in hops)
            found.append((lat, nodes, tuple(hops)))
            return
        for ln in adj.get(node, ()):
            if ln.dst in seen:
                continue
            seen.add(ln.dst)
            hops.append(ln)
            walk(ln.dst, seen, hops)
            hops.pop()
            seen.remove(ln.dst)

    walk(cn, {cn}, [])
    found.sort(key=lambda t: (t[0], t[1]))
    out = []
    for i, (lat, nodes, hops) in enumerate(found[:k]):
        out.append(Path(id=f"{cn}->{bs}#{i}", cn=cn, bs=bs, links=hops, latency_s=lat, nodes=nodes))
    return tuple(out)


def _build_paths(scenario_links, base_stations, compute_nodes, k) -> dict:
    paths = {}
    for b in base_stations:
        for c in compute_nodes:
            ps = enumerate_paths(scenario_links, b.id, c.id, k)
            if ps:
                paths[(b.id, c.id)] = ps
    return paths


# ---------------------------------------------------------------------------
# Synthetic generation

_DEFAULTS = {
    "total_prbs": 56,
    "usable_fraction": 0.30,
    "usable_prbs": None,  # override wins over the fraction when set
    "prb_bandwidth_hz": 360e3,
    "tx_power_dbm": 33.0,
    "coverage_radius_m": 400.0,
    "processing_capacity_bps": 1e9,
    "frame_capacity_fps": 1e5,
    "shared_channel": False,
    "carrier_ghz": 3.5,
    "noise_density_dbm_hz": -174.0,
    "los_threshold_m": 50.0,
    "speed_of_light_mps": 3.0e8,
    "bits_per_pixel": 24.0,
    "compression_rate": 0.01,
    "tti_s": 5.0e-4,
    "ttis_per_window": 2000,
    "max_connections": 3,
    "epsilon": 0.05,
    "migration_unit_cost": 5.0,
    "k_paths": 3,
    "deadline_s": None,
    "objects_per_user": 5,
    "quality_fraction": 0.5,
    "user_height_m": 1.5,
    "speed_weights": (0.4, 0.3, 0.3),
    "ring_latency_s": 2.0e-4,
    "ring_cap_bps": 10e9,
    "colo_latency_s": 5.0e-5,
    "colo_cap_bps": 10e9,
    "regional_latency_s": 5.0e-4,
    "regional_cap_bps": 20e9,
    "cloud_latency_s": 1.0e-3,
    "cloud_cap_bps": 40e9,
    "link_capacity_scale": 1.0,
    "cn_capacity_scale": 1.0,
    "render_speed_scale": 1.0,
    "headset_catalog": None,  # list of Headset-shaped dicts plus weights
    "n_games": 12,
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

    radio = RadioParams(
        carrier_ghz=p["carrier_ghz"],
        noise_density_dbm_hz=p["noise_density_dbm_hz"],
        los_threshold_m=p["los_threshold_m"],
        speed_of_light_mps=p["speed_of_light_mps"],
        bits_per_pixel=p["bits_per_pixel"],
        compression_rate=p["compression_rate"],
        tti_s=p["tti_s"],
        ttis_per_window=int(p["ttis_per_window"]),
        max_connections=int(p["max_connections"]),
        epsilon=p["epsilon"],
        migration_unit_cost=p["migration_unit_cost"],
        k_paths=int(p["k_paths"]),
        deadline_s=p["deadline_s"],
    )

    usable = (
        int(p["usable_prbs"])
        if p["usable_prbs"] is not None
        else int(math.floor(p["usable_fraction"] * p["total_prbs"]))
    )

    bs_positions = []
    for i in range(n_bs):
        r, c = divmod(i, cols)
        bs_positions.append(((c + 0.5) * w / cols, (r + 0.5) * h / rows))

    n_edge = min(n_bs, n_cns)
    n_rest = n_cns - n_edge
    n_cloud = 1 if n_rest >= 1 else 0
    n_regional = n_rest - n_cloud

    cns: list[ComputeNode] = []

    def make_cn(cid, tier, pos, scale_cap, scale_render):
        render, gpu, cpu, ram, net, fixed, costs = _CN_TIERS[tier]
        return ComputeNode(
            id=cid,
            tier=tier,
            position=pos,
            gpu_cap=gpu * scale_cap,
            cpu_cap=cpu * scale_cap,
            ram_cap=ram * scale_cap,
            net_cap=net * scale_cap,
            render_speed_pps=render * scale_render,
            fixed_cost=fixed,
            unit_costs=costs,
        )

    cap_s = p["cn_capacity_scale"]
    ren_s = p["render_speed_scale"]
    for i in range(n_edge):
        cns.append(make_cn(f"cn{i}", "edge", bs_positions[i], cap_s, ren_s))
    for j in range(n_regional):
        cns.append(make_cn(f"cn{n_edge + j}", "regional", (w * 0.5, h * 0.5), cap_s, ren_s))
    for j in range(n_cloud):
        cns.append(make_cn(f"cn{n_edge + n_regional + j}", "cloud", (w * 1.5, h * 1.5), cap_s, ren_s))

    links: list[Link] = []
    ls = p["link_capacity_scale"]

    def add_pair(a, b, cap, lat):
        links.append(Link(src=a, dst=b, capacity_bps=cap * ls, latency_s=lat))
        links.append(Link(src=b, dst=a, capacity_bps=cap * ls, latency_s=lat))

    # ring over the edge CNs, base stations attached to their co-located CN
    ring = [f"cn{i}" for i in range(n_edge)]
    if len(ring) > 1:
        for i in range(len(ring)):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            if len(ring) == 2 and i == 1:
                break  # avoid duplicating the single pair on a 2-node ring
            add_pair(a, b, p["ring_cap_bps"], p["ring_latency_s"])
    for i in range(n_bs):
        cn_anchor = ring[i % len(ring)]
        add_pair(cn_anchor, f"bs{i}", p["colo_cap_bps"], p["colo_latency_s"])
    regional_ids = [c.id for c in cns if c.tier == "regional"]
    for j, rid in enumerate(regional_ids):
        a1 = ring[(j * len(ring)) // max(1, len(regional_ids)) % len(ring)]
        a2 = ring[((j * len(ring)) // max(1, len(regional_ids)) + len(ring) // 2) % len(ring)]
        add_pair(rid, a1, p["regional_cap_bps"], p["regional_latency_s"])
        if a2 != a1:
            add_pair(rid, a2, p["regional_cap_bps"], p["regional_latency_s"])
    cloud_ids = [c.id for c in cns if c.tier == "cloud"]
    for cid in cloud_ids:
        anchors = regional_ids if regional_ids else [ring[0], ring[len(ring) // 2]]
        for a in dict.fromkeys(anchors):
            add_pair(cid, a, p["cloud_cap_bps"], p["cloud_latency_s"])

    links_t = tuple(links)

    # nearest CN per BS by best route latency (tie: lower CN id)
    bss: list[BaseStation] = []
    for i, pos in enumerate(bs_positions):
        best = None
        for c in cns:
            ps = enumerate_paths(links_t, f"bs{i}", c.id, 1)
            if ps:
                key = (ps[0].latency_s, c.id)
                if best is None or key < best[0]:
                    best = (key, c.id)
        if best is None:
            raise ValueError(f"base station bs{i} unreachable from every compute node")
        bss.append(
            BaseStation(
                id=f"bs{i}",
                position=pos,
                total_prbs=int(p["total_prbs"]),
                usable_prbs=usable,
                prb_bandwidth_hz=p["prb_bandwidth_hz"],
                tx_power_dbm=p["tx_power_dbm"],
                processing_capacity_bps=p["processing_capacity_bps"],
                frame_capacity_fps=p["frame_capacity_fps"],
                channel_id=0 if p["shared_channel"] else i,
                coverage_radius_m=p["coverage_radius_m"],
                nearest_cn=best[1],
            )
        )

    if p["headset_catalog"] is None:
        headsets, hs_weights = default_headsets()
    else:
        headsets = tuple(
            Headset(
                id=hd["id"],
                resolutions=tuple(tuple(r) for r in hd["resolutions"]),
                frame_rates=tuple(hd["frame_rates"]),
            )
            for hd in p["headset_catalog"]
        )
        raw = [hd.get("weight", 1.0) for hd in p["headset_catalog"]]
        hs_weights = tuple(x / sum(raw) for x in raw)
    games = default_games(int(p["n_games"]))
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
        if rng.random() < p["quality_fraction"]:
            game = quality_games[int(rng.integers(len(quality_games)))]
        else:
            game = perf_games[int(rng.integers(len(perf_games)))]
        shares = rng.dirichlet(np.ones(n_obj))
        attention = rng.dirichlet(np.ones(n_obj))
        objs = tuple(
            VirtualObject(id=f"o{j}", pixel_share=float(shares[j]), attention=float(attention[j]))
            for j in range(n_obj)
        )
        speed = speed_values[int(rng.choice(len(speed_values), p=p["speed_weights"]))]
        users.append(
            User(
                id=f"u{i}",
                position=pos,
                height_m=p["user_height_m"],
                headset=hs.id,
                game=game.id,
                objects=objs,
                frame_arrival_rate=float(min(hs.frame_rates)),
                speed_mps=speed,
                heading_rad=float(rng.uniform(0, 2 * math.pi)),
            )
        )

    sc = Scenario(
        seed=seed,
        area_m=(w, h),
        radio=radio,
        users=tuple(users),
        base_stations=tuple(bss),
        compute_nodes=tuple(cns),
        links=links_t,
        headsets=headsets,
        games=games,
        paths_by_bs_cn=_build_paths(links_t, bss, cns, radio.k_paths),
    )
    problems = validate_scenario(sc)
    if problems:
        raise ScenarioError(problems)
    return sc


# ---------------------------------------------------------------------------
# Validation and config round-trip


def validate_scenario(sc: Scenario) -> list[str]:
    """Collect every constraint violation instead of stopping at the first."""
    out: list[str] = []
    w, h = sc.area_m
    if w <= 0 or h <= 0:
        out.append("area_m: both dimensions must be positive")
    r = sc.radio
    if not 0 <= r.epsilon < 1:
        out.append(f"radio.epsilon: {r.epsilon} outside [0, 1)")
    if r.max_connections < 1:
        out.append("radio.max_connections: must be >= 1")
    if r.tti_s <= 0 or r.ttis_per_window < 1:
        out.append("radio numerology: tti_s must be positive and ttis_per_window >= 1")
    if r.k_paths < 1:
        out.append("radio.k_paths: must be >= 1")

    seen = set()
    for kind, items in (
        ("user", sc.users),
        ("bs", sc.base_stations),
        ("cn", sc.compute_nodes),
        ("headset", sc.headsets),
        ("game", sc.games),
    ):
        for it in items:
            if it.id in seen:
                out.append(f"{kind} {it.id}: duplicate id")
            seen.add(it.id)

    for hs in sc.headsets:
        if not hs.resolutions:
            out.append(f"headset {hs.id}: resolutions missing or empty")
        else:
            px = [pixels(res) for res in hs.resolutions]
            if any(b <= a for a, b in zip(px, px[1:])):
                out.append(f"headset {hs.id}: resolutions not strictly increasing by pixel count")
        if not hs.frame_rates:
            out.append(f"headset {hs.id}: frame_rates missing or empty")
        elif any(b <= a for a, b in zip(hs.frame_rates, hs.frame_rates[1:])):
            out.append(f"headset {hs.id}: frame_rates not strictly increasing")

    for g in sc.games:
        if g.preference_mode not in ("quality", "performance"):
            out.append(f"game {g.id}: preference_mode must be quality or performance")

    for b in sc.base_stations:
        if b.usable_prbs < 1 or b.usable_prbs > b.total_prbs:
            out.append(f"bs {b.id}: usable_prbs must be in [1, total_prbs]")
        if b.prb_bandwidth_hz <= 0:
            out.append(f"bs {b.id}: prb_bandwidth_hz must be positive")
        if b.nearest_cn not in {c.id for c in sc.compute_nodes}:
            out.append(f"bs {b.id}: nearest_cn {b.nearest_cn} unknown")
        if not (0 <= b.position[0] <= w and 0 <= b.position[1] <= h):
            out.append(f"bs {b.id}: position outside the scenario area")

    for c in sc.compute_nodes:
        if c.tier not in _CN_TIERS:
            out.append(f"cn {c.id}: unknown tier {c.tier}")
        if min(c.gpu_cap, c.cpu_cap, c.ram_cap, c.net_cap, c.render_speed_pps) <= 0:
            out.append(f"cn {c.id}: capacities and render speed must be positive")

    node_ids = {b.id for b in sc.base_stations} | {c.id for c in sc.compute_nodes}
    for ln in sc.links:
        if ln.src not in node_ids or ln.dst not in node_ids:
            out.append(f"link {ln.id}: endpoint not a known bs/cn node")
        if ln.capacity_bps <= 0 or ln.latency_s < 0:
            out.append(f"link {ln.id}: capacity must be positive and latency non-negative")

    headset_ids = {hs.id for hs in sc.headsets}
    game_ids = {g.id for g in sc.games}
    for u in sc.users:
        if u.headset not in headset_ids:
            out.append(f"user {u.id}: unknown headset {u.headset}")
        if u.game not in game_ids:
            out.append(f"user {u.id}: unknown game {u.game}")
        if not (0 <= u.position[0] <= w and 0 <= u.position[1] <= h):
            out.append(f"user {u.id}: position outside the scenario area")
        if not any(
            distance(u.position, b.position) <= b.coverage_radius_m for b in sc.base_stations
        ):
            out.append(f"user {u.id}: outside coverage of every base station")
        if u.objects:
            for s_name, total in (
                ("pixel_share", sum(o.pixel_share for o in u.objects)),
                ("attention", sum(o.attention for o in u.objects)),
            ):
                if abs(total - 1.0) > 1e-9:
                    out.append(f"user {u.id}: object {s_name} sums to {total:.12f}, expected 1")
        if u.frame_arrival_rate <= 0:
            out.append(f"user {u.id}: frame_arrival_rate must be positive")
    return out


def scenario_to_config(sc: Scenario) -> dict:
    r = sc.radio
    return {
        "seed": sc.seed,
        "area_m": list(sc.area_m),
        "radio": {
            "carrier_ghz": r.carrier_ghz,
            "noise_density_dbm_hz": r.noise_density_dbm_hz,
            "los_threshold_m": r.los_threshold_m,
            "speed_of_light_mps": r.speed_of_light_mps,
            "bits_per_pixel": r.bits_per_pixel,
            "compression_rate": r.compression_rate,
            "tti_s": r.tti_s,
            "ttis_per_window": r.ttis_per_window,
            "max_connections": r.max_connections,
            "epsilon": r.epsilon,
            "migration_unit_cost": r.migration_unit_cost,
            "k_paths": r.k_paths,
            "deadline_s": r.deadline_s,
        },
        "base_stations": [
            {
                "id": b.id,
                "position": list(b.position),
                "total_prbs": b.total_prbs,
                "usable_prbs": b.usable_prbs,
                "prb_bandwidth_hz": b.prb_bandwidth_hz,
                "tx_power_dbm": b.tx_power_dbm,
                "processing_capacity_bps": b.processing_capacity_bps,
                "frame_capacity_fps": b.frame_capacity_fps,
                "channel_id": b.channel_id,
                "coverage_radius_m": b.coverage_radius_m,
                "nearest_cn": b.nearest_cn,
            }
            for b in sc.base_stations
        ],
        "compute_nodes": [
            {
                "id": c.id,
                "tier": c.tier,
                "position": list(c.position),
                "gpu_cap": c.gpu_cap,
                "cpu_cap": c.cpu_cap,
                "ram_cap": c.ram_cap,
                "net_cap": c.net_cap,
                "render_speed_pps": c.render_speed_pps,
                "fixed_cost": c.fixed_cost,
                "unit_costs": {
                    "gpu": c.unit_costs.gpu,
                    "cpu": c.unit_costs.cpu,
                    "ram": c.unit_costs.ram,
                    "net": c.unit_costs.net,
                },
            }
            for c in sc.compute_nodes
        ],
        "links": [
            {"src": ln.src, "dst": ln.dst, "capacity_bps": ln.capacity_bps, "latency_s": ln.latency_s}
            for ln in sc.links
        ],
        "headsets": [
            {
                "id": hs.id,
                "resolutions": [list(res) for res in hs.resolutions],
                "frame_rates": list(hs.frame_rates),
            }
            for hs in sc.headsets
        ],
        "games": [{"id": g.id, "preference_mode": g.preference_mode} for g in sc.games],
        "users": [
            {
                "id": u.id,
                "position": list(u.position),
                "height_m": u.height_m,
                "headset": u.headset,
                "game": u.game,
                "frame_arrival_rate": u.frame_arrival_rate,
                "speed_mps": u.speed_mps,
                "heading_rad": u.heading_rad,
                "objects": [
                    {"id": o.id, "pixel_share": o.pixel_share, "attention": o.attention}
                    for o in u.objects
                ],
            }
            for u in sc.users
        ],
    }


def scenario_to_json(sc: Scenario) -> str:
    return json.dumps(scenario_to_config(sc), indent=2, sort_keys=True) + "\n"


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario config document (JSON text)."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError([f"config is not valid JSON: {e}"]) from e
    missing = [
        k
        for k in ("radio", "base_stations", "compute_nodes", "links", "users", "headsets", "games", "seed")
        if k not in cfg
    ]
    if missing:
        raise ScenarioError([f"missing top-level key {k}" for k in missing])
    try:
        radio = RadioParams(**cfg["radio"])
        headsets = tuple(
            Headset(
                id=hd["id"],
                resolutions=tuple(tuple(res) for res in hd.get("resolutions", ())),
                frame_rates=tuple(hd.get("frame_rates", ())),
            )
            for hd in cfg["headsets"]
        )
        games = tuple(Game(id=g["id"], preference_mode=g["preference_mode"]) for g in cfg["games"])
        bss = tuple(
            BaseStation(
                id=b["id"],
                position=tuple(b["position"]),
                total_prbs=int(b["total_prbs"]),
                usable_prbs=int(b["usable_prbs"]),
                prb_bandwidth_hz=float(b["prb_bandwidth_hz"]),
                tx_power_dbm=float(b["tx_power_dbm"]),
                processing_capacity_bps=float(b["processing_capacity_bps"]),
                frame_capacity_fps=float(b["frame_capacity_fps"]),
                channel_id=int(b["channel_id"]),
                coverage_radius_m=float(b["coverage_radius_m"]),
                nearest_cn=b["nearest_cn"],
            )
            for b in cfg["base_stations"]
        )
        cns = tuple(
            ComputeNode(
                id=c["id"],
                tier=c["tier"],
                position=tuple(c["position"]),
                gpu_cap=float(c["gpu_cap"]),
                cpu_cap=float(c["cpu_cap"]),
                ram_cap=float(c["ram_cap"]),
                net_cap=float(c["net_cap"]),
                render_speed_pps=float(c["render_speed_pps"]),
                fixed_cost=float(c["fixed_cost"]),
                unit_costs=ResourceCosts(**c["unit_costs"]),
            )
            for c in cfg["compute_nodes"]
        )
        links = tuple(
            Link(
                src=ln["src"],
                dst=ln["dst"],
                capacity_bps=float(ln["capacity_bps"]),
                latency_s=float(ln["latency_s"]),
            )
            for ln in cfg["links"]
        )
        users = tuple(
            User(
                id=u["id"],
                position=tuple(u["position"]),
                height_m=float(u.get("height_m", 1.5)),
                headset=u["headset"],
                game=u["game"],
                objects=tuple(
                    VirtualObject(
                        id=o["id"], pixel_share=float(o["pixel_share"]), attention=float(o["attention"])
                    )
                    for o in u.get("objects", ())
                ),
                frame_arrival_rate=float(u["frame_arrival_rate"]),
                speed_mps=float(u.get("speed_mps", 0.0)),
                heading_rad=float(u.get("heading_rad", 0.0)),
            )
            for u in cfg["users"]
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ScenarioError([f"malformed config entry: {e!r}"]) from e

    if "area_m" in cfg:
        area = (float(cfg["area_m"][0]), float(cfg["area_m"][1]))
    else:
        xs = [b.position[0] + b.coverage_radius_m for b in bss] or [1.0]
        ys = [b.position[1] + b.coverage_radius_m for b in bss] or [1.0]
        area = (max(xs), max(ys))
    sc = Scenario(
        seed=int(cfg["seed"]),
        area_m=area,
        radio=radio,
        users=users,
        base_stations=bss,
        compute_nodes=cns,
        links=links,
        headsets=headsets,
        games=games,
        paths_by_bs_cn=_build_paths(links, bss, cns, radio.k_paths),
    )
    problems = validate_scenario(sc)
    if problems:
        raise ScenarioError(problems)
    return sc


# ---------------------------------------------------------------------------
# Mobility


def step_positions(sc: Scenario, step_index: int, step_seconds: float = 1.0) -> Scenario:
    """Advance every user one mobility step (seeded waypoint walk).

    Users move along their heading at their speed class; a step that would
    leave the area or all coverage is replaced by a seeded heading change, so
    the in-coverage invariant is preserved. Deterministic in (seed, step).
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
        nx = u.position[0] + u.speed_mps * step_seconds * math.cos(heading)
        ny = u.position[1] + u.speed_mps * step_seconds * math.sin(heading)
        nx = min(max(nx, 0.0), w)
        ny = min(max(ny, 0.0), h)
        covered = any(
            distance((nx, ny), b.position) <= b.coverage_radius_m for b in sc.base_stations
        )
        if covered:
            moved.append(replace(u, position=(nx, ny), heading_rad=heading))
        else:
            moved.append(replace(u, heading_rad=(heading + math.pi) % (2 * math.pi)))
    return replace(sc, users=tuple(moved), paths_by_bs_cn=sc.paths_by_bs_cn)
