"""Radio link model: path loss, SINR, throughput and the end-to-end latency budget.

The access link follows the urban street-canyon model at sub-6 GHz with a
distance threshold separating line-of-sight from non-line-of-sight. The
link tables (SINR, one-PRB rate, distance and cell ranking of every
user/cell pair) are built once per scenario instance and kept with it;
step_positions makes a new instance, so every timestep gets its own
tables. Latency is decomposed into six parts (crosshaul routing, rendering, propagation,
transmission, frame processing, queueing) and a frame misses its deadline
when the sum for some serving base station exceeds the frame period.
Routing, rendering, propagation and frame processing are fixed by the
stream and the serving cell (fixed_parts, one formula for single columns
and for arrays of them); stage1.latency_columns prices them for all of a
solution's serving pairs at once, adding the air time of its grants and
the queueing its arrivals cause (buffer_latency_s, once per cell).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import BaseStation, Scenario, User, distance, pixels


@dataclass(frozen=True)
class LinkTables:
    """SINR, one-PRB rate, distance and ranking for every user/BS pair, in one pass."""

    user_index: dict[str, int]  # user id -> row
    bs_index: dict[str, int]  # base station id -> column
    sinr: np.ndarray  # [user, bs]
    se_bps: np.ndarray  # [user, bs], bits/s of a single PRB
    rank: np.ndarray  # [user, bs], place among the user's covering cells, -1 if not covering
    distance_m: np.ndarray  # [user, bs], the scalar `distance` of each pair

    def se_of(self, uid: str, bid: str) -> float:
        return float(self.se_bps[self.user_index[uid], self.bs_index[bid]])


def link_tables(sc: Scenario) -> LinkTables:
    """Link budget of every user/BS pair, built once per scenario instance.

    Street-canyon path loss (clamped below one metre), interference from
    every other base station on the same channel and a noise floor over
    one PRB of bandwidth; the Shannon rate of one PRB follows from the
    SINR. A cell covers a user within its coverage radius, by the same
    scalar distance the rest of the model uses. The tables are cached on
    the scenario and read-only.
    """
    cached = sc._lookup.get("links")
    if cached is not None:
        return cached
    up = np.array([u.position for u in sc.users], dtype=float).reshape(-1, 2)
    bp = np.array([b.position for b in sc.base_stations], dtype=float).reshape(-1, 2)
    d = np.hypot(up[:, None, 0] - bp[None, :, 0], up[:, None, 1] - bp[None, :, 1])
    dc = np.maximum(d, 1.0)
    r = sc.radio
    h = np.array([u.height_m for u in sc.users], dtype=float)[:, None]
    los = 32.4 + 21.0 * np.log10(dc) + 20.0 * math.log10(r.carrier_ghz)
    nlos = (
        35.3 + 22.4 * np.log10(dc)
        + 21.3 * math.log10(r.carrier_ghz)
        - 0.3 * (h - 1.5)
    )
    pl = np.where(d <= r.los_threshold_m, los, nlos)
    tx = np.array([b.tx_power_dbm for b in sc.base_stations], dtype=float)[None, :]
    rx = 10.0 ** ((tx - pl - 30.0) / 10.0)
    bw = np.array([b.prb_bandwidth_hz for b in sc.base_stations], dtype=float)[None, :]
    noise = 10.0 ** ((r.noise_density_dbm_hz - 30.0) / 10.0) * bw
    ch = np.array([b.channel_id for b in sc.base_stations])
    # co-channel cells other than the serving one; subtracting the serving
    # cell's own power from a sum over all would cancel away weak interference
    others = (ch[None, :] == ch[:, None]) & ~np.eye(len(ch), dtype=bool)
    interference = rx @ others.astype(float)
    sinr_m = rx / (interference + noise)
    se = bw * np.log2(1.0 + sinr_m)
    # coverage and propagation read the scalar distance, which np.hypot
    # may miss in the last bit
    dist = np.array(
        [[distance(u.position, b.position) for b in sc.base_stations] for u in sc.users],
        dtype=float,
    ).reshape(d.shape)
    covers = dist <= np.array([b.coverage_radius_m for b in sc.base_stations], dtype=float)
    # a stable sort keeps equal SINRs in column order, and the inverse of
    # the sort order is each cell's place; int8 while it fits
    order = np.argsort(np.where(covers, -sinr_m, np.inf), axis=1, kind="stable")
    rank = np.where(covers, order.argsort(axis=1), -1).astype(np.min_scalar_type(-len(ch) - 1))
    for table in (sinr_m, se, rank, dist):
        table.flags.writeable = False
    tables = LinkTables(
        user_index={u.id: i for i, u in enumerate(sc.users)},
        bs_index={b.id: j for j, b in enumerate(sc.base_stations)},
        sinr=sinr_m,
        se_bps=se,
        rank=rank,
        distance_m=dist,
    )
    sc._lookup["links"] = tables
    return tables


def traffic_load_bps(
    sc: Scenario, share: float, resolution: tuple[int, int], fps: float
) -> float:
    """Downlink bitrate of a video sub-stream: share of the compressed frame flow."""
    r = sc.radio
    return share * pixels(resolution) * r.bits_per_pixel * r.compression_rate * fps


def frame_bits(sc: Scenario, resolution: tuple[int, int]) -> float:
    """Compressed size of one full frame in bits."""
    return _bits(sc, pixels(resolution))


def _bits(sc: Scenario, px):
    return px * sc.radio.bits_per_pixel * sc.radio.compression_rate


def routing_latency_s(sc: Scenario, bs: BaseStation) -> float:
    """Best crosshaul route latency from the cell's nearest node to the BS."""
    ps = sc.paths(bs.id, bs.nearest_cn)  # fastest first
    return ps[0].latency_s if ps else math.inf


def cell_terms(sc: Scenario, bs: BaseStation) -> tuple[float, float, float]:
    """What the fixed parts read of a serving cell.

    Its best route latency, the render speed of its nearest node and its
    frame processing capacity.
    """
    return (routing_latency_s(sc, bs), sc.cn(bs.nearest_cn).render_speed_pps,
            bs.processing_capacity_bps)


def fixed_parts(sc: Scenario, routing_s, render_pps, processing_bps, distance_m, px, fps):
    """Routing, render, propagation and frame processing of columns.

    These are the parts of a column that neither grants nor the queue
    change; the frame is rendered at the cell's nearest node. The cell's
    terms come from cell_terms, px is the pixel count of the resolution.
    Every argument after sc may be a number, for one column, or an array,
    for many; both evaluate the same operations in the same order.
    """
    return (
        routing_s,
        px * fps / render_pps,
        distance_m / sc.radio.speed_of_light_mps,
        _bits(sc, px) / processing_bps,
    )


def fixed_latency_s(
    sc: Scenario, user: User, bs: BaseStation, resolution: tuple[int, int], fps: float
) -> float:
    """The fixed parts of one column, rendered at the cell's nearest node.

    Summed in the order fixed_parts lists them; each caller adds its own
    air-time and queueing terms on top.
    """
    return sum(fixed_parts(sc, *cell_terms(sc, bs), distance(user.position, bs.position),
                           pixels(resolution), fps))


def buffer_latency_s(bs: BaseStation, arrival_fps: float) -> float:
    """Queueing delay at the BS frame buffer; infinite once arrivals saturate it."""
    slack = bs.frame_capacity_fps - arrival_fps
    if slack <= 0:
        return math.inf
    return 1.0 / slack
