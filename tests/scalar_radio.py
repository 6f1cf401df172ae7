"""Scalar link model, one user/cell pair at a time.

This is the reference the vectorized `vrcgsim.radio.link_tables` is
tested against: the same street-canyon path loss, co-channel
interference and one-PRB Shannon rate, written pair by pair.
"""
import math
from dataclasses import dataclass

from vrcgsim.scenario import BaseStation, Scenario, User, distance


def path_loss_db(distance_m: float, carrier_ghz: float, los_threshold_m: float,
                 user_height_m: float = 1.5) -> float:
    """Street-canyon path loss in dB; LoS below the threshold distance."""
    d = max(distance_m, 1.0)  # clamp: the model is not defined at zero range
    if distance_m <= los_threshold_m:
        return 32.4 + 21.0 * math.log10(d) + 20.0 * math.log10(carrier_ghz)
    return (
        35.3 + 22.4 * math.log10(d)
        + 21.3 * math.log10(carrier_ghz)
        - 0.3 * (user_height_m - 1.5)
    )


def _dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class LinkBudget:
    rx_power_w: float
    interference_w: float
    noise_w: float

    @property
    def sinr(self) -> float:
        return self.rx_power_w / (self.interference_w + self.noise_w)


def link_budget(sc: Scenario, user: User, bs: BaseStation) -> LinkBudget:
    """Received power and co-channel interference for one user-BS link.

    Interference sums received power from every other base station on the
    same channel; the noise floor is taken over one PRB of bandwidth.
    """
    r = sc.radio

    def rx_from(b: BaseStation) -> float:
        pl = path_loss_db(
            distance(user.position, b.position), r.carrier_ghz, r.los_threshold_m, user.height_m
        )
        return _dbm_to_watts(b.tx_power_dbm - pl)

    interference = sum(
        rx_from(b) for b in sc.base_stations if b.id != bs.id and b.channel_id == bs.channel_id
    )
    noise = _dbm_to_watts(r.noise_density_dbm_hz) * bs.prb_bandwidth_hz
    return LinkBudget(rx_power_w=rx_from(bs), interference_w=interference, noise_w=noise)


def sinr(sc: Scenario, user: User, bs: BaseStation) -> float:
    return link_budget(sc, user, bs).sinr


def spectral_efficiency(sc: Scenario, user: User, bs: BaseStation) -> float:
    """Shannon rate of one PRB, bits/s."""
    return bs.prb_bandwidth_hz * math.log2(1.0 + sinr(sc, user, bs))


def throughput_bps(sc: Scenario, user: User, bs: BaseStation, prbs: int) -> float:
    return prbs * spectral_efficiency(sc, user, bs)
