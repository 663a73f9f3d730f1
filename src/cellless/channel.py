"""Seeded stochastic link realizations and per-link received energies.

Each link (PoA -> user or human) is drawn from an independent random
stream keyed by (global seed, realization index, PoA index, target index),
so results are bit-identical regardless of evaluation order or worker
count. Ray geometry is independent of any beam decision: beams enter only
through the panel field applied when computing energies, which lets a
fixed set of realizations be reused across candidate solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .antenna import PanelGeometry, SteeringDirection, panel_field, wrap_angle

SPEED_OF_LIGHT = 299_792_458.0

#: Thermal noise power spectral density, dBm/Hz.
NOISE_DENSITY_DBM_HZ = -174.0


@dataclass(frozen=True)
class PathlossCoeffs:
    """PL[dB] = a + b*log10(d_3D[m]) + c*log10(f[GHz])."""

    a: float
    b: float
    c: float

    def db(self, d3d, f_hz):
        d = np.maximum(np.asarray(d3d, dtype=float), 1.0)
        return self.a + self.b * np.log10(d) + self.c * math.log10(f_hz / 1e9)


@dataclass(frozen=True)
class ChannelParams:
    n_clusters: int = 5
    n_rays: int = 20
    delay_spread: float = 30e-9
    azimuth_spread_dep: float = math.radians(8.0)
    azimuth_spread_arr: float = math.radians(40.0)
    zenith_spread_dep: float = math.radians(3.0)
    zenith_spread_arr: float = math.radians(10.0)
    shadow_sigma_los_db: float = 4.3
    shadow_sigma_nlos_db: float = 4.0
    rician_k_mean_db: float = 10.0
    rician_k_sigma_db: float = 3.0
    pathloss_los: PathlossCoeffs = PathlossCoeffs(31.84, 21.5, 19.0)
    pathloss_nlos: PathlossCoeffs = PathlossCoeffs(33.63, 21.9, 20.0)
    los_model: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_rays < 1 or self.n_clusters < 1:
            raise ValueError("need at least one cluster and one ray")
        if self.delay_spread <= 0:
            raise ValueError("delay spread must be positive")
        for s in (self.azimuth_spread_dep, self.azimuth_spread_arr,
                  self.zenith_spread_dep, self.zenith_spread_arr):
            if s < 0:
                raise ValueError("angular spreads must be non-negative")


@dataclass(frozen=True)
class LinkRealization:
    """One seeded draw of a single PoA-to-target link."""

    los: bool
    pathloss_db: float          # positive attenuation
    shadow_db: float
    rician_k: float             # linear; 0 when nLoS
    frequency: float
    delays: np.ndarray          # (N_c,) sorted, seconds
    cluster_powers: np.ndarray  # (N_c,) sums to 1
    aod_zenith: np.ndarray      # (N_c, N_r) GCS radians
    aod_azimuth: np.ndarray
    aoa_zenith: np.ndarray
    aoa_azimuth: np.ndarray
    phases: np.ndarray          # (N_c, N_r) in [0, 2*pi)
    los_aod: tuple              # (zenith, azimuth) of the direct path, GCS
    los_aoa: tuple
    d_3d: float


def link_rng(seed: int, realization: int, poa_index: int, target_index: int):
    """Independent generator for one (realization, PoA, target) link."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(realization), int(poa_index), int(target_index)])
    )


def los_probability(scenario_kind, d_2d, poa_height, target_height,
                    clutter_density=0.0, clutter_height=0.0, clutter_size=2.0):
    """Line-of-sight probability; monotone non-increasing in d_2d.

    InF-DH uses an exponential decay whose scale grows when the PoA sits
    above the clutter; UMi uses the standard d_2d break-point form.
    """
    d = np.asarray(d_2d, dtype=float)
    if np.any(d < 0):
        raise ValueError("d_2d must be non-negative")
    kind = scenario_kind.lower()
    if kind.startswith("inf"):
        rho = min(max(clutter_density, 0.0), 1.0 - 1e-9)
        if rho <= 0:
            return np.minimum(np.ones_like(d), 1.0)
        k = -clutter_size / math.log(1.0 - rho)
        if poa_height > clutter_height and clutter_height > target_height:
            k *= (poa_height - target_height) / (clutter_height - target_height)
        return np.exp(-d / k)
    if kind.startswith("umi"):
        out = np.ones_like(d)
        far = d > 18.0
        dd = np.where(far, d, 18.0)
        out = np.where(far, 18.0 / dd + np.exp(-dd / 36.0) * (1.0 - 18.0 / dd), out)
        return out
    raise ValueError(f"unknown scenario kind {scenario_kind!r}")


def _direct_path_angles(src, dst):
    """(zenith, azimuth) of the departure direction from src toward dst."""
    dx, dy, dz = dst[0] - src[0], dst[1] - src[1], dst[2] - src[2]
    d3d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d3d == 0.0:
        return 0.0, 0.0, 0.0
    zen = math.acos(max(-1.0, min(1.0, dz / d3d)))
    az = math.atan2(dy, dx)
    return zen, az, d3d


def sample_link(poa_pos, poa_freq, target_pos, params: ChannelParams, rng) -> LinkRealization:
    """Draw one complete link realization from the given stream.

    LoS state is Bernoulli on los_probability; delays are i.i.d.
    exponential (sorted) with powers proportional to exp(-tau/DS),
    renormalized; cluster mean angles are Gaussian around the direct-path
    geometry, rays fan out on deterministic equal-spaced offsets of half
    the angular spread; phases are i.i.d. uniform.
    """
    zen0, az0, d3d = _direct_path_angles(poa_pos, target_pos)
    d2d = math.hypot(target_pos[0] - poa_pos[0], target_pos[1] - poa_pos[1])
    lm = params.los_model
    p_los = float(los_probability(
        lm.get("kind", "inf"), d2d, poa_pos[2], target_pos[2],
        lm.get("clutter_density", 0.0), lm.get("clutter_height", 0.0),
        lm.get("clutter_size_m", 2.0)))
    los = bool(rng.random() < p_los)

    coeffs = params.pathloss_los if los else params.pathloss_nlos
    pl_db = float(coeffs.db(d3d, poa_freq))
    sigma = params.shadow_sigma_los_db if los else params.shadow_sigma_nlos_db
    shadow_db = float(rng.normal(0.0, sigma))
    k_lin = float(10.0 ** (rng.normal(params.rician_k_mean_db, params.rician_k_sigma_db) / 10.0)) if los else 0.0

    nc, nr = params.n_clusters, params.n_rays
    delays = np.sort(rng.exponential(params.delay_spread, nc))
    powers = np.exp(-delays / params.delay_spread)
    powers = powers / powers.sum()

    def _angles(zen_c, az_c, zen_spread, az_spread):
        zen_mean = zen_c + rng.normal(0.0, zen_spread, nc)
        az_mean = wrap_angle(az_c + rng.normal(0.0, az_spread, nc))
        offsets = np.linspace(-0.5, 0.5, nr) if nr > 1 else np.zeros(1)
        zen = np.clip(zen_mean[:, None] + offsets[None, :] * zen_spread, 0.0, math.pi)
        az = wrap_angle(az_mean[:, None] + offsets[None, :] * az_spread)
        return zen, np.atleast_2d(az)

    aod_zen, aod_az = _angles(zen0, az0, params.zenith_spread_dep, params.azimuth_spread_dep)
    # Arrival side mirrors the direct path as seen from the target.
    zen0_a, az0_a, _ = _direct_path_angles(target_pos, poa_pos)
    aoa_zen, aoa_az = _angles(zen0_a, az0_a, params.zenith_spread_arr, params.azimuth_spread_arr)
    phases = rng.uniform(0.0, 2.0 * math.pi, (nc, nr))

    return LinkRealization(
        los=los, pathloss_db=pl_db, shadow_db=shadow_db, rician_k=k_lin,
        frequency=poa_freq, delays=delays, cluster_powers=powers,
        aod_zenith=aod_zen, aod_azimuth=aod_az,
        aoa_zenith=aoa_zen, aoa_azimuth=aoa_az, phases=phases,
        los_aod=(zen0, az0), los_aoa=(zen0_a, az0_a), d_3d=d3d,
    )


def amplitude_scale(tx_power_dbm: float, pathloss_db: float, shadow_db: float) -> float:
    """Field amplitude factor: sqrt of linear received power scaling (watts)."""
    if tx_power_dbm == -math.inf:
        return 0.0
    return 10.0 ** ((tx_power_dbm - 30.0 - pathloss_db + shadow_db) / 20.0)


# Per-link fields read by the energy kernel, stacked by ``stack_links``
# under their LinkRealization names, plus "los_zenith" / "los_azimuth".
_STACKED_FIELDS = ("aod_zenith", "aod_azimuth", "phases", "cluster_powers", "los",
                   "rician_k", "pathloss_db", "shadow_db", "d_3d")


def stack_links(links) -> dict:
    """Arrays of the link fields the energy kernel reads.

    ``links`` is one LinkRealization or nested lists of them; the nesting
    becomes the arrays' leading axes (one link gives leading shape ()).
    """
    def nested(get, item):
        if isinstance(item, LinkRealization):
            return get(item)
        return [nested(get, x) for x in item]

    stack = {name: np.array(nested(attrgetter(name), links)) for name in _STACKED_FIELDS}
    stack["los_zenith"] = np.array(nested(lambda l: l.los_aod[0], links))
    stack["los_azimuth"] = np.array(nested(lambda l: l.los_aod[1], links))
    return stack


def unit_link_energy(stack: dict, geom: PanelGeometry, steer: SteeringDirection,
                     frequency: float) -> np.ndarray:
    """Energy [W] of |h_tilde(tau)|^2 at 1 W transmit power for every stacked link.

    The target is a single isotropic element (unit field). Clusters sit at
    distinct delays, so the energy is the sum of squared per-cluster
    amplitudes; LoS mixing folds the direct path into the first cluster.
    Returns an array with the stack's leading shape.
    """
    mech = geom.mech_azimuth
    f = panel_field(geom, stack["aod_zenith"], wrap_angle(stack["aod_azimuth"] - mech), steer)
    nr = stack["phases"].shape[-1]
    amps = (np.sqrt(stack["cluster_powers"] / nr)
            * (f * np.exp(1j * stack["phases"])).sum(axis=-1))
    # K = 0 off-LoS makes the Rician mix reduce to the pure scattered term.
    k = np.where(stack["los"], stack["rician_k"], 0.0)
    lam = SPEED_OF_LIGHT / frequency
    f0 = panel_field(geom, stack["los_zenith"], wrap_angle(stack["los_azimuth"] - mech), steer)
    h_los = f0 * np.exp(-1j * 2.0 * math.pi * stack["d_3d"] / lam)
    amps = amps * np.sqrt(1.0 / (1.0 + k))[..., None]
    amps[..., 0] += np.sqrt(k / (1.0 + k)) * h_los
    scale2 = 10.0 ** ((-stack["pathloss_db"] + stack["shadow_db"]) / 10.0)
    return scale2 * (np.abs(amps) ** 2).sum(axis=-1)


def link_energy(link: LinkRealization, tx_power_dbm: float,
                geom: PanelGeometry, steer: SteeringDirection) -> float:
    """Integrated energy of |h_tilde(tau)|^2 in watts for one link."""
    if tx_power_dbm == -math.inf:
        return 0.0
    unit = unit_link_energy(stack_links(link), geom, steer, link.frequency)
    return float(10.0 ** ((tx_power_dbm - 30.0) / 10.0) * unit)
