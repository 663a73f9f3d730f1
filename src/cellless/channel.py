"""Seeded stochastic link realizations and per-link received energies.

A link (PoA -> user or human) is drawn one way only. ``direct_paths``
computes the per-target geometry that depends on no draw: direct-path
angles, distance, LoS probability, both pathlosses, and the PoA's
frequency. ``link_seed_words`` runs ``SeedSequence``'s integer hash over
the keys (global seed, realization index, PoA index, target index) of
one PoA's links at once, for any realization range, and returns each
link's four PCG64 seed words, 32 bytes; ``seeded_rngs`` builds the
generators from them, each bit-identical to the key's
``default_rng(SeedSequence(key))``. ``sample_link`` takes the targets'
direct paths and a grid of those generators, one per link, and draws
every link in one call; each link reads only its own stream, so results
are bit-identical regardless of evaluation order, block or worker count,
and a caller that keeps the direct paths and the seed words can draw any
of its links again, bit for bit. A ``LinkRealization`` stores the
departure angles at cluster resolution, each cluster's mean, plus the
N_r ray offsets that every link shares; the per-ray angles exist only
while ``link_terms`` evaluates the panel at them. Ray geometry is
independent of any beam decision: beams enter only through the panel
field applied when computing energies, which lets a fixed set of
realizations be reused across candidate solutions.

The link-energy kernel is split at the beam. ``link_terms`` computes what
no beam changes: per ray, the phasor exp(1j*phase) and the panel's two
axis phasors (``antenna.panel_terms``, in phasor form), and per link the
direct path's phasors, the Rician and cluster factors and ``scale``, the
linear pathloss-and-shadowing power factor. ``steered_energy`` applies
one beam and returns each link's energy at 1 W: its steering phasors
turn the axis phasors into the panel field (``antenna.steered_field``)
with complex products only, in the buffers of a ``FieldWork`` that a
caller steering many beams over the same terms passes to every call; the
field times the ray phasors is summed per cluster. The Evaluator fills
its gain tables through one path: per realization block of a PoA's
links, one ``link_terms``, drawn anew or kept from an earlier fill, and
one ``FieldWork``, shared by every beam steered over the block. Both
steps are elementwise or reduce the trailing cluster and ray axes, so a
slice of the links steers to that slice of the whole call's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .antenna import (FieldWork, PanelGeometry, PanelTerms, SteeringDirection, panel_terms,
                      steered_field, wrap_angle)
# Still reachable as channel.panel_field: perfbench's tracer patches it here.
from .antenna import panel_field  # noqa: F401

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
class LosModel:
    """Line-of-sight probability model: ``kind`` is one of ``LOS_KINDS``;
    the clutter fields (density in [0, 1), height [m], block size [m]) are
    read by the InF-DH model only."""

    kind: str = "inf-dh"
    clutter_density: float = 0.0
    clutter_height: float = 0.0
    clutter_size_m: float = 2.0


LOS_KINDS = ("inf-dh", "umi")


@dataclass(frozen=True)
class ChannelParams:
    n_clusters: int = 5
    n_rays: int = 20
    delay_spread: float = 30e-9
    azimuth_spread_dep: float = math.radians(8.0)
    zenith_spread_dep: float = math.radians(3.0)
    shadow_sigma_los_db: float = 4.3
    shadow_sigma_nlos_db: float = 4.0
    rician_k_mean_db: float = 10.0
    rician_k_sigma_db: float = 3.0
    pathloss_los: PathlossCoeffs = PathlossCoeffs(31.84, 21.5, 19.0)
    pathloss_nlos: PathlossCoeffs = PathlossCoeffs(33.63, 21.9, 20.0)
    los_model: LosModel = LosModel()

    def __post_init__(self):
        if self.n_rays < 1 or self.n_clusters < 1:
            raise ValueError("need at least one cluster and one ray")
        if self.delay_spread <= 0:
            raise ValueError("delay spread must be positive")
        if self.azimuth_spread_dep < 0 or self.zenith_spread_dep < 0:
            raise ValueError("angular spreads must be non-negative")


@dataclass(frozen=True)
class LinkRealization:
    """Seeded draws of the links from one PoA to one or more targets.

    Per-link fields carry the leading shape of the generators the links
    were drawn from (shape () for a single link); per-cluster and per-ray
    fields add trailing (N_c,) and (N_c, N_r) axes. The departure angles
    are stored per cluster: each ray's angle is its cluster mean plus one
    of N_r fixed offsets shared by every link, and ``aod_zenith`` and
    ``aod_azimuth`` build the per-ray arrays on each read.
    """

    los: np.ndarray             # bool
    pathloss_db: np.ndarray     # positive attenuation
    shadow_db: np.ndarray
    rician_k: np.ndarray        # linear; 0 when nLoS
    frequency: float
    delays: np.ndarray          # (..., N_c) sorted, seconds
    cluster_powers: np.ndarray  # (..., N_c) sums to 1
    cluster_zenith: np.ndarray  # (..., N_c) mean departure angles, GCS radians
    cluster_azimuth: np.ndarray
    ray_zenith_offsets: np.ndarray   # (N_r,) radians, the same for every link
    ray_azimuth_offsets: np.ndarray
    phases: np.ndarray          # (..., N_c, N_r) in [0, 2*pi)
    los_aod: tuple              # (zenith, azimuth) of the direct path, GCS
    d_3d: np.ndarray

    @property
    def aod_zenith(self) -> np.ndarray:
        """(..., N_c, N_r) ray departure zeniths, GCS radians in [0, pi]."""
        return np.clip(self.cluster_zenith[..., None] + self.ray_zenith_offsets, 0.0, math.pi)

    @property
    def aod_azimuth(self) -> np.ndarray:
        """(..., N_c, N_r) ray departure azimuths, GCS radians in (-pi, pi]."""
        return wrap_angle(self.cluster_azimuth[..., None] + self.ray_azimuth_offsets)


@dataclass(frozen=True)
class DirectPaths:
    """Direct-path geometry of the links from one PoA to its targets, one
    value per target: the departure zenith and azimuth (GCS radians), the
    3D distance [m], the LoS probability and both pathlosses [dB]; and the
    PoA's carrier frequency [Hz]. It depends on no draw, so
    ``direct_paths`` computes it once for every draw of the same links."""

    zenith: np.ndarray
    azimuth: np.ndarray
    d_3d: np.ndarray
    p_los: np.ndarray
    pathloss_los: np.ndarray
    pathloss_nlos: np.ndarray
    frequency: float


def dbm_to_watts(dbm: float) -> float:
    """Linear power [W] of a level in dBm; -inf (switched off) is 0 W."""
    return 0.0 if dbm == -math.inf else 10.0 ** ((dbm - 30.0) / 10.0)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _word_groups(values) -> list:
    """Non-negative integers split as ``SeedSequence`` splits an entropy
    integer, into little-endian 32-bit words (at least one), grouped by word
    count: a list of (positions in ``values``, (len(positions), words)
    uint64 array)."""
    vals = [int(v) for v in values]
    if any(v < 0 for v in vals):
        raise ValueError("link stream keys must be non-negative")
    groups = {}
    for i, v in enumerate(vals):
        groups.setdefault(max(1, -(-v.bit_length() // 32)), []).append(i)
    return [(idx, np.array([[(vals[i] >> (32 * k)) & _MASK32 for k in range(n)] for i in idx],
                           dtype=np.uint64))
            for n, idx in groups.items()]


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` of every row of
    ``entropy``, a (keys, words >= 4) array of 32-bit words, as (keys, 4)
    uint64.

    The hash constant evolves the same way for every key, so it stays a
    Python int; the words are kept in uint64 and masked to 32 bits after
    each product, which never overflows 64 bits.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, entropy.shape[1]):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> 16))
    return np.stack([halves[2 * j] | (halves[2 * j + 1] << 32) for j in range(4)], axis=1)


class _SeedWords(ISeedSequence):
    """Seed words computed in advance: ``PCG64`` seeds itself from
    ``generate_state(4, np.uint64)``, the only call it makes."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def link_seed_words(seed, realizations, poa_index, targets) -> np.ndarray:
    """The PCG64 seed words of the link streams from PoA ``poa_index`` to
    each target index in ``targets`` in each realization index in
    ``realizations`` (any indices, e.g. a range starting past 0), as a
    (len(realizations), len(targets), 4) uint64 array.

    Entry [i, j] is ``SeedSequence([seed, realizations[i], poa_index,
    targets[j]]).generate_state(4, np.uint64)``: the hash runs over every
    key at once, grouped by the keys' 32-bit word counts.
    """
    realizations, targets = list(realizations), list(targets)
    ((_, seed_words),) = _word_groups([seed])
    ((_, poa_words),) = _word_groups([poa_index])
    out = np.empty((len(realizations), len(targets), 4), dtype=np.uint64)
    for r_pos, r_words in _word_groups(realizations):
        for t_pos, t_words in _word_groups(targets):
            n = len(r_pos) * len(t_pos)
            out[np.ix_(r_pos, t_pos)] = _seed_states(np.concatenate([
                np.broadcast_to(seed_words, (n, seed_words.shape[1])),
                np.repeat(r_words, len(t_pos), axis=0),
                np.broadcast_to(poa_words, (n, poa_words.shape[1])),
                np.tile(t_words, (len(r_pos), 1))], axis=1)).reshape(len(r_pos), len(t_pos), 4)
    return out


def seeded_rngs(words) -> list:
    """The generators seeded from ``words``, a (rows, columns, 4) slice of
    ``link_seed_words``, as the (rows x columns) nested list
    ``sample_link`` takes. Each ``PCG64`` seeds itself from its row of
    words, so it is bit-identical to ``default_rng`` of that link's
    ``SeedSequence``."""
    return [[Generator(PCG64(_SeedWords(w))) for w in row] for row in words]


def los_probability(model: LosModel, d_2d, poa_height, target_height):
    """Line-of-sight probability; monotone non-increasing in d_2d.

    InF-DH uses an exponential decay whose scale grows when the PoA sits
    above the clutter; UMi uses the standard d_2d break-point form.
    """
    d = np.asarray(d_2d, dtype=float)
    if np.any(d < 0):
        raise ValueError("d_2d must be non-negative")
    if model.kind == "inf-dh":
        rho = min(max(model.clutter_density, 0.0), 1.0 - 1e-9)
        if rho <= 0:
            return np.minimum(np.ones_like(d), 1.0)
        k = -model.clutter_size_m / math.log(1.0 - rho)
        if poa_height > model.clutter_height > target_height:
            k *= (poa_height - target_height) / (model.clutter_height - target_height)
        return np.exp(-d / k)
    if model.kind == "umi":
        out = np.ones_like(d)
        far = d > 18.0
        dd = np.where(far, d, 18.0)
        out = np.where(far, 18.0 / dd + np.exp(-dd / 36.0) * (1.0 - 18.0 / dd), out)
        return out
    raise ValueError(f"unknown LoS model {model.kind!r}")


def _direct_path_angles(src, dst):
    """(zenith, azimuth) of the departure direction from src toward dst."""
    dx, dy, dz = dst[0] - src[0], dst[1] - src[1], dst[2] - src[2]
    d3d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d3d == 0.0:
        return 0.0, 0.0, 0.0
    zen = math.acos(max(-1.0, min(1.0, dz / d3d)))
    az = math.atan2(dy, dx)
    return zen, az, d3d


def direct_paths(poa_pos, poa_freq, target_pos, params: ChannelParams) -> DirectPaths:
    """Direct-path geometry, LoS probability and both pathlosses of the
    links from one PoA to each target of ``target_pos``, shape (..., 3),
    once per target with scalar calls (array math may round differently).
    The PoA sits at ``poa_pos`` and transmits at ``poa_freq`` [Hz]."""
    pos = np.asarray(target_pos, dtype=float)
    if pos.shape == (0,):
        pos = pos.reshape(0, 3)     # an empty plain list: no targets
    geometry = np.empty(pos.shape[:-1] + (6,))
    for idx in np.ndindex(pos.shape[:-1]):
        tx, ty, tz = pos[idx].tolist()
        zen0, az0, d3d = _direct_path_angles(poa_pos, (tx, ty, tz))
        d2d = math.hypot(tx - poa_pos[0], ty - poa_pos[1])
        p_los = float(los_probability(params.los_model, d2d, poa_pos[2], tz))
        geometry[idx] = (zen0, az0, d3d, p_los, float(params.pathloss_los.db(d3d, poa_freq)),
                         float(params.pathloss_nlos.db(d3d, poa_freq)))
    return DirectPaths(*(geometry[..., i] for i in range(6)), frequency=poa_freq)


def sample_link(paths: DirectPaths, params: ChannelParams, rngs) -> LinkRealization:
    """Draw link realizations from one PoA, each from its own stream.

    ``rngs`` is a grid of generators, one per link, as ``seeded_rngs``
    returns (nested lists; a single generator is one link); the nesting
    gives the leading shape of every returned field. ``paths``, the
    targets' ``direct_paths`` from the PoA, broadcasts against that leading
    shape, and the returned ``los_aod`` and ``d_3d`` view its arrays.

    LoS state is Bernoulli on los_probability; delays are i.i.d.
    exponential (sorted) with powers proportional to exp(-tau/DS),
    renormalized; cluster mean angles are Gaussian around the direct-path
    geometry, rays fan out on deterministic equal-spaced offsets of half
    the angular spread; phases are i.i.d. uniform.
    """
    rngs = np.array(rngs, dtype=object)
    shape = rngs.shape
    zen0, az0, d3d, p_los, pl_los, pl_nlos = (
        np.broadcast_to(a, shape) for a in (paths.zenith, paths.azimuth, paths.d_3d,
                                            paths.p_los, paths.pathloss_los,
                                            paths.pathloss_nlos))

    # Each stream draws in its original order: LoS, shadowing, K (LoS
    # only), delays, departure then arrival angle normals, phases. The
    # arrival normals are discarded: the target is an isotropic point.
    nc, nr = params.n_clusters, params.n_rays
    n = rngs.size
    los = np.empty(n, dtype=bool)
    shadow = np.empty(n)
    k_lin = np.zeros(n)
    expo = np.empty((n, nc))
    normals = np.empty((n, 4, nc))
    uniforms = np.empty((n, nc, nr))
    k_mean, k_sigma = params.rician_k_mean_db, params.rician_k_sigma_db
    for i, (g, p) in enumerate(zip(rngs.flat, p_los.flat)):
        los[i] = is_los = g.random() < p
        shadow[i] = g.standard_normal()
        if is_los:
            # A scalar power: np.power over an array may round differently.
            k_lin[i] = 10.0 ** ((k_mean + k_sigma * g.standard_normal()) / 10.0)
        g.standard_exponential(out=expo[i])
        g.standard_normal(out=normals[i])
        g.random(out=uniforms[i])
    los, shadow, k_lin = los.reshape(shape), shadow.reshape(shape), k_lin.reshape(shape)

    shadow *= np.where(los, params.shadow_sigma_los_db, params.shadow_sigma_nlos_db)
    delays = np.sort(params.delay_spread * expo.reshape(shape + (nc,)), axis=-1)
    powers = np.exp(-delays / params.delay_spread)
    powers /= powers.sum(axis=-1, keepdims=True)

    normals = normals.reshape(shape + (4, nc))
    zen_spread, az_spread = params.zenith_spread_dep, params.azimuth_spread_dep
    offsets = np.linspace(-0.5, 0.5, nr) if nr > 1 else np.zeros(1)

    return LinkRealization(
        los=los, pathloss_db=np.where(los, pl_los, pl_nlos), shadow_db=shadow,
        rician_k=k_lin, frequency=paths.frequency, delays=delays, cluster_powers=powers,
        cluster_zenith=zen0[..., None] + zen_spread * normals[..., 0, :],
        cluster_azimuth=wrap_angle(az0[..., None] + az_spread * normals[..., 1, :]),
        ray_zenith_offsets=offsets * zen_spread, ray_azimuth_offsets=offsets * az_spread,
        phases=2.0 * math.pi * uniforms.reshape(shape + (nc, nr)),
        los_aod=(zen0, az0), d_3d=d3d,
    )


@dataclass(frozen=True)
class LinkTerms:
    """The factors of ``steered_energy`` that depend on the links and the
    panel's mounting, spacings and element pattern but on no steering
    direction or column count, so one set serves every beam of a PoA."""

    rays: np.ndarray            # exp(1j * phases), (..., N_c, N_r)
    ray_panel: PanelTerms       # at the ray departure angles
    los_panel: PanelTerms       # at the direct-path departure angles
    los_phasor: np.ndarray      # exp(-1j * 2 pi d_3d / lambda)
    cluster_amp: np.ndarray     # sqrt(cluster power / N_r), (..., N_c)
    scatter_mix: np.ndarray     # sqrt(1 / (1 + K)), (..., 1)
    los_mix: np.ndarray         # sqrt(K / (1 + K))
    scale: np.ndarray           # linear pathloss-and-shadowing power factor


def link_terms(link: LinkRealization, geom: PanelGeometry) -> LinkTerms:
    """Steering-independent terms of ``steered_energy`` for every link.

    Only ``geom``'s mechanical azimuth, spacings and element pattern are
    read.
    """
    mech = geom.mech_azimuth
    # K = 0 off-LoS makes the Rician mix reduce to the pure scattered term.
    k = np.where(link.los, link.rician_k, 0.0)
    lam = SPEED_OF_LIGHT / link.frequency
    zen0, az0 = link.los_aod
    # The per-ray angles and the element pattern's temporaries are freed
    # before the phasors exist.
    ray_panel = panel_terms(geom, link.aod_zenith, wrap_angle(link.aod_azimuth - mech))
    rays = 1j * link.phases
    return LinkTerms(
        rays=np.exp(rays, out=rays),
        ray_panel=ray_panel,
        los_panel=panel_terms(geom, zen0, wrap_angle(az0 - mech)),
        los_phasor=np.exp(-1j * 2.0 * math.pi * link.d_3d / lam),
        cluster_amp=np.sqrt(link.cluster_powers / link.phases.shape[-1]),
        scatter_mix=np.sqrt(1.0 / (1.0 + k))[..., None],
        los_mix=np.sqrt(k / (1.0 + k)),
        scale=10.0 ** ((-link.pathloss_db + link.shadow_db) / 10.0),
    )


def steered_energy(terms: LinkTerms, geom: PanelGeometry, steer: SteeringDirection,
                   work: FieldWork | None = None) -> np.ndarray:
    """Energy [W] of |h_tilde(tau)|^2 at 1 W transmit power for every link,
    from the links' precomputed ``link_terms``.

    The target is a single isotropic element (unit field). Clusters sit at
    distinct delays, so the energy is the sum of squared per-cluster
    amplitudes; LoS mixing folds the direct path into the first cluster.
    Returns an array with the links' leading shape. Callers that steer many
    beams over the same links compute the terms once and pass one ``work``,
    a ``FieldWork`` of at least the links' ray count, which holds the ray
    field of each beam in turn.
    """
    # Operand order pinned: numpy swaps the operands of a product whose
    # right operand is a large temporary, and the complex product is not
    # bit-commutative, so the bits would depend on how many links are passed.
    rays = steered_field(geom, terms.ray_panel, steer, work)
    np.multiply(terms.rays, rays, out=rays)
    amps = terms.cluster_amp * rays.sum(axis=-1)
    h_los = np.multiply(steered_field(geom, terms.los_panel, steer), terms.los_phasor)
    amps = amps * terms.scatter_mix
    amps[..., 0] += terms.los_mix * h_los
    return terms.scale * (np.abs(amps) ** 2).sum(axis=-1)
