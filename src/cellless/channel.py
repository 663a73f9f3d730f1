"""Seeded stochastic link realizations and per-link received energies.

A link (PoA -> user or human) is drawn one way only. ``direct_paths``
computes the per-target geometry that depends on no draw: direct-path
angles, distance, LoS probability, both pathlosses, and the PoA's
frequency, as array math over every target at once. ``link_uniforms``
keys one stream per (global seed, realization index, PoA index, part),
part 0 being the users and part 1 the humans, and draws from it one
block of uniforms with a row of K = 3 + 3*N_c + N_c*N_r per target, so
target t's link reads row t of its block and depends on its key and t
alone: the users' links do not depend on the humans, and any realization
range draws as the same range of a draw from 0. The Evaluator turns only
the rows of the humans linked to no user into links: a linked human
stands on its user and reads the user's link. ``sample_link`` turns the
targets' direct paths and their rows of uniforms into every link's fields
in one vectorised call, with normals by Box-Muller and exponentials by
inverse CDF, so each link reads a fixed number of uniforms. Each step is
elementwise or reduces the trailing axes, so results are bit-identical
regardless of evaluation order, block or worker count, and a caller that
keeps the direct paths and the key can draw any of its links again, bit
for bit. A ``LinkRealization`` stores the departure angles at cluster
resolution, each cluster's mean, plus the N_r ray offsets that every link
shares; ``link_terms`` works from the per-cluster angles, and the per-ray
angles exist only while the 3GPP element pattern reads them. Ray geometry
is independent of any beam decision: beams enter only through the panel
field applied when computing energies, which lets a fixed set of
realizations be reused across candidate solutions.

The link-energy kernel is split at the beam. ``link_terms`` computes what
no beam changes: per ray, the panel's two axis phasors
(``antenna.PanelTerms``) and one folded weight, the element field times
exp(1j*(phase - pi*d*cos(theta) - pi*d*sin(phi)*sin(theta))); per link,
the same for the direct path, with exp(-1j*2*pi*d_3d/lambda) as its
phase, the Rician and cluster factors and ``scale``, the linear
pathloss-and-shadowing power factor. The phasors and weights are laid
out flat, every ray and then every direct path. A ray's angles are its
cluster's mean plus a shared offset, so its cos(theta), sin(theta) and
sin(phi) come by angle addition from per-cluster and per-offset cosines
and sines, and its only trigonometry is one tangent per phasor
(``antenna.unit_phasor``).
``steered_energy``
applies one beam and returns each link's energy at 1 W: each path's
weight times, per panel axis, z^m and the array ratio of its steered
phasor z, in one ``antenna.steered_sum`` call over the rays and the
direct paths together, complex products only, in the buffers of a
``FieldWork`` that a caller steering many beams over the same terms
passes to every call; the field is split into views of the rays, which
are summed per cluster, and of the direct paths, and the per-beam
``antenna.beam_phasor`` multiplies the cluster sums. The
Evaluator fills its gain tables through one path: per realization block
of a PoA's links, one ``link_terms``, drawn anew or kept from an earlier
fill, steered beam by beam through the Evaluator's one ``FieldWork``,
which every block reuses. Both steps are elementwise or reduce the
trailing cluster and ray axes, so a slice of the links steers to that
slice of the whole call's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import (ELEMENT_SPACING, ISOTROPIC, FieldWork, PanelGeometry, PanelTerms,
                      SteeringDirection, beam_phasor, element_field, fold_weight, panel_terms,
                      steered_sum, unit_phasor, wrap_angle)
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

    def __iter__(self):
        return iter((self.a, self.b, self.c))

    def db(self, d3d, f_hz):
        d = np.maximum(np.asarray(d3d, dtype=float), 1.0)
        return self.a + self.b * np.log10(d) + self.c * math.log10(f_hz / 1e9)


@dataclass(frozen=True)
class LosModel:
    """Line-of-sight probability model: ``kind`` names it (``LOS_KINDS``);
    the clutter fields (density, height [m], block size [m]) are read by
    the InF-DH model only. Their ranges are stated beside their scenario
    file keys (``scenario._LOS_KEYS``)."""

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


@dataclass(frozen=True)
class LinkRealization:
    """Seeded draws of the links from one PoA to one or more targets.

    Per-link fields carry the leading shape of the uniforms the links were
    drawn from (shape () for a single link); per-cluster and per-ray
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


def watts_to_dbm(watts: float) -> float:
    """Level in dBm of a linear power [W]; 0 W (switched off) is -inf."""
    return -math.inf if watts == 0.0 else 30.0 + 10.0 * math.log10(watts)


def los_probability(model: LosModel, d_2d, poa_height, target_height):
    """Line-of-sight probability; monotone non-increasing in d_2d.

    InF-DH uses an exponential decay whose scale grows when the PoA sits
    above the clutter and the target below it; UMi uses the standard d_2d
    break-point form. ``d_2d`` and ``target_height`` broadcast.
    """
    d = np.asarray(d_2d, dtype=float)
    if np.any(d < 0):
        raise ValueError("d_2d must be non-negative")
    if model.kind == "inf-dh":
        rho = min(max(model.clutter_density, 0.0), 1.0 - 1e-9)
        if rho <= 0:
            return np.ones_like(d)
        k = -model.clutter_size_m / math.log(1.0 - rho)
        h, clutter = np.asarray(target_height, dtype=float), model.clutter_height
        below = (poa_height > clutter) & (clutter > h)
        k = np.where(below, k * ((poa_height - h) / np.where(below, clutter - h, 1.0)), k)
        return np.exp(-d / k)
    if model.kind == "umi":
        out = np.ones_like(d)
        far = d > 18.0
        dd = np.where(far, d, 18.0)
        out = np.where(far, 18.0 / dd + np.exp(-dd / 36.0) * (1.0 - 18.0 / dd), out)
        return out
    raise ValueError(f"unknown LoS model {model.kind!r}")


def departure_angles(src, dst):
    """(zenith, azimuth, distance) of the departure direction from the point
    ``src`` toward each point of ``dst``, shape (..., 3), as arrays of its
    leading shape; all three are 0.0 where the points coincide."""
    # + 0.0 turns a -0.0 difference into 0.0, so its sign turns no angle.
    delta = np.asarray(dst, dtype=float) - np.asarray(src, dtype=float) + 0.0
    dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
    d3d = np.sqrt(dx * dx + dy * dy + dz * dz)
    cos_zenith = np.divide(dz, d3d, out=np.ones_like(d3d), where=d3d > 0.0)
    # Coincident points have cos 1 and arctan2(0, 0) = 0: both angles are 0.
    return np.arccos(np.clip(cos_zenith, -1.0, 1.0)), np.arctan2(dy, dx), d3d


def direct_paths(poa_pos, poa_freq, target_pos, params: ChannelParams) -> DirectPaths:
    """Direct-path geometry, LoS probability and both pathlosses of the
    links from one PoA to each target of ``target_pos``, shape (..., 3).
    The PoA sits at ``poa_pos`` and transmits at ``poa_freq`` [Hz]."""
    pos = np.asarray(target_pos, dtype=float)
    if pos.shape == (0,):
        pos = pos.reshape(0, 3)     # an empty plain list: no targets
    zenith, azimuth, d3d = departure_angles(poa_pos, pos)
    d2d = np.hypot(pos[..., 0] - poa_pos[0], pos[..., 1] - poa_pos[1])
    return DirectPaths(zenith, azimuth, d3d,
                       los_probability(params.los_model, d2d, poa_pos[2], pos[..., 2]),
                       params.pathloss_los.db(d3d, poa_freq),
                       params.pathloss_nlos.db(d3d, poa_freq), frequency=poa_freq)


def link_uniforms(seed, realizations, poa_index, part, n_targets,
                  params: ChannelParams) -> np.ndarray:
    """The uniforms in [0, 1) of the links from PoA ``poa_index`` to the
    first ``n_targets`` targets of ``part`` (0: the users, 1: the humans)
    in each realization index of ``realizations`` (any indices, e.g. a
    range starting past 0), as a (len(realizations), n_targets, K) array
    with K = 3 + 3*N_c + N_c*N_r.

    Realization r's block is ``default_rng([seed, r, poa_index, part])
    .random((n_targets, K))``: target t's link reads row t whatever the
    block's row count, so it depends on (seed, r, PoA, part, t) alone. A
    negative key raises ``ValueError``.
    """
    n_uniforms = 3 + params.n_clusters * (3 + params.n_rays)
    out = np.empty((len(realizations), n_targets, n_uniforms))
    for block, r in zip(out, realizations):
        np.random.default_rng([seed, r, poa_index, part]).random(out=block)
    return out


def _box_muller(u_radius, u_angle):
    """Two independent standard normals from two uniforms in [0, 1) (Box and
    Muller, 1958). The radius reads 1 - u, so u = 0 gives finite normals."""
    radius = np.sqrt(-2.0 * np.log1p(-u_radius))
    angle = 2.0 * math.pi * u_angle
    return radius * np.cos(angle), radius * np.sin(angle)


def sample_link(paths: DirectPaths, params: ChannelParams, uniforms) -> LinkRealization:
    """Link realizations from one PoA, each from its own row of uniforms.

    ``uniforms`` has shape (..., K), one row per link, as ``link_uniforms``
    returns; its leading shape is that of every returned field. ``paths``,
    the targets' ``direct_paths`` from the PoA, broadcasts against it, and
    the returned ``los_aod`` and ``d_3d`` view its arrays.

    A row of N_c clusters of N_r rays reads: [0] the LoS state, Bernoulli
    on los_probability; [1], [2] one Box-Muller pair, the shadowing normal
    and the Rician K normal (read when LoS); [3, 3+N_c) the cluster delays,
    i.i.d. exponential by inverse CDF (sorted), with powers proportional to
    exp(-tau/DS), renormalized; [3+N_c, 3+2*N_c) and [3+2*N_c, 3+3*N_c)
    N_c Box-Muller pairs, the Gaussian departure zenith and azimuth of each
    cluster's mean around the direct path; the rest the N_c*N_r i.i.d.
    uniform ray phases. Rays fan out on deterministic equal-spaced offsets
    of half the angular spread. Every step is elementwise or reduces the
    trailing axes, so a link has the same bits in any block of rows.
    """
    nc, nr = params.n_clusters, params.n_rays
    u = np.asarray(uniforms, dtype=float)
    shape = u.shape[:-1]
    zen0, az0, d3d, p_los, pl_los, pl_nlos = (
        np.broadcast_to(a, shape) for a in (paths.zenith, paths.azimuth, paths.d_3d,
                                            paths.p_los, paths.pathloss_los,
                                            paths.pathloss_nlos))
    los = u[..., 0] < p_los
    shadow, k_normal = _box_muller(u[..., 1], u[..., 2])
    k_lin = np.where(los, 10.0 ** ((params.rician_k_mean_db
                                    + params.rician_k_sigma_db * k_normal) / 10.0), 0.0)
    delays = np.sort(-params.delay_spread * np.log1p(-u[..., 3:3 + nc]), axis=-1)
    powers = np.exp(-delays / params.delay_spread)
    powers /= powers.sum(axis=-1, keepdims=True)
    zen_normal, az_normal = _box_muller(u[..., 3 + nc:3 + 2 * nc], u[..., 3 + 2 * nc:3 + 3 * nc])
    zen_spread, az_spread = params.zenith_spread_dep, params.azimuth_spread_dep
    offsets = np.linspace(-0.5, 0.5, nr) if nr > 1 else np.zeros(1)

    return LinkRealization(
        los=los, pathloss_db=np.where(los, pl_los, pl_nlos),
        shadow_db=shadow * np.where(los, params.shadow_sigma_los_db, params.shadow_sigma_nlos_db),
        rician_k=k_lin, frequency=paths.frequency, delays=delays, cluster_powers=powers,
        cluster_zenith=zen0[..., None] + zen_spread * zen_normal,
        cluster_azimuth=wrap_angle(az0[..., None] + az_spread * az_normal),
        ray_zenith_offsets=offsets * zen_spread, ray_azimuth_offsets=offsets * az_spread,
        phases=(2.0 * math.pi * u[..., 3 + 3 * nc:]).reshape(shape + (nc, nr)),
        los_aod=(zen0, az0), d_3d=d3d,
    )


@dataclass(frozen=True)
class LinkTerms:
    """The factors of ``steered_energy`` that depend on the links and the
    panel's mounting and element pattern but on no steering direction or
    column count, so one set serves every beam of a PoA. The axis phasors
    and the folded weights are flat, every ray (in ``ray_shape`` order)
    and then every direct path, so ``antenna.steered_sum`` steers them in
    one call. Each path's element field and phase, and conj(u_v) *
    conj(u_h), are folded into one weight: per ray from one sum of phases,
    per direct path by ``antenna.fold_weight`` with the phasor
    exp(-1j*2 pi d_3d/lambda)."""

    panel: PanelTerms           # flat axis phasors: the rays, then the direct paths
    weight: np.ndarray          # flat folded weights, in the same order
    ray_shape: tuple            # (..., N_c, N_r)
    cluster_amp: np.ndarray     # sqrt(cluster power / N_r), (..., N_c)
    scatter_mix: np.ndarray     # sqrt(1 / (1 + K)), (..., 1)
    los_mix: np.ndarray         # sqrt(K / (1 + K))
    scale: np.ndarray           # linear pathloss-and-shadowing power factor


def _phasors_then(x, tail, work):
    """One flat complex array: exp(1j*x) of the per-ray array ``x``, then
    the direct paths' ``tail``; ``unit_phasor``'s scratch is ``work``'s
    if it is not None."""
    out = np.empty(x.size + np.size(tail), dtype=complex)
    unit_phasor(x, out=out[:x.size].reshape(x.shape), work=work)
    out[x.size:] = np.reshape(tail, -1)
    return out


def _ray_terms(link: LinkRealization, geom: PanelGeometry, los: PanelTerms,
               los_weight, work) -> tuple:
    """The flat axis phasors and folded weights of every ray, from
    per-cluster angles, each followed by the direct paths' ``los`` and
    ``los_weight``. A ray's pi*d*cos(theta), pi*d*sin(theta) and sin(phi)
    come by angle addition from the cosine and sine of its cluster's mean
    and of its shared offset, so the only per-ray trigonometry is the
    three unit phasors, one tangent each. A cluster with a ray whose
    zenith leaves [0, pi] takes its rays' clipped zeniths, as
    ``aod_zenith`` does. Each per-ray array is
    freed or overwritten once read, and each flat output is allocated when
    its phasor is made, which keeps a block's peak memory near that of its
    three phasors."""
    azimuth = link.cluster_azimuth[..., None] - geom.mech_azimuth
    spread = link.ray_azimuth_offsets
    element = None
    if geom.element_pattern != ISOTROPIC:
        # The pattern reads the azimuth itself: the cluster's, wrapped, plus
        # the ray's offset, wrapped again in a cluster with a ray past +-pi.
        mean_phi = wrap_angle(azimuth)
        phi = mean_phi + spread
        wrapped = (mean_phi[..., 0] + spread.min() <= -math.pi) | (
            mean_phi[..., 0] + spread.max() > math.pi)
        if wrapped.any():
            phi[wrapped] = wrap_angle(phi[wrapped])
        element = element_field(geom.element_pattern, link.aod_zenith, phi)
        del phi
    spacing = math.pi * ELEMENT_SPACING
    zenith, offsets = link.cluster_zenith, link.ray_zenith_offsets
    cos_mean, sin_mean = (spacing * f(zenith[..., None]) for f in (np.cos, np.sin))
    cos_off, sin_off = np.cos(offsets), np.sin(offsets)
    col_step = cos_mean * cos_off                     # pi*d*cos(theta)
    col_step -= sin_mean * sin_off
    row_step = sin_mean * cos_off                     # pi*d*sin(theta), then times sin(phi)
    row_step += cos_mean * sin_off
    clipped = (zenith + offsets.min() < 0.0) | (zenith + offsets.max() > math.pi)
    if clipped.any():
        theta = np.clip(zenith[clipped][:, None] + offsets, 0.0, math.pi)
        col_step[clipped] = spacing * np.cos(theta)
        row_step[clipped] = spacing * np.sin(theta)
    row_step *= np.sin(azimuth) * np.cos(spread) + np.cos(azimuth) * np.sin(spread)
    u_v = _phasors_then(col_step, los.u_v, work)
    phase = np.subtract(link.phases, col_step, out=col_step)
    phase -= row_step
    u_h = _phasors_then(row_step, los.u_h, work)
    del row_step
    weight = _phasors_then(phase, los_weight, work)
    if element is not None:
        rays = weight[:phase.size].reshape(phase.shape)
        np.multiply(rays, element, out=rays)
    return PanelTerms(u_v, u_h), weight


def link_terms(link: LinkRealization, geom: PanelGeometry,
               work: FieldWork | None = None) -> LinkTerms:
    """Steering-independent terms of ``steered_energy`` for every link.

    Only ``geom``'s mechanical azimuth and element pattern are read. With
    ``work``, a ``FieldWork`` of at least the links' rays, the ray phasors'
    scratch is its memory, free until the terms are steered.
    """
    # K, 0 off LoS, reduces the Rician mix there to the pure scattered term.
    k = link.rician_k
    lam = SPEED_OF_LIGHT / link.frequency
    zen0, az0 = link.los_aod
    az0 = wrap_angle(az0 - geom.mech_azimuth)
    los = panel_terms(zen0, az0)
    los_weight = fold_weight(element_field(geom.element_pattern, zen0, az0), los,
                             np.exp(-1j * 2.0 * math.pi * link.d_3d / lam))
    panel, weight = _ray_terms(link, geom, los, los_weight, work)
    return LinkTerms(
        panel=panel,
        weight=weight,
        ray_shape=link.phases.shape,
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
    The per-beam ``antenna.beam_phasor`` multiplies the cluster sums, not
    the rays. Returns an array with the links' leading shape. Callers that
    steer many beams over the same links compute the terms once and pass
    one ``work``, a ``FieldWork`` of at least the terms' ``weight.size``
    (rays and direct paths), which holds each beam's field. Rays and direct
    paths are steered in one ``antenna.steered_sum`` call, and its field is
    split into views of the two.
    """
    field = steered_sum(geom, terms.panel, terms.weight, steer, work)
    n_rays = math.prod(terms.ray_shape)
    amps = terms.cluster_amp * field[:n_rays].reshape(terms.ray_shape).sum(axis=-1)
    h_los = field[n_rays:].reshape(terms.scale.shape)
    amps = amps * terms.scatter_mix
    amps[..., 0] += terms.los_mix * h_los
    amps = np.multiply(amps, beam_phasor(geom, steer))
    return terms.scale * (np.abs(amps) ** 2).sum(axis=-1)
