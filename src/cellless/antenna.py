"""Panel element patterns and the steered-array field.

Angle conventions: zenith theta in [0, pi] measured from the z axis,
azimuth phi in [-pi, pi] measured counterclockwise from x. All functions
take local-coordinate-system (LCS) angles; the caller maps from the global
frame by subtracting the panel's mechanical azimuth (panels are tilted 90
degrees, slant 0, so zenith is unchanged).

The field is computed in phasor form. ``PanelTerms`` keep, per
observation angle, the element-to-element phase steps along the two panel
axes as unit phasors, u_v = exp(i*pi*d_v*cos(theta)) down a column and
u_h = exp(i*pi*d_h*sin(phi)*sin(theta)) along a row, where d_v = d_h =
``ELEMENT_SPACING`` wavelengths. A beam multiplies them by its two
steering phasors, s_v = exp(-i*pi*d_v*cos(theta_s)) and s_h =
exp(-i*pi*d_h*sin(phi_s)*sin(theta_s)), to get z = u*s = exp(i*pi*g) per
axis, raises z to the axis's element count m by repeated squaring and sums
the m elements in closed form (the planar array factor, Balanis, *Antenna
Theory*, ch. 6): sin(m*pi*g) / (m*sin(pi*g)) * exp(i*pi*(m-1)*g) =
Im(z^m) / (m*Im z) * z^m * conj(u) * conj(s). Every factor that no beam
changes, the element field, conj(u_v) * conj(u_h) and any phasor of the
path (a ray's phase), is folded into one weight per angle (``fold_weight``;
``channel.link_terms`` forms a ray's from one sum of phases), and
conj(s_v*s_h) * sqrt(M*N) is one per-beam phasor (``beam_phasor``).
``steered_sum`` applies one beam to the weights: per angle, the weight
times each axis's ratio and z^m, complex products only, and no sine or
exponential. Each axis costs a fixed run of passes over the buffers of
a ``FieldWork``: z, z^m by repeated squaring from z itself, m*Im z and
its magnitude, and the ratio. The angles where g is an integer, which take
the ratio's limit, are found among the few whose |m*Im z| is at most
fl(m*1e-12). The test writes contiguous buffers, not a strided view of z.
The ratio is kept as r + 0j, the operand numpy would cast it to, so the
field's product with it is a plain complex product.
``channel.link_terms`` lays out a block's rays and direct paths as one
flat set of terms, so one call steers all of them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

ISOTROPIC = "isotropic"
THREEGPP_8DBI = "threegpp_8dbi"
ELEMENT_PATTERNS = (ISOTROPIC, THREEGPP_8DBI)

#: Element spacing along both panel axes, in wavelengths: every panel is
#: a half-wavelength array, the one ``BEAMWIDTH_CONSTANT`` is defined for.
ELEMENT_SPACING = 0.5

#: Half-power beamwidth constant for a uniform half-wavelength array,
#: in radians (~102 deg). Maps an abstract beam width to a column count.
BEAMWIDTH_CONSTANT = 1.782


@dataclass(frozen=True)
class PanelGeometry:
    """Rectangular M x N antenna panel of ``ELEMENT_SPACING``-spaced elements."""

    rows: int
    cols: int
    mech_azimuth: float = 0.0
    element_pattern: str = ISOTROPIC

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("panel must have at least one element per axis")
        if self.element_pattern not in ELEMENT_PATTERNS:
            raise ValueError(f"unknown element pattern {self.element_pattern!r}")


@dataclass(frozen=True)
class SteeringDirection:
    """Desired beam direction in the panel LCS."""

    zenith: float
    azimuth: float


def element_gain_db(pattern, theta, phi):
    """Element radiation pattern in dB at LCS angles (radians).

    The 3GPP element has 8 dBi boresight gain and a floor of -22 dB;
    the isotropic element is 0 dB everywhere.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if pattern == ISOTROPIC:
        return np.zeros(np.broadcast(theta, phi).shape)
    if pattern != THREEGPP_8DBI:
        raise ValueError(f"unknown element pattern {pattern!r}")
    theta_deg = np.degrees(theta)
    phi_deg = np.degrees(phi)
    a1 = np.minimum(12.0 * ((theta_deg - 90.0) / 65.0) ** 2, 30.0)
    a2 = np.minimum(12.0 * (phi_deg / 65.0) ** 2, 30.0)
    return 8.0 - np.minimum(a1 + a2, 30.0)


def element_field(pattern, theta, phi):
    """Element field amplitude (linear) at LCS angles: exactly 1.0 for the
    isotropic element, which is 0 dB everywhere."""
    if pattern == ISOTROPIC:
        return 1.0
    # 10^(dB/20) as one exponential: numpy's exp is vectorized, its pow is not.
    return np.exp(element_gain_db(pattern, theta, phi) * (math.log(10.0) / 20.0))


class FieldWork:
    """Buffers of ``steered_sum`` for up to ``size`` observation angles
    (at least two): four complex numbers and one real number per angle,
    the field, z, z^m, the array ratio (whose imaginary part stays 0) and
    m*Im z. Beams steered over the same angles through one workspace
    allocate (and page in) them once, not once per beam."""

    def __init__(self, size: int):
        size = max(size, 2)
        self._buffers = np.empty((4, size), dtype=complex)
        self._buffers[3].imag = 0.0
        self._scaled = np.empty(size)

    @property
    def size(self) -> int:
        """The most observation angles one ``take`` can hand out."""
        return self._scaled.size

    def take(self, size: int) -> tuple:
        """The first ``size`` entries of each buffer: field, z, z^m, ratio
        (complex) and m*Im z (real). More than ``self.size`` raises
        ``ValueError``."""
        if size > self.size:
            raise ValueError(f"a workspace of {self.size} angles cannot steer {size}")
        return (*(b[:size] for b in self._buffers), self._scaled[:size])


def _power(z, m: int, out):
    """``out = z**m`` for an integer m >= 1, by left-to-right repeated
    squaring; every product has its operands in one order. The first
    squaring reads ``z`` itself."""
    base = z
    for bit in bin(m)[3:]:
        np.multiply(base, base, out=out)
        base = out
        if bit == "1":
            np.multiply(out, z, out=out)
    if base is z:
        np.copyto(out, z)
    return out


def _array_ratio(u, step, m: int, z, power, ratio, scaled):
    """One panel axis of m elements at ``z = u * step = exp(1j*pi*g)``:
    writes z into ``z``, z^m into ``power``, m*Im z into the contiguous
    real buffer ``scaled`` and the real ratio sin(m*pi*g) / (m*sin(pi*g))
    = Im(z^m) / (m*Im z) into the real array ``ratio`` (a view is fine),
    which it returns. The m elements sum, (1/m) * sum_a z^(2a) for a = 0 ..
    m-1, to that ratio times z^m * conj(z).

    Im(z^m) and Im z come from the same rounded z, so their ratio stays
    accurate as g nears an integer. Where |Im z| < 1e-12, g is an integer k
    and the ratio is its limit (-1)^(k*(m-1)): 1 for odd m, the sign of
    Re z for even m. Rounding is monotone, so every such angle has
    |m*Im z| <= fl(m*1e-12): that test, on |m*Im z| written contiguously
    into the first half of ``power``'s memory (free until z^m is formed),
    finds the few candidates, and only they are tested for |Im z| < 1e-12.
    """
    np.multiply(u, step, out=z)
    np.multiply(z.imag, m, out=scaled)
    near = np.absolute(scaled, out=power.view(float)[:scaled.size]) <= m * 1e-12
    singular = near.nonzero()[0]
    if singular.size:
        singular = singular[np.absolute(z.imag[singular]) < 1e-12]
        limit = 1.0 if m % 2 else np.copysign(1.0, z.real[singular])
        scaled[singular] = 1.0  # no division by zero
    _power(z, m, power)
    np.divide(power.imag, scaled, out=ratio)
    if singular.size:
        ratio[singular] = limit
    return ratio


@dataclass(frozen=True)
class PanelTerms:
    """The element-to-element phase steps along each panel axis at fixed
    LCS observation angles, as unit phasors. No steering direction or
    column count changes them; the element field and the path's phase go
    into a separate folded weight (``fold_weight``)."""

    u_v: np.ndarray   # exp(1j*pi*d_v*cos(theta)), along a column
    u_h: np.ndarray   # exp(1j*pi*d_h*sin(phi)*sin(theta)), along a row


def unit_phasor(x, out=None):
    """exp(1j*x) of a real array, from one cosine and one sine, written
    into ``out`` (a complex array of x's shape) if given."""
    if out is None:
        out = np.empty(np.shape(x), dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def panel_terms(theta, phi) -> PanelTerms:
    """The axis phasors of ``steered_sum`` at LCS angles."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    step = np.cos(theta, out=np.empty(np.broadcast(theta, phi).shape))
    step *= math.pi * ELEMENT_SPACING
    u_v = unit_phasor(step)
    np.sin(phi, out=step)
    step *= np.sin(theta)
    step *= math.pi * ELEMENT_SPACING
    return PanelTerms(u_v, unit_phasor(step))


def fold_weight(element, terms: PanelTerms, phasor=None):
    """The folded weight of ``steered_sum`` at the terms' angles: the
    element field times conj(u_v) * conj(u_h), times ``phasor`` if given
    (a path's own phase). The products are not in place: numpy rounds an
    in-place complex product of one element apart from the same element
    of a longer array."""
    weight = np.multiply(np.conjugate(terms.u_v), element)
    weight = np.multiply(weight, np.conjugate(terms.u_h))
    return weight if phasor is None else np.multiply(weight, phasor)


def _steering(geom: PanelGeometry, steer: SteeringDirection) -> tuple:
    """(steering phasor s, element count) of each panel axis: down a
    column, then along a row."""
    return ((cmath.exp(-1j * math.pi * ELEMENT_SPACING * math.cos(steer.zenith)), geom.rows),
            (cmath.exp(-1j * math.pi * ELEMENT_SPACING * math.sin(steer.azimuth)
                       * math.sin(steer.zenith)), geom.cols))


def beam_phasor(geom: PanelGeometry, steer: SteeringDirection) -> complex:
    """The per-beam factor of the panel field that ``steered_sum`` leaves
    out: sqrt(M*N) times conj(s) of each axis of more than one element."""
    phasor = complex(math.sqrt(geom.rows * geom.cols))
    for step, count in _steering(geom, steer):
        if count > 1:
            phasor *= step.conjugate()
    return phasor


def steered_sum(geom: PanelGeometry, terms: PanelTerms, weight, steer: SteeringDirection,
                work: FieldWork | None = None):
    """The panel field of the beam steered to ``steer`` at the terms'
    angles, over ``beam_phasor``, with every angle's folded ``weight`` in
    it.

    Per angle, the weight times, along each axis of m > 1 elements, the
    ratio and z^m of ``_array_ratio``; an axis of one element is not
    steered and gives u, which with its conj(u) in the weight is 1. Each
    step is elementwise. With ``work``, the returned array is one of its
    buffers, valid until the next call that uses them; a ``work`` smaller
    than the angles raises ``ValueError``.
    """
    shape = np.shape(terms.u_v)
    # numpy rounds an in-place complex product of one element apart from
    # the same element of a longer array, so one angle is steered as a pair.
    size = math.prod(shape)
    field, z, power, ratio, scaled = (work or FieldWork(size)).take(2 if size == 1 else size)
    # Operand order pinned: numpy swaps the operands of a product whose
    # right operand is a large temporary, and the complex product is not
    # bit-commutative, so the bits would depend on how many angles are passed.
    factor = np.reshape(weight, -1)
    for u, (step, count) in zip((terms.u_v, terms.u_h), _steering(geom, steer)):
        u = np.reshape(u, -1)
        if count > 1:
            _array_ratio(u, step, count, z, power, ratio.real, scaled)
            np.multiply(factor, power, out=field)
            np.multiply(field, ratio, out=field)
        else:
            np.multiply(factor, u, out=field)
        factor = field
    return field[:size].reshape(shape)


def panel_field(geom: PanelGeometry, theta, phi, steer: SteeringDirection):
    """Complex field of the steered panel at LCS observation angles.

    The magnitude peaks at sqrt(M*N) times the element field in the steered
    direction; equal to the explicit element-by-element sum normalized by
    sqrt(M*N).
    """
    terms = panel_terms(theta, phi)
    weight = fold_weight(element_field(geom.element_pattern, theta, phi), terms)
    return steered_sum(geom, terms, weight, steer) * beam_phasor(geom, steer)


def width_to_panel(width: float, geom: PanelGeometry) -> int:
    """Effective azimuth column count realizing a beam of the given width.

    Monotone non-increasing in width; clamped to [1, geom.cols].
    """
    if width <= 0:
        raise ValueError("beam width must be positive")
    n_eff = int(round(BEAMWIDTH_CONSTANT / width))
    return max(1, min(geom.cols, n_eff))


def wrap_angle(a):
    """Wrap angle(s) to (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    wrapped = -((-a + np.pi) % (2.0 * np.pi) - np.pi)
    return wrapped if wrapped.ndim else float(wrapped)
