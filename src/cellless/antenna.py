"""Panel element patterns and the steered-array field.

Angle conventions: zenith theta in [0, pi] measured from the z axis,
azimuth phi in [-pi, pi] measured counterclockwise from x. All functions
take local-coordinate-system (LCS) angles; the caller maps from the global
frame by subtracting the panel's mechanical azimuth (panels are tilted 90
degrees, slant 0, so zenith is unchanged).

The field is computed in phasor form. ``panel_terms`` keeps, per
observation angle, the element-to-element phase steps along the two panel
axes as unit phasors, u_v = exp(i*pi*d_v*cos(theta)) down a column and
u_h = exp(i*pi*d_h*sin(phi)*sin(theta)) along a row, where d_v = d_h =
``ELEMENT_SPACING`` wavelengths. A beam multiplies
them by its two steering phasors, exp(-i*pi*d_v*cos(theta_s)) and
exp(-i*pi*d_h*sin(phi_s)*sin(theta_s)), to get z = exp(i*pi*g) per axis,
raises z to the axis's element count m by repeated squaring and sums the
m elements in closed form (the planar array factor, Balanis, *Antenna
Theory*, ch. 6): sin(m*pi*g) / (m*sin(pi*g)) * exp(i*pi*(m-1)*g) =
Im(z^m) / (m*Im z) * z^m * conj(z). A beam therefore costs complex
products per angle, and no sine or exponential.
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


class FieldWork:
    """Buffers of ``steered_field`` for up to ``size`` observation angles
    (at least two): three complex numbers per angle. Beams steered over
    the same angles through one workspace allocate (and page in) them
    once, not once per beam."""

    def __init__(self, size: int):
        self._buffers = np.empty((3, max(size, 2)), dtype=complex)

    def take(self, size: int) -> tuple:
        """The first ``size`` entries of each of the three buffers."""
        return tuple(b[:size] for b in self._buffers)


def _power(z, m: int, out):
    """``out = z**m`` for an integer m >= 1, by left-to-right repeated
    squaring; every product has its operands in one order."""
    np.copyto(out, z)
    for bit in bin(m)[3:]:
        np.multiply(out, out, out=out)
        if bit == "1":
            np.multiply(out, z, out=out)
    return out


def _array_sum(u, step, m: int, field, z, power, first: bool):
    """One panel axis of m elements at ``z = u * step = exp(1j*pi*g)``:
    their sum (1/m) * sum_a z^(2a), a = 0 .. m-1, is the phase
    exp(1j*pi*(m-1)*g) = z^m * conj(z), which is written into ``field``
    when ``first`` and multiplied into it otherwise, times the real ratio
    sin(m*pi*g) / (m*sin(pi*g)) = Im(z^m) / (m*Im z), which is returned
    as a view of ``z``. ``z`` and ``power`` are scratch space.

    Im(z^m) and Im z come from the same rounded z, so their ratio stays
    accurate as g nears an integer. Where |Im z| < 1e-12, g is an integer k
    and the ratio is its limit (-1)^(k*(m-1)): 1 for odd m, the sign of
    Re z for even m.
    """
    np.multiply(u, step, out=z)
    scratch = np.absolute(z.imag, out=power.real)
    singular = np.less(scratch, 1e-12) if scratch.size and scratch.min() < 1e-12 else None
    if singular is not None:
        limit = 1.0 if m % 2 else np.copysign(1.0, z.real[singular])
    # conj(z) goes into the field before z is raised to m.
    if first:
        np.conjugate(z, out=field)
    else:
        np.conjugate(z, out=z)
        np.multiply(field, z, out=field)
        np.conjugate(z, out=z)
    _power(z, m, power)
    ratio = np.multiply(z.imag, m, out=z.imag)
    if singular is not None:
        ratio[singular] = 1.0  # no division by zero
    np.divide(power.imag, ratio, out=ratio)
    if singular is not None:
        ratio[singular] = limit
    np.multiply(field, power, out=field)
    return ratio


@dataclass(frozen=True)
class PanelTerms:
    """Factors of the panel field at fixed LCS observation angles that no
    steering direction or column count changes: the element-to-element
    phase steps along each panel axis, as unit phasors, and the element
    field."""

    u_v: np.ndarray   # exp(1j*pi*d_v*cos(theta)), along a column
    u_h: np.ndarray   # exp(1j*pi*d_h*sin(phi)*sin(theta)), along a row
    element: np.ndarray | float  # element field amplitude (linear)


def _unit_phasor(x):
    """exp(1j*x) of a real array, from one cosine and one sine."""
    out = np.empty(np.shape(x), dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def panel_terms(geom: PanelGeometry, theta, phi) -> PanelTerms:
    """Steering-independent terms of ``panel_field`` at LCS angles. Only
    ``geom``'s element pattern is read."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    pattern = geom.element_pattern
    # The isotropic element is 0 dB everywhere: amplitude exactly 1.
    element = (1.0 if pattern == ISOTROPIC
               else 10.0 ** (element_gain_db(pattern, theta, phi) / 20.0))
    step = np.cos(theta, out=np.empty(np.broadcast(theta, phi).shape))
    step *= math.pi * ELEMENT_SPACING
    u_v = _unit_phasor(step)
    np.sin(phi, out=step)
    step *= np.sin(theta)
    step *= math.pi * ELEMENT_SPACING
    return PanelTerms(u_v, _unit_phasor(step), element)


def steered_field(geom: PanelGeometry, terms: PanelTerms, steer: SteeringDirection,
                  work: FieldWork | None = None):
    """Complex field of the steered panel from precomputed ``panel_terms``.

    Along each axis the steering phasor turns the term's phasor into
    z = exp(1j*pi*g), g = d*(direction cosine - steered cosine), and the
    m elements sum to Im(z^m) / (m*Im z) * z^m * conj(z) (see
    ``_array_sum``): complex products, no sine. An axis of one element
    contributes 1. The result is the element field times both axes' sums
    times sqrt(M*N). With ``work``, the returned array is one of its
    buffers, valid until the next call that uses them.
    """
    shape = np.shape(terms.u_v)
    # numpy rounds an in-place complex product of one element apart from
    # the same element of a longer array, so one angle is steered as a pair.
    size = math.prod(shape)
    field, z, power = (work or FieldWork(size)).take(2 if size == 1 else size)
    element = np.reshape(terms.element, -1) if np.ndim(terms.element) else terms.element
    axes = [(np.reshape(u, -1), cmath.exp(-1j * math.pi * ELEMENT_SPACING * cosine), count)
            for u, cosine, count in (
                (terms.u_v, math.cos(steer.zenith), geom.rows),
                (terms.u_h, math.sin(steer.azimuth) * math.sin(steer.zenith), geom.cols))
            if count > 1]
    if not axes:
        field[...] = element
    for i, (u, step, count) in enumerate(axes):
        ratio = _array_sum(u, step, count, field, z, power, first=not i)
        if i < len(axes) - 1:
            np.multiply(field, ratio, out=field)
        else:
            np.multiply(ratio, math.sqrt(geom.rows * geom.cols), out=ratio)
            np.multiply(ratio, element, out=ratio)
            np.multiply(field, ratio, out=field)
    return field[:size].reshape(shape)


def panel_field(geom: PanelGeometry, theta, phi, steer: SteeringDirection):
    """Complex field of the steered panel at LCS observation angles.

    The magnitude peaks at sqrt(M*N) times the element field in the steered
    direction; equal to the explicit element-by-element sum normalized by
    sqrt(M*N).
    """
    return steered_field(geom, panel_terms(geom, theta, phi), steer)


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
