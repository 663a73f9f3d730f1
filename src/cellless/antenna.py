"""Panel element patterns and the steered-array field.

Angle conventions: zenith theta in [0, pi] measured from the z axis,
azimuth phi in [-pi, pi] measured counterclockwise from x. All functions
take local-coordinate-system (LCS) angles; the caller maps from the global
frame by subtracting the panel's mechanical azimuth (panels are tilted 90
degrees, slant 0, so zenith is unchanged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ISOTROPIC = "isotropic"
THREEGPP_8DBI = "threegpp_8dbi"

#: Half-power beamwidth constant for a uniform half-wavelength array,
#: in radians (~102 deg). Maps an abstract beam width to a column count.
BEAMWIDTH_CONSTANT = 1.782


@dataclass(frozen=True)
class PanelGeometry:
    """Rectangular M x N antenna panel, spacings in wavelengths."""

    rows: int
    cols: int
    v_spacing: float = 0.5
    h_spacing: float = 0.5
    mech_azimuth: float = 0.0
    element_pattern: str = ISOTROPIC

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("panel must have at least one element per axis")
        if self.v_spacing <= 0 or self.h_spacing <= 0:
            raise ValueError("element spacing must be positive")
        if self.element_pattern not in (ISOTROPIC, THREEGPP_8DBI):
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


def _array_ratio(m, g):
    """sin(m*pi*g) / (m*sin(pi*g)) with the removable singularities filled.

    This is sinc(m*g)/sinc(g) in the normalized-sinc convention. At integer
    g the limit is (-1)^(k*(m-1)) with k = round(g); at g = 0 it is 1.
    """
    g = np.asarray(g, dtype=float)
    if m == 1:
        return np.ones_like(g)
    den = np.asarray(np.sin(np.pi * g))
    singular = np.abs(den) < 1e-12
    den[singular] = 1.0
    ratio = np.asarray(np.sin(m * np.pi * g) / (m * den))
    k = np.rint(g[singular]).astype(np.int64)
    ratio[singular] = np.where((k * (m - 1)) % 2 == 0, 1.0, -1.0)
    return ratio


@dataclass(frozen=True)
class PanelTerms:
    """Factors of the panel field at fixed LCS observation angles that no
    steering direction or column count changes."""

    cos_theta: np.ndarray
    sin_phi_sin_theta: np.ndarray
    element: np.ndarray | float  # element field amplitude (linear)


def panel_terms(pattern, theta, phi) -> PanelTerms:
    """Steering-independent terms of ``panel_field`` at LCS angles."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    # The isotropic element is 0 dB everywhere: amplitude exactly 1.
    element = (1.0 if pattern == ISOTROPIC
               else 10.0 ** (element_gain_db(pattern, theta, phi) / 20.0))
    return PanelTerms(np.cos(theta), np.sin(phi) * np.sin(theta), element)


def steered_field(geom: PanelGeometry, terms: PanelTerms, steer: SteeringDirection):
    """Complex field of the steered panel from precomputed ``panel_terms``."""
    m, n = geom.rows, geom.cols
    g1 = geom.v_spacing * (terms.cos_theta - math.cos(steer.zenith))
    g2 = geom.h_spacing * (
        terms.sin_phi_sin_theta - math.sin(steer.azimuth) * math.sin(steer.zenith)
    )
    af = _array_ratio(m, g1) * _array_ratio(n, g2) * math.sqrt(m * n)
    field = np.asarray(1j * np.pi * ((m - 1) * g1 + (n - 1) * g2))
    del g1, g2  # the complex field is built in place: this bounds the peak memory
    np.exp(field, out=field)
    return np.multiply(terms.element * af, field, out=field)


def panel_field(geom: PanelGeometry, theta, phi, steer: SteeringDirection):
    """Complex field of the steered panel at LCS observation angles.

    The magnitude peaks at sqrt(M*N) times the element field in the steered
    direction; equal to the explicit element-by-element sum normalized by
    sqrt(M*N).
    """
    return steered_field(geom, panel_terms(geom.element_pattern, theta, phi), steer)


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
