"""Antenna panel numerics against explicit element-by-element oracles."""

import math

import numpy as np
import pytest

from cellless.antenna import (BEAMWIDTH_CONSTANT, ELEMENT_SPACING, ISOTROPIC, THREEGPP_8DBI,
                              PanelGeometry, SteeringDirection, _array_ratio,
                              element_gain_db, panel_field, width_to_panel,
                              wrap_angle)


def element_sum_oracle(geom, theta, phi, steer):
    """Explicit double sum over panel elements, normalized by sqrt(M*N), at
    scalar angles or at arrays of them."""
    m, n = geom.rows, geom.cols
    elem = 10.0 ** (element_gain_db(geom.element_pattern, theta, phi) / 20.0)
    g1 = ELEMENT_SPACING * (np.cos(theta) - math.cos(steer.zenith))
    g2 = ELEMENT_SPACING * (np.sin(phi) * np.sin(theta)
                           - math.sin(steer.azimuth) * math.sin(steer.zenith))
    total = np.zeros(np.shape(g1), dtype=complex)
    for a in range(m):
        for b in range(n):
            total += np.exp(2j * math.pi * (a * g1 + b * g2))
    return (elem * total / math.sqrt(m * n))[()]


def test_panel_field_matches_element_sum_500_draws():
    rng = np.random.default_rng(7)
    for _ in range(500):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        pattern = ISOTROPIC if rng.random() < 0.5 else THREEGPP_8DBI
        geom = PanelGeometry(rows, cols, element_pattern=pattern)
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(-math.pi, math.pi))
        steer = SteeringDirection(float(rng.uniform(0.0, math.pi)),
                                  float(rng.uniform(-math.pi, math.pi)))
        got = complex(panel_field(geom, theta, phi, steer))
        want = element_sum_oracle(geom, theta, phi, steer)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def _array_terms(m, g):
    """The real ratio that ``_array_ratio`` gives m elements at z =
    exp(1j*pi*g), and the phase z^m * conj(z) that moves the panel's centre
    to its first element."""
    g = np.asarray(g, dtype=float)
    z, power = (np.empty(g.shape, dtype=complex) for _ in range(2))
    u = np.exp(1j * np.pi * g)
    ratio = _array_ratio(u, 1.0, m, z, power)
    return ratio, power * np.conjugate(u)


def test_array_ratio_matches_element_sum_at_integer_g():
    """The removable singularities at integer g, for one and several elements."""
    rng = np.random.default_rng(5)
    g = np.concatenate([np.arange(-4.0, 5.0),                  # exactly singular
                        np.arange(-4.0, 5.0) + 1e-14,          # singular within 1e-12
                        rng.uniform(-4.0, 4.0, 200)])
    for m in (1, 2, 3, 4, 8):
        got, phase = _array_terms(m, g)
        # (1/m) * sum_a exp(2j*pi*(a - (m-1)/2)*g), the array factor centred on the panel.
        want = sum(np.exp(2j * math.pi * (a - (m - 1) / 2) * g) for a in range(m)) / m
        assert got.shape == g.shape
        assert np.allclose(got, want.real, rtol=0.0, atol=1e-9)
        assert np.allclose(want.imag, 0.0, atol=1e-9)
        # The phase moves the centre to the first element.
        uncentred = sum(np.exp(2j * math.pi * a * g) for a in range(m)) / m
        assert np.allclose(got * phase, uncentred, rtol=0.0, atol=1e-9)
        assert float(_array_terms(m, 3.0)[0]) == (-1.0) ** (3 * (m - 1))


#: The panels of the built-in worlds: isotropic 16 x 32 and 3GPP 16 x 64.
ORACLE_PANELS = (PanelGeometry(16, 32, element_pattern=ISOTROPIC),
                 PanelGeometry(16, 64, element_pattern=THREEGPP_8DBI))


def _oracle_angles(rng, steer):
    """Observation angles for one steering direction: random ones, ones
    within 1e-9 rad of the steering direction, and ones that put g on an
    integer along one or both axes (the steering direction itself, its
    mirror through the panel's vertical plane, its zenith at any azimuth
    and its horizontal direction cosine at any zenith)."""
    zen, az = steer.zenith, steer.azimuth
    theta = list(rng.uniform(0.0, math.pi, 40))
    phi = list(rng.uniform(-math.pi, math.pi, 40))
    near = rng.uniform(-1e-9, 1e-9, (2, 20))
    theta += list(np.clip(zen + near[0], 0.0, math.pi))
    phi += list(az + near[1])
    theta += [zen, zen] + [zen] * 10
    phi += [az, math.pi - az] + list(rng.uniform(-math.pi, math.pi, 10))
    for t in rng.uniform(0.05, math.pi - 0.05, 10):
        s = math.sin(az) * math.sin(zen) / math.sin(t)
        if abs(s) <= 1.0:
            theta.append(t)
            phi.append(math.asin(s))
    return np.array(theta), np.array(phi)


@pytest.mark.parametrize("panel", ORACLE_PANELS, ids=lambda p: p.element_pattern)
def test_panel_field_matches_element_sum_on_built_in_panels(panel):
    """Every column count of the built-in panels, at random angles, at angles
    within 1e-9 rad of the steering direction and at angles on integer g
    (also g = 1, which needs the steering and observation directions at
    opposite ends of an axis): the field is the explicit element sum to
    1e-12 * sqrt(M*N)."""
    rng = np.random.default_rng(19)
    for cols in range(1, panel.cols + 1):
        geom = PanelGeometry(panel.rows, cols, element_pattern=panel.element_pattern)
        steer = SteeringDirection(float(rng.uniform(0.0, math.pi)),
                                  float(rng.uniform(-math.pi, math.pi)))
        cases = [(steer, *_oracle_angles(rng, steer)),
                 # g = 1 down a column (zenith 0 against pi) and along a row (+y against -y).
                 (SteeringDirection(math.pi, 0.0), np.array([0.0, 0.0]), np.array([0.0, 1.0])),
                 (SteeringDirection(math.pi / 2, -math.pi / 2), np.array([math.pi / 2]),
                  np.array([math.pi / 2]))]
        for steer, theta, phi in cases:
            got = panel_field(geom, theta, phi, steer)
            want = element_sum_oracle(geom, theta, phi, steer)
            assert got.shape == theta.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * math.sqrt(geom.rows * cols)


def test_field_peaks_at_steering_direction():
    geom = PanelGeometry(8, 16, element_pattern=ISOTROPIC)
    steer = SteeringDirection(math.radians(100.0), math.radians(20.0))
    peak = abs(complex(panel_field(geom, steer.zenith, steer.azimuth, steer)))
    assert peak == pytest.approx(math.sqrt(8 * 16), rel=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(200):
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(-math.pi, math.pi))
        assert abs(complex(panel_field(geom, theta, phi, steer))) <= peak + 1e-9


def test_element_pattern_values():
    assert element_gain_db(ISOTROPIC, 1.0, -2.0) == 0.0
    # Boresight: 8 dBi.
    assert element_gain_db(THREEGPP_8DBI, math.pi / 2, 0.0) == pytest.approx(8.0)
    # Floor: 8 - 30 = -22 dB far off boresight.
    assert element_gain_db(THREEGPP_8DBI, math.pi / 2, math.pi) == pytest.approx(-22.0)
    # Symmetric in azimuth and around the horizon.
    a = element_gain_db(THREEGPP_8DBI, math.radians(80.0), math.radians(30.0))
    b = element_gain_db(THREEGPP_8DBI, math.radians(100.0), math.radians(-30.0))
    assert float(a) == pytest.approx(float(b))
    with pytest.raises(ValueError):
        element_gain_db("bogus", 0.0, 0.0)


def test_width_to_panel_monotone_and_clamped():
    geom = PanelGeometry(4, 16)
    widths = np.linspace(0.01, math.pi, 200)
    cols = [width_to_panel(float(w), geom) for w in widths]
    assert all(1 <= c <= 16 for c in cols)
    assert all(a >= b for a, b in zip(cols, cols[1:]))
    # Exact mapping at a few points.
    assert width_to_panel(BEAMWIDTH_CONSTANT / 8.0, geom) == 8
    assert width_to_panel(1e-6, geom) == 16
    assert width_to_panel(math.pi, geom) == 1
    with pytest.raises(ValueError):
        width_to_panel(0.0, geom)


def test_wrap_angle_range_and_congruence():
    rng = np.random.default_rng(11)
    a = rng.uniform(-50.0, 50.0, 1000)
    w = wrap_angle(a)
    assert np.all(w > -math.pi) and np.all(w <= math.pi + 1e-15)
    r = np.mod(w - a, 2.0 * math.pi)
    assert np.all(np.minimum(r, 2.0 * math.pi - r) < 1e-9)
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)


def test_panel_geometry_validation():
    with pytest.raises(ValueError):
        PanelGeometry(0, 4)
    with pytest.raises(ValueError):
        PanelGeometry(4, 4, element_pattern="bogus")
