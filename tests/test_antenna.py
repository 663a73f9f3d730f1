"""Antenna panel numerics against explicit element-by-element oracles,
and the steering kernel against a frozen copy of its earlier form."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cellless.antenna import (BEAMWIDTH_CONSTANT, ELEMENT_SPACING, ISOTROPIC, THREEGPP_8DBI,
                              FieldWork, PanelGeometry, PanelTerms, SteeringDirection,
                              _array_ratio, _steering, beam_phasor, element_field,
                              element_gain_db, fold_weight, panel_field, panel_terms, steered_sum,
                              width_to_panel, wrap_angle)
from cellless.channel import (ChannelParams, LosModel, direct_paths, link_terms, link_uniforms,
                              sample_link, steered_energy)


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
    flat = g.reshape(-1)  # the kernel's buffers are flat
    z, power = (np.empty(flat.shape, dtype=complex) for _ in range(2))
    u = np.exp(1j * np.pi * flat)
    ratio = _array_ratio(u, 1.0, m, z, power, np.empty(flat.shape), np.empty(flat.shape))
    return ratio.reshape(g.shape), (power * np.conjugate(u)).reshape(g.shape)


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


# ---------------------------------------------------------------------------
# The steering kernel against a frozen copy of its earlier form, which took
# z^m from a copy of z, wrote the ratio into a strided view of z and steered
# the rays and the direct paths of ``steered_energy`` in two calls. The
# kernel keeps its bits: the field, z^m, the ratio and the energies are the
# frozen copy's byte for byte.

def _frozen_power(z, m, out):
    np.copyto(out, z)
    for bit in bin(m)[3:]:
        np.multiply(out, out, out=out)
        if bit == "1":
            np.multiply(out, z, out=out)
    return out


def _frozen_array_ratio(u, step, m, z, power):
    np.multiply(u, step, out=z)
    scratch = np.absolute(z.imag, out=power.real)
    singular = np.less(scratch, 1e-12) if scratch.size and scratch.min() < 1e-12 else None
    if singular is not None:
        limit = 1.0 if m % 2 else np.copysign(1.0, z.real[singular])
    _frozen_power(z, m, power)
    ratio = np.multiply(z.imag, m, out=z.imag)
    if singular is not None:
        ratio[singular] = 1.0
    np.divide(power.imag, ratio, out=ratio)
    if singular is not None:
        ratio[singular] = limit
    return ratio


def _frozen_steered_sum(geom, terms, weight, steer):
    shape = np.shape(terms.u_v)
    size = math.prod(shape)
    field, z, power = np.empty((3, max(size, 2)), dtype=complex)[:, :2 if size == 1 else size]
    factor = np.reshape(weight, -1)
    for u, (step, count) in zip((terms.u_v, terms.u_h), _steering(geom, steer)):
        u = np.reshape(u, -1)
        if count > 1:
            ratio = _frozen_array_ratio(u, step, count, z, power)
            np.multiply(factor, power, out=field)
            np.multiply(field, ratio, out=field)
        else:
            np.multiply(factor, u, out=field)
        factor = field
    return field[:size].reshape(shape)


def _frozen_steered_energy(terms, geom, steer):
    """Two steering calls, each over arrays of its own: the rays, then the
    direct paths."""
    n_rays = math.prod(terms.ray_shape)

    def steered(index, shape):
        u_v, u_h, weight = (a[index].reshape(shape).copy()
                            for a in (terms.panel.u_v, terms.panel.u_h, terms.weight))
        return _frozen_steered_sum(geom, PanelTerms(u_v, u_h), weight, steer)

    amps = terms.cluster_amp * steered(slice(n_rays), terms.ray_shape).sum(axis=-1)
    h_los = steered(slice(n_rays, None), terms.scale.shape)
    amps = amps * terms.scatter_mix
    amps[..., 0] += terms.los_mix * h_los
    amps = np.multiply(amps, beam_phasor(geom, steer))
    return terms.scale * (np.abs(amps) ** 2).sum(axis=-1)


def _near_threshold(im_sign, ulps, re_sign):
    """A unit phasor whose imaginary part is ``ulps`` ulps past 1e-12 (before
    it, for negative ``ulps``), with the given signs."""
    x = 1e-12
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else 0.0)
    return complex(re_sign * math.sqrt(1.0 - x * x), im_sign * x)


_SIGNS = st.sampled_from([-1.0, 1.0])
#: Unit phasors exp(1j*pi*g) at any g, at exactly integer g, and with an
#: imaginary part a few ulps either side of +-1e-12, the singularity test's
#: threshold.
_PHASORS = st.one_of(
    st.floats(-4.0, 4.0).map(lambda g: cmath.exp(1j * math.pi * g)),
    st.integers(-4, 4).map(lambda k: complex((-1.0) ** k, 0.0)),
    st.builds(_near_threshold, _SIGNS, st.integers(-3, 3), _SIGNS))
#: One angle, two, or a block that the vector loops run through.
_SIZES = st.sampled_from([1, 2, 300])


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 64), phasors=st.lists(_PHASORS, min_size=1, max_size=12),
       size=st.sampled_from([2, 300]), step=st.one_of(st.just(1.0), st.floats(-1.0, 1.0).map(
           lambda c: cmath.exp(-1j * math.pi * ELEMENT_SPACING * c))))
@example(m=2, phasors=[_near_threshold(1.0, -1, -1.0)], size=2, step=1.0)
@example(m=3, phasors=[_near_threshold(-1.0, 1, 1.0), 1.0 + 0.0j], size=2, step=1.0)
def test_array_ratio_equals_frozen_copy(m, phasors, size, step):
    """z, z^m and the ratio of one axis of m elements are the frozen copy's
    byte for byte, also where Im z is 0 or within a few ulps of +-1e-12,
    for odd and even m. Two angles or more: numpy rounds a complex product
    of one element apart from the same element of a longer array, and
    ``steered_sum`` steers one angle as a pair, so the axis never runs on
    one (``test_steered_sum_equals_frozen_copy`` covers one angle)."""
    u = np.resize(np.array(phasors, dtype=complex), size)
    z, power, ratio = np.empty(size, dtype=complex), np.empty(size, dtype=complex), np.empty(size)
    got = _array_ratio(u, step, m, z, power, ratio, np.empty(size))
    want_z, want_power = np.empty((2, size), dtype=complex)
    want = _frozen_array_ratio(u, step, m, want_z, want_power)
    assert got is ratio
    assert got.tobytes() == want.tobytes()
    assert power.tobytes() == want_power.tobytes()
    assert z.real.tobytes() == want_z.real.tobytes()  # the frozen copy's z.imag is the ratio


#: Steering directions with g = +-1 at their mirror images: zenith 0 and
#: pi down a column, (pi/2, +-pi/2) along a row.
_EDGE_STEERS = [SteeringDirection(0.0, 0.0), SteeringDirection(math.pi, 0.0),
                SteeringDirection(math.pi / 2, math.pi / 2),
                SteeringDirection(math.pi / 2, -math.pi / 2)]


@st.composite
def _steering_case(draw):
    """A panel, a steering direction, and observation angles: random ones,
    the steering direction itself (g = 0 on both axes), its mirror down a
    column and along a row (g = +-1 for ``_EDGE_STEERS``), and, under a
    steering azimuth of 0 (where the row's steering phasor is exactly 1),
    row phasors a few ulps either side of the singularity threshold."""
    geom = PanelGeometry(draw(st.integers(1, 16)), draw(st.integers(1, 64)),
                         element_pattern=draw(st.sampled_from([ISOTROPIC, THREEGPP_8DBI])))
    zeniths, azimuths = st.floats(0.0, math.pi), st.floats(-math.pi, math.pi)
    steer = draw(st.one_of(st.builds(SteeringDirection, zeniths, azimuths),
                           st.builds(SteeringDirection, zeniths, st.just(0.0)),
                           st.sampled_from(_EDGE_STEERS)))
    zenith, azimuth = steer.zenith, steer.azimuth
    size = draw(_SIZES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta, phi = rng.uniform(0.0, math.pi, size), rng.uniform(-math.pi, math.pi, size)
    special = [(zenith, azimuth), (math.pi - zenith, azimuth), (zenith, -azimuth)]
    for i in draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6)):
        theta[i], phi[i] = special[draw(st.integers(0, 2))]
    terms = panel_terms(theta, phi)
    if azimuth == 0.0:
        for i in draw(st.lists(st.integers(0, size - 1), max_size=6)):
            terms.u_h[i] = draw(_PHASORS)
    weight = fold_weight(element_field(geom.element_pattern, theta, phi), terms,
                         np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size)))
    if size == 1 and draw(st.booleans()):  # one angle as a 0-d array
        terms, weight = PanelTerms(terms.u_v.reshape(()), terms.u_h.reshape(())), weight[0]
    return geom, steer, terms, weight


@settings(max_examples=150, deadline=None)
@given(case=_steering_case())
def test_steered_sum_equals_frozen_copy(case):
    """Rows 1-16 and columns 1-64 of both element patterns, at one angle,
    two, or a block: the field is the frozen copy's byte for byte, with or
    without a workspace, and a workspace larger than the angles."""
    geom, steer, terms, weight = case
    want = _frozen_steered_sum(geom, terms, weight, steer)
    size = max(np.size(weight), 2)
    for work in (None, FieldWork(size), FieldWork(size + 7)):
        got = steered_sum(geom, terms, weight, steer, work)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


ORACLE_PARAMS = ChannelParams(los_model=LosModel("umi"))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 16), cols=st.integers(1, 64),
       pattern=st.sampled_from([ISOTROPIC, THREEGPP_8DBI]),
       mech=st.floats(-math.pi, math.pi), seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(), (1, 1), (1, 2), (2, 3), (3, 4)]),
       at_target=st.booleans(), zenith=st.floats(0.0, math.pi),
       azimuth=st.floats(-math.pi, math.pi))
def test_steered_energy_equals_frozen_two_call_copy(rows, cols, pattern, mech, seed, shape,
                                                    at_target, zenith, azimuth):
    """One ``steered_sum`` over the rays and the direct paths gives each
    link's energy byte for byte as the rays and the direct paths steered in
    two calls, for a single link and for blocks of links, at a random beam
    and at one steered onto a target's direct path."""
    n_realizations, n_targets = shape or (1, 1)
    positions = np.random.default_rng(seed).uniform((-40.0, -40.0, 0.5), (40.0, 40.0, 2.0),
                                                    (n_targets, 3))
    paths = direct_paths((0.0, 0.0, 10.0), 3.5e9, positions, ORACLE_PARAMS)
    uniforms = link_uniforms(seed, range(n_realizations), 0, 0, n_targets, ORACLE_PARAMS)
    if not shape:
        paths = direct_paths((0.0, 0.0, 10.0), 3.5e9, positions[0], ORACLE_PARAMS)
        uniforms = uniforms[0, 0]
    links = sample_link(paths, ORACLE_PARAMS, uniforms)
    geom = PanelGeometry(rows, cols, mech_azimuth=mech, element_pattern=pattern)
    steer = (SteeringDirection(float(np.reshape(paths.zenith, -1)[0]),
                               wrap_angle(float(np.reshape(paths.azimuth, -1)[0]) - mech))
             if at_target else SteeringDirection(zenith, azimuth))
    terms = link_terms(links, geom)
    want = _frozen_steered_energy(terms, geom, steer)
    for work in (None, FieldWork(terms.weight.size)):
        got = steered_energy(terms, geom, steer, work)
        assert got.shape == want.shape == links.los.shape
        assert got.tobytes() == want.tobytes()


def test_field_work_refuses_more_angles_than_it_holds():
    """A workspace hands out up to its size (at least two) and refuses more
    with an error that names both counts, also through ``steered_sum``."""
    assert FieldWork(1).size == 2
    work = FieldWork(5)
    assert [(b.shape, b.dtype) for b in work.take(5)] == [((5,), complex)] * 4 + [((5,), float)]
    with pytest.raises(ValueError, match=r"of 5 angles cannot steer 6"):
        work.take(6)
    terms = panel_terms(np.full(9, 1.0), np.zeros(9))
    with pytest.raises(ValueError, match=r"of 5 angles cannot steer 9"):
        steered_sum(PanelGeometry(4, 4), terms, np.ones(9), SteeringDirection(1.0, 0.0), work)


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
