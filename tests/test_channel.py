"""Stochastic link model: determinism, distributions, and energy oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cellless.antenna import (ELEMENT_SPACING, ISOTROPIC, THREEGPP_8DBI, FieldWork,
                              PanelGeometry, SteeringDirection, element_gain_db, panel_field,
                              wrap_angle)
from cellless.channel import (SPEED_OF_LIGHT, ChannelParams, LosModel, PathlossCoeffs,
                              dbm_to_watts, departure_angles, direct_paths, link_terms,
                              link_uniforms, los_probability, sample_link, steered_energy)
from cellless.scenario import ValidationError, builtin_template
from conftest import assert_links_match, one_link

PARAMS = ChannelParams(los_model=LosModel("umi"))
POA = (0.0, 0.0, 10.0)
USER = (30.0, 12.0, 1.5)
#: Uniforms per link of PARAMS: 3 + 3 N_c + N_c N_r.
K = 3 + PARAMS.n_clusters * (3 + PARAMS.n_rays)


def _draw(seed, realizations, poa_index, part, positions, params=PARAMS):
    """The links from POA to ``positions`` in each realization index, drawn
    from their keyed uniforms."""
    return sample_link(direct_paths(POA, 3.5e9, positions, params), params,
                       link_uniforms(seed, realizations, poa_index, part, len(positions), params))


def _fields_equal(got, want, index=(slice(None), slice(None))):
    """Every field of ``got`` equals ``index`` of ``want``'s, bit for bit."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name in ("frequency", "ray_zenith_offsets", "ray_azimuth_offsets"):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
        elif f.name == "los_aod":
            assert all(g.shape == w[index].shape and g.tobytes() == w[index].tobytes()
                       for g, w in zip(a, b))
        else:
            assert a.shape == b[index].shape and a.tobytes() == b[index].tobytes(), f.name


def test_link_uniforms_keying():
    """A link's row of uniforms depends on every part of its key (seed,
    realization, PoA index, part, target index) and on nothing else: not
    on the other realizations of the call or on its target count."""
    def row(seed, r, poa_index, part, t):
        return link_uniforms(seed, [r], poa_index, part, t + 1, PARAMS)[0, t].tobytes()

    a = row(1, 0, 2, 0, 3)
    assert row(1, 0, 2, 0, 3) == a
    assert link_uniforms(1, range(2), 2, 0, 6, PARAMS)[0, 3].tobytes() == a
    for key in [(2, 0, 2, 0, 3), (1, 1, 2, 0, 3), (1, 0, 3, 0, 3), (1, 0, 2, 1, 3),
                (1, 0, 2, 0, 4)]:
        assert row(*key) != a


SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64]), st.integers(0, 2**70))
KEYS = st.integers(0, 2**40)  # one- and two-word keys


@settings(deadline=None, max_examples=60)
@example(seed=2**64, realizations=[2**32, 0], poa_index=2**32 - 1, part=1, n_targets=3)
@given(seed=SEEDS, realizations=st.lists(KEYS, min_size=1, max_size=3), poa_index=KEYS,
       part=st.sampled_from([0, 1]), n_targets=st.integers(1, 4))
def test_link_uniforms_are_default_rng_blocks(seed, realizations, poa_index, part, n_targets):
    """Realization r's block is numpy's own ``default_rng([seed, r, PoA,
    part]).random((targets, K))`` bit for bit, whatever the number of
    32-bit words of each key part."""
    got = link_uniforms(seed, realizations, poa_index, part, n_targets, PARAMS)
    assert got.shape == (len(realizations), n_targets, K)
    for block, r in zip(got, realizations):
        want = np.random.default_rng([seed, r, poa_index, part]).random((n_targets, K))
        assert block.tobytes() == want.tobytes()


@settings(max_examples=20)
@given(seed=st.integers(max_value=-1))
def test_link_uniforms_reject_a_negative_seed(seed):
    with pytest.raises(ValueError):
        link_uniforms(seed, range(2), 0, 0, 2, PARAMS)
    with pytest.raises(ValueError):
        link_uniforms(seed, [0], 0, 1, 1, PARAMS)


def test_link_uniforms_empty_shapes():
    assert link_uniforms(1, range(0), 0, 0, 2, PARAMS).shape == (0, 2, K)
    assert link_uniforms(1, range(2), 0, 0, 0, PARAMS).shape == (2, 0, K)
    assert _draw(1, range(0), 0, 0, [USER, USER]).los.shape == (0, 2)


@settings(deadline=None, max_examples=40)
@example(seed=2**64, first=1, k=2, poa_index=2**32, part=1, n_targets=2)
@given(seed=SEEDS, first=st.integers(1, 6), k=st.integers(1, 4), poa_index=KEYS,
       part=st.sampled_from([0, 1]), n_targets=st.integers(1, 4))
def test_a_realization_range_draws_alone_as_in_a_draw_from_zero(seed, first, k, poa_index,
                                                                 part, n_targets):
    """Realizations first ... first+k-1, drawn alone from their keyed
    streams and the targets' kept direct paths, equal those realizations
    of a draw from realization 0, every field bit for bit: a held-out range
    of realizations needs no new key scheme."""
    positions = [(10.0 + 7.0 * j, 3.0 * j - 4.0, 1.5) for j in range(n_targets)]
    whole = _draw(seed, range(first + k), poa_index, part, positions)
    part_links = _draw(seed, range(first, first + k), poa_index, part, positions)
    assert part_links.los.shape == (k, n_targets)
    _fields_equal(part_links, whole, (slice(first, None), slice(None)))


@settings(deadline=None, max_examples=40)
@example(seed=0, n_realizations=1, few=1, poa_index=0, part=0)
@given(seed=SEEDS, n_realizations=st.integers(1, 3), few=st.integers(1, 4), poa_index=KEYS,
       part=st.sampled_from([0, 1]))
def test_the_first_rows_of_a_larger_block_draw_as_a_smaller_block(seed, n_realizations, few,
                                                                  poa_index, part):
    """A link is row t of its realization's block whatever the block's row
    count: the first ``few`` targets of a draw over 5 targets, uniforms and
    every link field, equal a draw over those targets alone, bit for bit
    (a 5-target and a 3-target draw share their first 3 rows)."""
    positions = [(10.0 + 7.0 * j, 3.0 * j - 4.0, 1.0 + 0.2 * j) for j in range(5)]
    realizations = range(n_realizations)
    many = link_uniforms(seed, realizations, poa_index, part, 5, PARAMS)
    assert link_uniforms(seed, realizations, poa_index, part, few, PARAMS).tobytes() == (
        np.ascontiguousarray(many[:, :few]).tobytes())
    _fields_equal(_draw(seed, realizations, poa_index, part, positions[:few]),
                  _draw(seed, realizations, poa_index, part, positions),
                  (slice(None), slice(None, few)))


@settings(deadline=None, max_examples=60)
@given(zeros=st.lists(st.booleans(), min_size=K, max_size=K),
       rest=st.floats(0.0, 1.0, exclude_max=True), p_los=st.floats(0.0, 1.0))
def test_a_uniform_of_zero_gives_finite_fields(zeros, rest, p_los):
    """Generator.random draws from [0, 1), so 0 can occur: any mix of zero
    and other uniforms, up to the largest below 1, gives finite normals,
    exponentials, angles and gains, never log(0)."""
    row = np.where(zeros, 0.0, rest)
    paths = direct_paths(POA, 3.5e9, [USER], PARAMS)
    paths = dataclasses.replace(paths, p_los=np.array([p_los]))
    links = sample_link(paths, PARAMS, row[None, None, :])
    for f in dataclasses.fields(links):
        for value in np.atleast_1d(getattr(links, f.name)):
            assert np.all(np.isfinite(value)), f.name
    assert np.all(links.delays >= 0.0)
    geom = PanelGeometry(4, 4)
    assert np.isfinite(steered_energy(link_terms(links, geom), geom, SteeringDirection(1.0, 0.0)))


def test_draws_follow_their_distributions():
    """Over fixed seeds, 1,000 realizations of 8 targets at 5 m to 390 m
    (UMi LoS probabilities from 1 down to 0.046), with every tolerance at least
    4 standard errors: each target's LoS frequency is within 4.5 binomial
    standard deviations (plus 0.01) of its ``p_los``; the 8,000 shadowing
    normals have mean within 0.05 of 0 and variance within 0.07 of 1
    (standard errors 0.011 and 0.016); the 40,000 cluster zenith and
    azimuth normals, read back from the cluster means, within 0.025 and
    0.035 (0.005 and 0.007), and their correlation within 0.025; and the
    mean delay within 2.5 % of the delay spread (0.5 %)."""
    positions = [(5.0 + 55.0 * j, 0.0, 1.5) for j in range(8)]
    paths = direct_paths(POA, 3.5e9, positions, PARAMS)
    links = _draw(7, range(1000), 3, 0, positions)
    sd = np.sqrt(paths.p_los * (1.0 - paths.p_los) / 1000)
    assert np.all(np.abs(links.los.mean(axis=0) - paths.p_los) <= 4.5 * sd + 0.01)
    sigma = np.where(links.los, PARAMS.shadow_sigma_los_db, PARAMS.shadow_sigma_nlos_db)
    shadow = links.shadow_db / sigma
    assert abs(shadow.mean()) <= 0.05 and abs(shadow.var() - 1.0) <= 0.07
    zen = (links.cluster_zenith - paths.zenith[:, None]) / PARAMS.zenith_spread_dep
    az = wrap_angle(links.cluster_azimuth - paths.azimuth[:, None]) / PARAMS.azimuth_spread_dep
    for normal in (zen, az):
        assert abs(normal.mean()) <= 0.025 and abs(normal.var() - 1.0) <= 0.035
    assert abs(np.corrcoef(zen.ravel(), az.ravel())[0, 1]) <= 0.025
    assert links.delays.mean() == pytest.approx(PARAMS.delay_spread, rel=0.025)


@settings(deadline=None, max_examples=40)
@example(seed=3, n_realizations=3, n_targets=4, axis=1, lo=1, hi=3, rows=16, cols=32,
         pattern=THREEGPP_8DBI, mech=0.4, zenith=1.0, azimuth=0.2, at_target=True, spare=0)
# One link in the slice: its direct-path field is a one-element array.
@example(seed=0, n_realizations=1, n_targets=2, axis=1, lo=0, hi=1, rows=1, cols=3,
         pattern=ISOTROPIC, mech=0.0, zenith=0.0, azimuth=0.0, at_target=False, spare=0)
# A whole call of 19,200 rays, past the size where numpy reuses a temporary
# operand as the output of a product.
@example(seed=5, n_realizations=8, n_targets=24, axis=0, lo=2, hi=3, rows=16, cols=64,
         pattern=THREEGPP_8DBI, mech=-0.3, zenith=1.4, azimuth=0.5, at_target=False, spare=1)
@given(seed=st.integers(0, 2**32), n_realizations=st.integers(1, 4),
       n_targets=st.integers(1, 5), axis=st.sampled_from([0, 1]), lo=st.integers(0, 4),
       hi=st.integers(1, 5), rows=st.integers(1, 16), cols=st.integers(1, 64),
       pattern=st.sampled_from([ISOTROPIC, THREEGPP_8DBI]),
       mech=st.floats(-math.pi, math.pi), zenith=st.floats(0.0, math.pi),
       azimuth=st.floats(-math.pi, math.pi), at_target=st.booleans(),
       spare=st.integers(0, 3))
def test_steered_energy_of_a_slice_is_that_slice_of_the_whole_call(
        seed, n_realizations, n_targets, axis, lo, hi, rows, cols, pattern, mech, zenith,
        azimuth, at_target, spare):
    """The links of a realization slice, drawn alone as a block of a first
    fill draws them, or of a target slice, steer to that slice of the whole call's
    energies byte for byte, through a fresh or a larger reused workspace.
    Each product's operand order is pinned: numpy's complex product is not
    bit-commutative, so a swapped order would make bits depend on the
    slice."""
    size = (n_realizations, n_targets)[axis]
    lo, hi = min(lo, size - 1), max(min(hi, size), min(lo, size - 1) + 1)
    index = (slice(lo, hi), slice(None)) if axis == 0 else (slice(None), slice(lo, hi))
    positions = np.random.default_rng(seed).uniform((-40.0, -40.0, 0.5), (40.0, 40.0, 2.0),
                                                    (n_targets, 3))
    geom = PanelGeometry(rows, cols, mech_azimuth=mech, element_pattern=pattern)

    def energies(index, work=None):
        # A realization slice is drawn alone; a target slice is the tail of
        # a draw over the targets up to its end.
        realizations, targets = range(n_realizations)[index[0]], index[1]
        links = _draw(seed, realizations, 0, 0, positions[:targets.stop])
        if targets.start:
            shared = ("frequency", "ray_zenith_offsets", "ray_azimuth_offsets", "los_aod")
            links = dataclasses.replace(links, los_aod=tuple(
                a[:, targets.start:] for a in links.los_aod), **{
                f.name: getattr(links, f.name)[:, targets.start:]
                for f in dataclasses.fields(links) if f.name not in shared})
        terms = link_terms(links, geom)
        if work is not None:
            work = FieldWork(terms.weight.size + work)
        return links, steered_energy(terms, geom, steer, work)

    paths = direct_paths(POA, 3.5e9, positions, PARAMS)
    steer = (SteeringDirection(float(paths.zenith[0]), wrap_angle(float(paths.azimuth[0]) - mech))
             if at_target else SteeringDirection(zenith, azimuth))
    whole = energies((slice(None), slice(None)))[1]
    links, part = energies(index, spare)
    assert part.shape == links.los.shape == whole[index].shape
    assert part.tobytes() == whole[index].tobytes()
    assert energies(index)[1].tobytes() == part.tobytes()


#: Spreads wide enough that a ray wrapped past +-pi lands inside the 3GPP
#: element's uncapped azimuth range.
WIDE = dataclasses.replace(PARAMS, azimuth_spread_dep=5.0, zenith_spread_dep=0.5)


def _edge_links(rng, n_realizations=3, n_targets=3, params=PARAMS):
    """Drawn links with some clusters moved to the edges of the angle
    ranges: zeniths within the zenith spread of 0 or of pi, so some rays
    clip, and azimuths within the azimuth spread of -pi or of pi, so some
    rays wrap."""
    positions = rng.uniform((-40.0, -40.0, 0.5), (40.0, 40.0, 2.0), (n_targets, 3))
    links = _draw(int(rng.integers(2**32)), range(n_realizations), 0, 0, positions, params)
    shape = links.cluster_zenith.shape
    zen_spread, az_spread = params.zenith_spread_dep, params.azimuth_spread_dep
    zenith = links.cluster_zenith.copy()
    azimuth = links.cluster_azimuth.copy()
    edge = rng.random(shape) < 0.5
    zenith[edge] = (rng.choice([0.0, math.pi], edge.sum())
                    + rng.uniform(-zen_spread, zen_spread, edge.sum()))
    edge = rng.random(shape) < 0.5
    azimuth[edge] = wrap_angle(math.pi + rng.uniform(-az_spread, az_spread, edge.sum()))
    return dataclasses.replace(links, cluster_zenith=zenith, cluster_azimuth=azimuth)


def _element_field(geom, theta, phi):
    return 10.0 ** (element_gain_db(geom.element_pattern, theta, phi) / 20.0)


def _explicit_energy(links, geom, steer):
    """Energy of every link as an explicit sum over the panel's elements and
    the link's rays, at the per-ray angles ``aod_zenith`` / ``aod_azimuth``;
    and the same sum over the magnitudes of the ray and direct-path terms,
    the energy the link would have if none of them cancelled."""
    def field(theta, phi):
        g1 = ELEMENT_SPACING * (np.cos(theta) - math.cos(steer.zenith))
        g2 = ELEMENT_SPACING * (np.sin(phi) * np.sin(theta)
                               - math.sin(steer.azimuth) * math.sin(steer.zenith))
        total = sum(np.exp(2j * math.pi * (a * g1 + b * g2))
                    for a in range(geom.rows) for b in range(geom.cols))
        return _element_field(geom, theta, phi) * total / math.sqrt(geom.rows * geom.cols)

    mech = geom.mech_azimuth
    rays = field(links.aod_zenith, wrap_angle(links.aod_azimuth - mech)) * np.exp(1j * links.phases)
    k = np.where(links.los, links.rician_k, 0.0)
    zen0, az0 = links.los_aod
    direct = (field(zen0, wrap_angle(az0 - mech))
              * np.exp(-2j * math.pi * links.d_3d * links.frequency / SPEED_OF_LIGHT))
    energies = []
    for term in (lambda x: x, np.abs):
        amps = np.sqrt(links.cluster_powers / links.phases.shape[-1]) * term(rays).sum(axis=-1)
        amps *= np.sqrt(1.0 / (1.0 + k))[..., None]
        amps[..., 0] += np.sqrt(k / (1.0 + k)) * term(direct)
        energies.append(10.0 ** ((links.shadow_db - links.pathloss_db) / 10.0)
                        * (np.abs(amps) ** 2).sum(-1))
    return energies


def test_steered_energy_matches_element_and_ray_sum():
    """Every link's energy equals the explicit sum over the panel's elements
    and the link's rays to 1e-12 relative: random 1-5 x 1-5 panels with
    either element pattern and a mechanical azimuth, steered anywhere, over
    links with clipped zeniths and azimuths near +-pi. Rounding a sum of
    terms that cancel errs in proportion to the terms' magnitudes, not to
    the sum, so the 1e-12 is relative to the geometric mean of the energy
    and its no-cancellation bound: on a link near a null, both this kernel
    and the explicit sum itself err by up to 1.4e-12 of the energy."""
    rng = np.random.default_rng(12)
    for _ in range(60):
        geom = PanelGeometry(int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                             mech_azimuth=float(rng.uniform(-math.pi, math.pi)),
                             element_pattern=str(rng.choice([ISOTROPIC, THREEGPP_8DBI])))
        steer = SteeringDirection(float(rng.uniform(0.0, math.pi)),
                                  float(rng.uniform(-math.pi, math.pi)))
        links = _edge_links(rng, params=WIDE if rng.random() < 0.5 else PARAMS)
        got = steered_energy(link_terms(links, geom), geom, steer)
        want, bound = _explicit_energy(links, geom, steer)
        assert got.shape == want.shape == links.los.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.sqrt(want * bound))


@pytest.mark.parametrize("params", [PARAMS, WIDE], ids=["spreads", "wide-spreads"])
@pytest.mark.parametrize("pattern", [ISOTROPIC, THREEGPP_8DBI])
def test_per_cluster_ray_terms_match_the_per_ray_formula(pattern, params):
    """The ray axis phasors and folded weights, built from per-cluster
    angles, equal the per-ray formula at ``aod_zenith`` / ``aod_azimuth`` to
    1e-14, also where rays clip at zenith 0 or pi or wrap at azimuth pi."""
    rng = np.random.default_rng(14)
    spacing = math.pi * ELEMENT_SPACING
    for mech in (0.0, 2.5, -math.pi):
        geom = PanelGeometry(4, 4, mech_azimuth=mech, element_pattern=pattern)
        links = _edge_links(rng, n_realizations=4, n_targets=4, params=params)
        terms = link_terms(links, geom)
        theta, phi = links.aod_zenith, wrap_angle(links.aod_azimuth - mech)
        u_v = np.exp(1j * spacing * np.cos(theta))
        u_h = np.exp(1j * spacing * np.sin(phi) * np.sin(theta))
        weight = _element_field(geom, theta, phi) * np.exp(1j * links.phases) / (u_v * u_h)
        assert terms.ray_shape == links.phases.shape
        (n_rays, n_links), shape = (u_v.size, links.d_3d.size), terms.ray_shape
        rays = [a[:n_rays].reshape(shape) for a in (terms.panel.u_v, terms.panel.u_h, terms.weight)]
        assert all(a.shape == (n_rays + n_links,)
                   for a in (terms.panel.u_v, terms.panel.u_h, terms.weight))
        assert np.max(np.abs(rays[0] - u_v)) <= 1e-14
        assert np.max(np.abs(rays[1] - u_h)) <= 1e-14
        assert np.max(np.abs(rays[2] - weight)) <= 1e-14


def test_los_probability_monotone_and_bounded():
    d = np.linspace(0.0, 500.0, 200)
    inf = LosModel("inf-dh", clutter_density=0.4, clutter_height=2.0)
    for model, poa_height in [(inf, 7.0), (LosModel("umi"), 10.0)]:
        p = los_probability(model, d, poa_height, 1.5)
        assert np.all((0.0 <= p) & (p <= 1.0))
        assert np.all(np.diff(p) <= 1e-12)
    # PoA above the clutter sees farther than one below it.
    near = los_probability(inf, 50.0, 1.0, 1.5)
    high = los_probability(inf, 50.0, 7.0, 1.5)
    assert high > near
    with pytest.raises(ValueError):
        los_probability(LosModel("umi"), -1.0, 10.0, 1.5)
    # Dispatch is on the exact kind, not a prefix.
    for kind in ("rural", "information", "InF-DH", "umi-sc"):
        with pytest.raises(ValueError):
            los_probability(LosModel(kind), 10.0, 10.0, 1.5)


def test_pathloss_strictly_monotone_in_distance():
    pl = PathlossCoeffs(32.4, 21.0, 20.0)
    d = np.linspace(1.0, 1000.0, 500)
    vals = pl.db(d, 3.5e9)
    assert np.all(np.diff(vals) > 0.0)
    # Below 1 m the loss is clamped to the 1 m value.
    assert pl.db(0.1, 3.5e9) == pl.db(1.0, 3.5e9)


def test_a_point_straight_below_has_azimuth_zero_whatever_the_zero_sign():
    """Coincident (x, y) give azimuth 0.0, as the docstring says, also when
    a coordinate difference is -0.0."""
    below = departure_angles((0.0, 0.0, 10.0), (-0.0, 0.0, 1.5))
    assert [float(a) for a in below] == [math.pi, 0.0, 8.5]
    assert math.copysign(1.0, float(below[1])) == 1.0


def test_a_point_behind_at_a_zero_dy_has_azimuth_pi_whatever_the_zero_sign():
    """A target behind the PoA on its x axis has azimuth pi at dy = 0.0 and
    at dy = -0.0; a dy below 0, however small, gives arctan2's -pi, and
    every other difference keeps arctan2's bits."""
    for y in (0.0, -0.0):
        assert float(departure_angles((5.0, 0.0, 10.0), (1.0, y, 1.5))[1]) == math.pi
    assert float(departure_angles((5.0, 0.0, 10.0), (1.0, -1e-300, 1.5))[1]) == -math.pi
    rng = np.random.default_rng(3)
    src, dst = rng.normal(size=3), rng.normal(size=(50, 3))
    delta = dst - src
    assert departure_angles(src, dst)[1].tobytes() == np.arctan2(delta[:, 1],
                                                                 delta[:, 0]).tobytes()


def test_sample_link_invariants():
    targets = [USER, (5.0, -3.0, 1.5), (80.0, 40.0, 1.2), (0.0, 0.0, 1.5)]
    links = _draw(5, range(20), 0, 0, targets)
    shape = (20, len(targets))
    nc, nr = PARAMS.n_clusters, PARAMS.n_rays
    for name in ("los", "pathloss_db", "shadow_db", "rician_k", "d_3d"):
        assert getattr(links, name).shape == shape
    assert links.delays.shape == links.cluster_powers.shape == shape + (nc,)
    for name in ("aod_zenith", "aod_azimuth", "phases"):
        assert getattr(links, name).shape == shape + (nc, nr)
    assert np.allclose(links.cluster_powers.sum(axis=-1), 1.0, rtol=1e-12, atol=0.0)
    assert np.all(links.cluster_powers > 0.0)
    assert np.all(np.diff(links.delays, axis=-1) >= 0.0)
    assert np.all(links.pathloss_db > 0.0)
    assert np.array_equal(links.rician_k > 0.0, links.los)
    assert links.los.any() and not links.los.all()
    assert np.all((0.0 <= links.aod_zenith) & (links.aod_zenith <= math.pi))
    assert np.all((-math.pi < links.aod_azimuth) & (links.aod_azimuth <= math.pi))
    assert np.all((0.0 <= links.phases) & (links.phases < 2.0 * math.pi))
    d3d = [math.dist(POA, t) for t in targets]
    assert np.allclose(links.d_3d, np.broadcast_to(d3d, shape), rtol=1e-12)
    # One link keeps leading shape ().
    # One row of uniforms is one link, leading shape (), drawn as one
    # target of a block.
    one = sample_link(direct_paths(POA, 3.5e9, USER, PARAMS), PARAMS,
                      link_uniforms(5, [0], 0, 0, 1, PARAMS)[0, 0])
    assert one.los.shape == one.d_3d.shape == ()
    assert one.phases.shape == (nc, nr)
    assert_links_match(one, one_link(POA, 3.5e9, USER, PARAMS, (5, 0, 0, 0, 0)))


def test_sample_link_empty_target_list():
    """A plain empty target list gives empty (R, 0) fields, not an error."""
    r = 3
    links = _draw(1, range(r), 0, 0, [])
    nc, nr = PARAMS.n_clusters, PARAMS.n_rays
    for name in ("los", "pathloss_db", "shadow_db", "rician_k", "d_3d"):
        assert getattr(links, name).shape == (r, 0)
    assert links.los_aod[0].shape == links.los_aod[1].shape == (r, 0)
    assert links.delays.shape == links.cluster_powers.shape == (r, 0, nc)
    for name in ("aod_zenith", "aod_azimuth", "phases"):
        assert getattr(links, name).shape == (r, 0, nc, nr)
    geom = PanelGeometry(4, 4)
    steer = SteeringDirection(1.0, 0.0)
    assert steered_energy(link_terms(links, geom), geom, steer).shape == (r, 0)


def test_sample_link_deterministic():
    a, b = (_draw(9, [0], 1, 1, [POA, USER, USER]) for _ in range(2))
    _fields_equal(a, b)
    assert_links_match(a, one_link(POA, 3.5e9, USER, PARAMS, (9, 0, 1, 1, 2)), (0, 2))


def _los_link(k_lin):
    """A LoS realization with controllable Rician K."""
    link = one_link(POA, 3.5e9, USER, PARAMS, (123, 0, 0, 0, 0))
    object.__setattr__(link, "los", True)
    object.__setattr__(link, "rician_k", float(k_lin))
    return link


def test_huge_k_matches_pure_los_closed_form():
    """K = 1e6: energy within 0.1% of the direct-path-only closed form."""
    # Steering a large panel at the direct path keeps the scattered rays
    # in sidelobes, so the O(K^-1/2) cross term sits well under the 0.1%.
    geom = PanelGeometry(16, 32, element_pattern=ISOTROPIC)
    link = _los_link(1e6)
    steer = SteeringDirection(link.los_aod[0], link.los_aod[1])
    # Field amplitude at 20 dBm: sqrt of the linear received power [W].
    scale = 10.0 ** ((20.0 - 30.0 - link.pathloss_db + link.shadow_db) / 20.0)
    f0 = complex(panel_field(geom, link.los_aod[0], link.los_aod[1], steer))
    closed = scale ** 2 * abs(f0) ** 2
    got = dbm_to_watts(20.0) * float(steered_energy(link_terms(link, geom), geom, steer))
    assert got == pytest.approx(closed, rel=1e-3)


def test_channel_params_validation():
    """A world holding channel parameters out of range is refused when it
    is built, at the parameter's file key."""
    world = builtin_template("inf-dh-desk").world
    for change, path in [({"n_rays": 0}, "channel_params.n_rays"),
                         ({"delay_spread": 0.0}, "channel_params.delay_spread_s"),
                         ({"azimuth_spread_dep": -0.1}, "channel_params.azimuth_spread_dep_deg")]:
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(world, channel_params=dataclasses.replace(
                world.channel_params, **change))
        assert err.value.path == path
