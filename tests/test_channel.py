"""Stochastic link model: determinism, distributions, and energy oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cellless.antenna import (ISOTROPIC, THREEGPP_8DBI, FieldWork, PanelGeometry,
                              SteeringDirection, panel_field, wrap_angle)
from cellless.channel import (ChannelParams, LosModel, PathlossCoeffs, dbm_to_watts,
                              direct_paths, link_seed_words, link_terms, los_probability,
                              sample_link, seeded_rngs, steered_energy)
from conftest import one_link, seed_sequence_rng

PARAMS = ChannelParams(los_model=LosModel("umi"))
POA = (0.0, 0.0, 10.0)
USER = (30.0, 12.0, 1.5)


def test_link_seed_words_keying():
    """A link's words depend on every part of its key and on nothing else:
    not on the other realizations or targets of the call."""
    def words(seed, r, poa_index, t):
        return link_seed_words(seed, [r], poa_index, [t])[0, 0].tolist()

    a = words(1, 0, 2, 3)
    assert words(1, 0, 2, 3) == a
    assert link_seed_words(1, range(2), 2, [5, 3])[0, 1].tolist() == a
    for key in [(2, 0, 2, 3), (1, 1, 2, 3), (1, 0, 3, 3), (1, 0, 2, 4)]:
        assert words(*key) != a


SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64]), st.integers(0, 2**70))
KEYS = st.integers(0, 2**40)  # one- and two-word keys


@settings(deadline=None, max_examples=60)
@example(seed=2**64, n_realizations=2, poa_index=0, targets=[2**32, 0, 2**32 - 1], r=2**32)
@given(seed=SEEDS, n_realizations=st.integers(1, 3), poa_index=KEYS,
       targets=st.lists(KEYS, min_size=1, max_size=4), r=KEYS)
def test_seeded_link_streams_equal_seed_sequence_streams(seed, n_realizations, poa_index,
                                                         targets, r):
    """Each generator seeded from ``link_seed_words`` has the state and draws
    of default_rng(SeedSequence(key)), whatever the number of 32-bit words
    of each key part."""
    gens = seeded_rngs(link_seed_words(seed, range(n_realizations), poa_index, targets))
    assert [len(row) for row in gens] == [len(targets)] * n_realizations
    for i, row in enumerate(gens):
        for g, t in zip(row, targets):
            ref = seed_sequence_rng(seed, i, poa_index, t)
            assert g.bit_generator.state == ref.bit_generator.state
            assert g.random() == ref.random()
    ((one,),) = seeded_rngs(link_seed_words(seed, [r], poa_index, targets[:1]))
    ref = seed_sequence_rng(seed, r, poa_index, targets[0])
    assert one.bit_generator.state == ref.bit_generator.state
    assert one.standard_normal() == ref.standard_normal()


@settings(max_examples=20)
@given(seed=st.integers(max_value=-1))
def test_link_seed_words_reject_a_negative_seed(seed):
    with pytest.raises(ValueError):
        link_seed_words(seed, range(2), 0, [0, 1])
    with pytest.raises(ValueError):
        link_seed_words(seed, [0], 0, [0])


def test_seeded_link_streams_empty_shapes():
    assert seeded_rngs(link_seed_words(1, range(0), 0, [0, 1])) == []
    assert seeded_rngs(link_seed_words(1, range(2), 0, [])) == [[], []]


@settings(deadline=None, max_examples=40)
@example(seed=2**64, first=1, k=2, poa_index=2**32, targets=[2**32, 0])
@given(seed=SEEDS, first=st.integers(1, 6), k=st.integers(1, 4), poa_index=KEYS,
       targets=st.lists(KEYS, min_size=1, max_size=4))
def test_a_realization_range_draws_alone_as_in_a_draw_from_zero(seed, first, k, poa_index,
                                                                 targets):
    """Realizations first ... first+k-1, drawn alone from their own seed
    words and the targets' kept direct paths, equal those realizations of
    a draw from realization 0, every field bit for bit: a held-out range of
    realizations needs no new key scheme."""
    paths = direct_paths(POA, 3.5e9, [(10.0 + 7.0 * j, 3.0 * j - 4.0, 1.5)
                                      for j in range(len(targets))], PARAMS)
    words = link_seed_words(seed, range(first + k), poa_index, targets)
    alone = link_seed_words(seed, range(first, first + k), poa_index, targets)
    assert alone.tobytes() == words[first:].tobytes()
    whole = sample_link(paths, PARAMS, seeded_rngs(words))
    part = sample_link(paths, PARAMS, seeded_rngs(alone))
    for f in dataclasses.fields(whole):
        got, want = getattr(part, f.name), getattr(whole, f.name)
        if f.name in ("frequency", "ray_zenith_offsets", "ray_azimuth_offsets"):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name
        elif f.name == "los_aod":
            assert all(g.tobytes() == w[first:].tobytes() for g, w in zip(got, want))
        else:
            assert got.shape[:2] == (k, len(targets)), f.name
            assert got.tobytes() == want[first:].tobytes(), f.name


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
    """The links of a realization or target slice, drawn alone as a block
    of a first fill draws them, steer to that slice of the whole call's
    energies byte for byte, through a fresh or a larger reused workspace.
    Each product's operand order is pinned: numpy's complex product is not
    bit-commutative, so a swapped order would make bits depend on the
    slice."""
    size = (n_realizations, n_targets)[axis]
    lo, hi = min(lo, size - 1), max(min(hi, size), min(lo, size - 1) + 1)
    index = (slice(lo, hi), slice(None)) if axis == 0 else (slice(None), slice(lo, hi))
    positions = np.random.default_rng(seed).uniform((-40.0, -40.0, 0.5), (40.0, 40.0, 2.0),
                                                    (n_targets, 3))
    words = link_seed_words(seed, range(n_realizations), 0, range(n_targets))
    geom = PanelGeometry(rows, cols, mech_azimuth=mech, element_pattern=pattern)

    def energies(index, work=None):
        links = sample_link(direct_paths(POA, 3.5e9, positions[index[1]], PARAMS), PARAMS,
                            seeded_rngs(words[index]))
        terms = link_terms(links, geom)
        if work is not None:
            work = FieldWork(terms.rays.size + work)
        return links, steered_energy(terms, geom, steer, work)

    paths = direct_paths(POA, 3.5e9, positions, PARAMS)
    steer = (SteeringDirection(float(paths.zenith[0]), wrap_angle(float(paths.azimuth[0]) - mech))
             if at_target else SteeringDirection(zenith, azimuth))
    whole = energies((slice(None), slice(None)))[1]
    links, part = energies(index, spare)
    assert part.shape == links.los.shape == whole[index].shape
    assert part.tobytes() == whole[index].tobytes()
    assert energies(index)[1].tobytes() == part.tobytes()


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


def test_sample_link_invariants():
    targets = [USER, (5.0, -3.0, 1.5), (80.0, 40.0, 1.2), (0.0, 0.0, 1.5)]
    links = sample_link(direct_paths(POA, 3.5e9, targets, PARAMS), PARAMS,
                        seeded_rngs(link_seed_words(5, range(20), 0, range(len(targets)))))
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
    one = one_link(POA, 3.5e9, USER, PARAMS, (5, 0, 0, 0))
    assert one.los.shape == one.d_3d.shape == ()
    assert one.phases.shape == (nc, nr)


def test_sample_link_empty_target_list():
    """A plain empty target list gives empty (R, 0) fields, not an error."""
    r = 3
    links = sample_link(direct_paths(POA, 3.5e9, [], PARAMS), PARAMS, [[] for _ in range(r)])
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
    a = one_link(POA, 3.5e9, USER, PARAMS, (9, 0, 1, 2))
    b = one_link(POA, 3.5e9, USER, PARAMS, (9, 0, 1, 2))
    assert a.pathloss_db == b.pathloss_db
    assert np.array_equal(a.phases, b.phases)
    assert np.array_equal(a.aod_azimuth, b.aod_azimuth)


def _los_link(k_lin):
    """A LoS realization with controllable Rician K."""
    link = one_link(POA, 3.5e9, USER, PARAMS, (123, 0, 0, 0))
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
    with pytest.raises(ValueError):
        ChannelParams(n_rays=0)
    with pytest.raises(ValueError):
        ChannelParams(delay_spread=0.0)
    with pytest.raises(ValueError):
        ChannelParams(azimuth_spread_dep=-0.1)
