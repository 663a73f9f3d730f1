"""Shared fixtures: a tiny hand-built scenario for fast unit tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cellless.channel import (ChannelParams, LinkRealization, LosModel, PathlossCoeffs,
                              los_probability)
from cellless.exposure import FrequencyMap
from cellless.scenario import (DEFAULT_PHANTOMS, EndUser, Human, PoA,
                               Position3D, Scenario, builtin_scenario)
from cellless.solution import BeamConfig, SolutionState


def _wrap(a):
    """``a`` wrapped to (-pi, pi]."""
    return -((-a + math.pi) % (2.0 * math.pi) - math.pi)


def one_link(poa_pos, frequency, target_pos, params, key):
    """The link to the one target at ``target_pos``, leading shape (), keyed
    (seed, realization, PoA index, part, target index): row t of numpy's
    own ``default_rng([seed, r, p, part]).random((t + 1, K))``, turned into
    the link's fields by scalar ``math`` (its own Box-Muller normals and
    inverse-CDF exponentials) and the models' ``los_probability`` and
    pathloss, so a batched draw is checked against code it does not share."""
    seed, r, p, part, t = key
    nc, nr = params.n_clusters, params.n_rays
    row = np.random.default_rng([seed, r, p, part]).random((t + 1, 3 + nc * (3 + nr)))[t]
    u = row.tolist()

    def normals(u_radius, u_angle):
        radius = math.sqrt(-2.0 * math.log1p(-u_radius))
        return (radius * math.cos(2.0 * math.pi * u_angle),
                radius * math.sin(2.0 * math.pi * u_angle))

    dx, dy, dz = (b - a for a, b in zip(poa_pos, target_pos))
    d3d = math.sqrt(dx * dx + dy * dy + dz * dz)
    zen0 = math.acos(max(-1.0, min(1.0, dz / d3d))) if d3d else 0.0
    az0 = math.atan2(dy, dx)
    los = u[0] < float(los_probability(params.los_model, math.hypot(dx, dy), poa_pos[2],
                                       target_pos[2]))
    shadow, k_normal = normals(u[1], u[2])
    delays = sorted(-params.delay_spread * math.log1p(-x) for x in u[3:3 + nc])
    weights = [math.exp(-tau / params.delay_spread) for tau in delays]
    pairs = [normals(a, b) for a, b in zip(u[3 + nc:3 + 2 * nc], u[3 + 2 * nc:3 + 3 * nc])]
    offsets = np.linspace(-0.5, 0.5, nr) if nr > 1 else np.zeros(1)
    return LinkRealization(
        los=np.array(los),
        pathloss_db=np.array(float((params.pathloss_los if los else params.pathloss_nlos)
                                   .db(d3d, frequency))),
        shadow_db=np.array(shadow * (params.shadow_sigma_los_db if los
                                     else params.shadow_sigma_nlos_db)),
        rician_k=np.array(10.0 ** ((params.rician_k_mean_db
                                    + params.rician_k_sigma_db * k_normal) / 10.0)
                          if los else 0.0),
        frequency=frequency, delays=np.array(delays),
        cluster_powers=np.array([w / sum(weights) for w in weights]),
        cluster_zenith=np.array([zen0 + params.zenith_spread_dep * z for z, _ in pairs]),
        cluster_azimuth=np.array([_wrap(az0 + params.azimuth_spread_dep * a) for _, a in pairs]),
        ray_zenith_offsets=offsets * params.zenith_spread_dep,
        ray_azimuth_offsets=offsets * params.azimuth_spread_dep,
        phases=(2.0 * math.pi * row[3 + 3 * nc:]).reshape(nc, nr),
        los_aod=(np.array(zen0), np.array(az0)), d_3d=np.array(d3d))


def assert_links_match(got, want, at=()):
    """Every field of the links ``got`` at leading index ``at`` matches
    ``one_link``'s ``want``: the LoS states, phases, distances, frequency
    and ray offsets bit for bit, and the fields a transcendental function
    forms (whose last bit numpy's array loops and ``math`` may round
    differently) to 1e-12, relative or absolute; azimuths modulo 2 pi."""
    for name in ("los", "phases", "d_3d"):
        assert np.asarray(getattr(got, name))[at].tobytes() == getattr(want, name).tobytes(), name
    for name in ("frequency", "ray_zenith_offsets", "ray_azimuth_offsets"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    close = {name: (np.asarray(getattr(got, name))[at], getattr(want, name))
             for name in ("pathloss_db", "shadow_db", "rician_k", "delays", "cluster_powers",
                          "cluster_zenith", "aod_zenith")}
    close["los_zenith"] = np.asarray(got.los_aod[0])[at], want.los_aod[0]
    for name, (a, b) in close.items():
        assert a.shape == b.shape and np.allclose(a, b, rtol=1e-12, atol=1e-12), name
    for a, b in [(got.cluster_azimuth, want.cluster_azimuth), (got.aod_azimuth, want.aod_azimuth),
                 (got.los_aod[1], want.los_aod[1])]:
        a = np.asarray(a)[at]
        assert a.shape == b.shape and np.all(np.abs(_wrap(a - b)) <= 1e-12)


def make_poa(pid, x, y, z=6.0, freq=5e9, n_beams=2, mech_az=0.0,
             rows=8, cols=8, max_dbm=30.0):
    return PoA(
        id=pid, position=Position3D(x, y, z), frequency=freq,
        bandwidth=20e6, max_tx_power_dbm=max_dbm,
        min_beam_width=math.radians(5.0), panel_rows=rows, panel_cols=cols,
        mech_azimuth=mech_az, element_pattern="isotropic",
        beams=tuple(f"{pid}-b{j}" for j in range(n_beams)),
    )


def make_tiny_scenario(required_rate=50e6, n_beams=2):
    """2 PoAs x n_beams beams, 3 users, 2 humans, 40 x 20 m hall."""
    poas = (
        make_poa("poaA", 10.0, 10.0, n_beams=n_beams),
        make_poa("poaB", 30.0, 10.0, n_beams=n_beams),
    )
    users = (
        EndUser("u0", Position3D(8.0, 5.0, 1.5), required_rate),
        EndUser("u1", Position3D(14.0, 15.0, 1.5), required_rate),
        EndUser("u2", Position3D(32.0, 6.0, 1.5), required_rate),
    )
    humans = (
        Human("h0", Position3D(8.0, 5.0, 1.5), "ella", linked_user="u0"),
        Human("h1", Position3D(20.0, 12.0, 1.5), "duke"),
    )
    params = ChannelParams(
        pathloss_los=PathlossCoeffs(31.84, 21.5, 19.0),
        pathloss_nlos=PathlossCoeffs(33.63, 21.9, 20.0),
        shadow_sigma_los_db=3.0, shadow_sigma_nlos_db=3.0,
        rician_k_mean_db=10.0, rician_k_sigma_db=3.0,
        los_model=LosModel("inf-dh", clutter_density=0.2, clutter_height=2.0,
                           clutter_size_m=2.0),
    )
    return Scenario(
        kind="InF-DH", bounds=(40.0, 20.0, 8.0),
        poas=poas, users=users, humans=humans,
        phantoms=dict(DEFAULT_PHANTOMS), sar_limit=0.08,
        channel_params=params,
        frequency_map=FrequencyMap({5e9: 5.2e9}),
        name="tiny",
    )


def serve_all_solution(scenario, power_dbm=20.0):
    """One beam per PoA serving the users nearest to it; spare beams off."""
    beams = []
    assigned = {u.id: min(scenario.poas,
                          key=lambda p: (u.position.x - p.position.x) ** 2
                          + (u.position.y - p.position.y) ** 2).id
                for u in scenario.users}
    for poa in scenario.poas:
        served = frozenset(u for u, pid in assigned.items() if pid == poa.id)
        beams.append(BeamConfig(poa.beams[0], poa.id, 0.0, math.radians(120.0),
                                math.radians(60.0), served))
        for spare in poa.beams[1:]:
            beams.append(BeamConfig(spare, poa.id, 0.0, math.pi / 2,
                                    poa.min_beam_width, frozenset()))
    tx = {p.id: power_dbm for p in scenario.poas}
    return SolutionState(beams=tuple(beams), tx_power=tx)


def serving_beam(solution, user_id):
    """The beam of ``solution`` whose served users hold ``user_id``."""
    return next(b for b in solution.beams if user_id in b.served_users)


def nearest_poa(scenario, user):
    """The PoA of ``scenario`` nearest to ``user`` in 2-D."""
    return min(scenario.poas, key=lambda p: math.hypot(user.position.x - p.position.x,
                                                       user.position.y - p.position.y))


def too_close_world(seed):
    """umi-sc-desk placed with ``seed``, with its first user, and the human
    linked to it, moved to 1 m from its nearest PoA, under the world's 10 m
    minimum serving distance. Built-in placements keep every user that far
    from every PoA, so only a world from a file can look like this; the
    solvers serve that user from another PoA."""
    scenario = builtin_scenario("umi-sc-desk", seed)
    user = scenario.users[0]
    near = nearest_poa(scenario, user)
    moved = replace(user.position, x=near.position.x + 1.0, y=near.position.y)
    return replace(scenario,
                   users=tuple(replace(u, position=moved) if u.id == user.id else u
                               for u in scenario.users),
                   humans=tuple(replace(h, position=moved) if h.linked_user == user.id else h
                                for h in scenario.humans))


@pytest.fixture(scope="session")
def tiny_scenario():
    return make_tiny_scenario()


@pytest.fixture(scope="session")
def tiny_solution(tiny_scenario):
    return serve_all_solution(tiny_scenario)
