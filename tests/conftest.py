"""Shared fixtures: a tiny hand-built scenario for fast unit tests."""

import math

import pytest

from cellless.channel import ChannelParams, LosModel, PathlossCoeffs
from cellless.exposure import FrequencyMap
from cellless.scenario import (DEFAULT_PHANTOMS, EndUser, Human, PoA,
                               Position3D, Scenario)
from cellless.solution import BeamConfig, SolutionState


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


@pytest.fixture(scope="session")
def tiny_scenario():
    return make_tiny_scenario()


@pytest.fixture(scope="session")
def tiny_solution(tiny_scenario):
    return serve_all_solution(tiny_scenario)
