"""MaxRate simulated annealing: moves, objective, and determinism."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellless.radio_metrics import Evaluator, UnservedUserError
from cellless.scenario import EndUser, Position3D
from cellless.solution import validate
from cellless.solver_ctm import CtmConfig, build_geometry
from cellless.solver_maxrate import (AnnealConfig, move_power, move_reassign,
                                     move_steering, move_width, neighbor,
                                     objective, solve_maxrate)

from conftest import make_poa, make_tiny_scenario


@pytest.fixture(scope="module")
def start(tiny_scenario):
    return build_geometry(tiny_scenario, CtmConfig(seed=0))


@pytest.fixture(scope="module")
def ev(tiny_scenario):
    return Evaluator(tiny_scenario, seed=0, n_realizations=4)


def test_objective_is_min_mean_rate(tiny_scenario, start, ev):
    obj = objective(start, ev)
    rates = ev.mean_rates(start)
    assert rates.shape == (len(tiny_scenario.users),)
    assert obj == min(rates.tolist())


def test_objective_minus_inf_when_unserved(tiny_scenario, start, ev):
    """An unserved user has no rate to score: the objective raises, as
    every rate view does, instead of returning -inf."""
    beams = tuple(replace(b, served_users=frozenset()) for b in start.beams)
    with pytest.raises(UnservedUserError):
        objective(replace(start, beams=beams), ev)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_neighbor_chains_serve_each_user_exactly_once(data):
    """Why the objective needs no unserved case: on random small worlds,
    ``build_geometry`` serves each user with exactly one beam, and so does
    every state a chain of ``neighbor`` moves reaches from it."""
    poas = tuple(make_poa(f"p{i}", data.draw(st.floats(1.0, 39.0)),
                          data.draw(st.floats(1.0, 19.0)), n_beams=data.draw(st.integers(1, 3)),
                          rows=4, cols=4)
                 for i in range(data.draw(st.integers(1, 3))))
    spot = st.builds(Position3D, st.floats(0.0, 40.0), st.floats(0.0, 20.0), st.just(1.5))
    users = tuple(EndUser(f"u{i}", data.draw(spot), 1e6)
                  for i in range(data.draw(st.integers(0, 7))))
    scenario = replace(make_tiny_scenario(), poas=poas, users=users, humans=())
    sol = build_geometry(scenario, CtmConfig(seed=data.draw(st.integers(0, 3))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    want = Counter(u.id for u in users)
    for _ in range(data.draw(st.integers(0, 80))):
        assert Counter(uid for b in sol.beams for uid in b.served_users) == want
        sol = neighbor(sol, scenario, rng)
    assert Counter(uid for b in sol.beams for uid in b.served_users) == want


def test_moves_preserve_legality(tiny_scenario, start):
    rng = np.random.default_rng(1)
    sol = start
    for _ in range(200):
        sol = neighbor(sol, tiny_scenario, rng)
        assert validate(sol, tiny_scenario) == []


def test_move_power_respects_cap_and_off(tiny_scenario, start):
    rng = np.random.default_rng(2)
    for _ in range(100):
        out = move_power(start, tiny_scenario, rng, step_db=5.0)
        for pid, dbm in out.tx_power.items():
            assert dbm <= tiny_scenario.poa_by_id(pid).max_tx_power_dbm + 1e-12
    off = start.with_power("poaA", -math.inf).with_power("poaB", -math.inf)
    out = move_power(off, tiny_scenario, np.random.default_rng(3), 5.0)
    assert out.tx_power == off.tx_power  # off PoAs stay off


def test_zero_step_moves_are_identity(tiny_scenario, start):
    rng = np.random.default_rng(4)
    for _ in range(50):
        out = move_steering(start, tiny_scenario, rng, step=0.0)
        before = {b.beam_id: (b.azimuth, b.zenith) for b in start.beams}
        for b in out.beams:
            az, zen = before[b.beam_id]
            assert b.azimuth == pytest.approx(az, abs=1e-12)
            assert b.zenith == zen
        out = move_width(start, tiny_scenario, rng, step=0.0)
        assert {(b.beam_id, b.width) for b in out.beams} == \
            {(b.beam_id, b.width) for b in start.beams}
        out = move_power(start, tiny_scenario, rng, step_db=0.0)
        assert out.tx_power == start.tx_power


def test_move_width_bounds(tiny_scenario, start):
    rng = np.random.default_rng(5)
    sol = start
    for _ in range(300):
        sol = move_width(sol, tiny_scenario, rng, step=1.0)
        for b in sol.beams:
            wmin = tiny_scenario.poa_by_id(b.owner_poa).min_beam_width
            assert wmin - 1e-12 <= b.width <= math.pi + 1e-12


def test_move_reassign_keeps_partition(tiny_scenario, start):
    rng = np.random.default_rng(6)
    sol = start
    all_users = {u.id for u in tiny_scenario.users}
    for _ in range(100):
        sol = move_reassign(sol, tiny_scenario, rng)
        seen = []
        for b in sol.beams:
            seen.extend(b.served_users)
        assert sorted(seen) == sorted(all_users)


def test_solve_maxrate_improves_or_keeps_min_rate(tiny_scenario, start, ev):
    cfg = AnnealConfig(seed=0, iterations=15, moves_per_temp=5,
                       realizations_per_check=4)
    sol, bundle = solve_maxrate(tiny_scenario, cfg)
    assert validate(sol, tiny_scenario) == []
    assert bundle.min_rate >= objective(start, ev)


def test_solve_maxrate_deterministic(tiny_scenario):
    cfg = AnnealConfig(seed=3, iterations=8, moves_per_temp=4,
                       realizations_per_check=3)
    s1, m1 = solve_maxrate(tiny_scenario, cfg)
    s2, m2 = solve_maxrate(tiny_scenario, cfg)
    assert s1.tx_power == s2.tx_power
    assert m1.per_user_rate == m2.per_user_rate


def test_anneal_with_kept_terms_equals_anneal_without(monkeypatch):
    """Kept link terms change no bit of an anneal: the best solution and its
    rates equal those of the same anneal recomputing the terms on every
    miss, which it does many more times."""
    import cellless.radio_metrics as radio_metrics
    import cellless.solver_maxrate as solver_maxrate
    from cellless import channel as ch
    from cellless.scenario import builtin_scenario

    scenario = builtin_scenario("inf-dh-desk", 1)
    cfg = AnnealConfig(seed=1, iterations=20, moves_per_temp=10, realizations_per_check=4)
    calls, made = [], []
    original = ch.link_terms

    def spy(link, geom):
        calls.append(1)
        return original(link, geom)

    class Recorded(Evaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    class TermsNeverStick(radio_metrics._Part):
        def fill(self, beams, panel):
            super().fill(beams, panel)
            self.kept.clear()

    monkeypatch.setattr(ch, "link_terms", spy)
    monkeypatch.setattr(solver_maxrate, "Evaluator", Recorded)
    kept_sol, kept = solve_maxrate(scenario, cfg)
    kept_calls = len(calls)
    assert any(record.kept for record in made[0]._parts.values())

    monkeypatch.setattr(radio_metrics, "_Part", TermsNeverStick)
    del calls[:]
    sol, bundle = solve_maxrate(scenario, cfg)
    assert kept_calls < len(calls)
    assert kept_sol == sol
    assert kept.per_user_rate == bundle.per_user_rate
    assert kept.per_human_sar == bundle.per_human_sar


def test_anneal_config_validation():
    with pytest.raises(ValueError):
        AnnealConfig(iterations=0)
    with pytest.raises(ValueError):
        AnnealConfig(cooling_factor=1.0)
    with pytest.raises(ValueError):
        AnnealConfig(moves_per_temp=0)
    for temp in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            AnnealConfig(initial_temp=temp)
    assert AnnealConfig(initial_temp=None).initial_temp is None
