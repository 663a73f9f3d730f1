"""MaxRate simulated annealing: moves, objective, and determinism."""

import math

import numpy as np
import pytest

from cellless.radio_metrics import Evaluator
from cellless.solution import validate
from cellless.solver_ctm import CtmConfig, build_geometry
from cellless.solver_maxrate import (AnnealConfig, move_power, move_reassign,
                                     move_steering, move_width, neighbor,
                                     objective, solve_maxrate)


@pytest.fixture(scope="module")
def start(tiny_scenario):
    return build_geometry(tiny_scenario, CtmConfig(seed=0))


@pytest.fixture(scope="module")
def ev(tiny_scenario):
    return Evaluator(tiny_scenario, seed=0, n_realizations=4)


def test_objective_is_min_mean_rate(tiny_scenario, start, ev):
    obj = objective(start, ev)
    rates = [float(ev.rate(u.id, start).mean()) for u in tiny_scenario.users]
    assert obj == min(rates)


def test_objective_minus_inf_when_unserved(tiny_scenario, start, ev):
    from dataclasses import replace
    beams = tuple(replace(b, served_users=frozenset()) for b in start.beams)
    assert objective(replace(start, beams=beams), ev) == -math.inf


def test_moves_preserve_legality(tiny_scenario, start):
    rng = np.random.default_rng(1)
    sol = start
    for _ in range(200):
        sol = neighbor(sol, tiny_scenario, rng, AnnealConfig(seed=0))
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
        def link_terms(self, panel):
            return ch.link_terms(self.links, panel)

    monkeypatch.setattr(ch, "link_terms", spy)
    monkeypatch.setattr(solver_maxrate, "Evaluator", Recorded)
    kept_sol, kept = solve_maxrate(scenario, cfg)
    kept_calls = len(calls)
    assert any(record.terms is not None for record in made[0]._parts.values())

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
