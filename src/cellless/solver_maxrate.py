"""MaxRate benchmark: simulated annealing maximizing the minimum user rate.

Starts from the CtM clustering/matching geometry at full power, then
anneals the whole decision vector (powers, steering, widths, user
assignment) under Metropolis acceptance with geometric cooling. Exposure
is evaluated and reported but never used to reject a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .antenna import wrap_angle
from .radio_metrics import Evaluator
from .scenario import (_AT_LEAST_ONE, _POSITIVE, Scenario, _check_fields, _Interval,
                       _optional, _ranged, _real)
from .solution import SolutionState, too_close
from .solver_ctm import CtmConfig, build_geometry

POWER_STEP_DB = 2.0        # move_power step
ANGLE_STEP = 0.2           # move_steering step [rad]
WIDTH_STEP = 0.1           # move_width step [rad]
CALIBRATION_PROBES = 100   # neighbor moves sampled to pick T0
TARGET_ACCEPTANCE = 0.8    # share of worsening probe moves T0 would accept


@dataclass(frozen=True)
class AnnealConfig:
    # None: calibrated from probe moves
    initial_temp: float | None = _ranged(None, _POSITIVE, _optional(_real))
    cooling_factor: float = _ranged(0.95, _Interval(0.0, 1.0), _real)
    iterations: int = _ranged(200, _AT_LEAST_ONE)   # temperature steps
    moves_per_temp: int = _ranged(20, _AT_LEAST_ONE)

    def __post_init__(self):
        _check_fields(self)


def objective(solution: SolutionState, evaluator: Evaluator) -> float:
    """Minimum mean per-user rate (inf with no users). Each scored state
    serves every user once, as ``build_geometry`` and ``neighbor`` keep it,
    else ``UnservedUserError``."""
    rates = evaluator.mean_rates(solution)
    return float(rates.min()) if rates.size else math.inf


def _replace_beam(solution, index, **changes):
    beams = list(solution.beams)
    beams[index] = replace(beams[index], **changes)
    return replace(solution, beams=tuple(beams))


def move_power(solution, scenario, rng, step_db):
    poa = scenario.poas[int(rng.integers(len(scenario.poas)))]
    sign = 1.0 if rng.random() < 0.5 else -1.0
    old = solution.tx_power[poa.id]
    if old == -math.inf:
        return solution
    new = min(poa.max_tx_power_dbm, old + sign * step_db)
    return solution.with_power(poa.id, new)


def move_steering(solution, scenario, rng, step):
    index = int(rng.integers(len(solution.beams)))
    beam = solution.beams[index]
    if rng.random() < 0.5:
        phi = wrap_angle(beam.azimuth + (1.0 if rng.random() < 0.5 else -1.0) * step)
        return _replace_beam(solution, index, azimuth=float(phi))
    theta = min(math.pi, max(0.0, beam.zenith + (1.0 if rng.random() < 0.5 else -1.0) * step))
    return _replace_beam(solution, index, zenith=theta)


def move_width(solution, scenario, rng, step):
    index = int(rng.integers(len(solution.beams)))
    beam = solution.beams[index]
    wmin = scenario.poa_by_id(beam.owner_poa).min_beam_width
    width = min(math.pi, max(wmin, beam.width + (1.0 if rng.random() < 0.5 else -1.0) * step))
    return _replace_beam(solution, index, width=width)


def move_reassign(solution, scenario, rng):
    """Move one random user from its beam to a random other beam whose PoA
    may serve it (not ``too_close``); with none, the solution is kept."""
    if not scenario.users or len(solution.beams) < 2:
        return solution
    user = scenario.users[int(rng.integers(len(scenario.users)))]
    src = next(i for i, b in enumerate(solution.beams) if user.id in b.served_users)
    barred = {p.id for p in scenario.poas if too_close(p, user, scenario) is not None}
    others = [i for i, b in enumerate(solution.beams) if i != src and b.owner_poa not in barred]
    if not others:
        return solution
    dst = others[int(rng.integers(len(others)))]
    beams = list(solution.beams)
    beams[src] = replace(beams[src], served_users=beams[src].served_users - {user.id})
    beams[dst] = replace(beams[dst], served_users=beams[dst].served_users | {user.id})
    return replace(solution, beams=tuple(beams))


def neighbor(solution: SolutionState, scenario: Scenario, rng) -> SolutionState:
    """Exactly one mutation, which keeps a state that ``validate`` accepts
    legal."""
    kind = int(rng.integers(4))
    if kind == 0:
        return move_power(solution, scenario, rng, POWER_STEP_DB)
    if kind == 1:
        return move_steering(solution, scenario, rng, ANGLE_STEP)
    if kind == 2:
        return move_width(solution, scenario, rng, WIDTH_STEP)
    return move_reassign(solution, scenario, rng)


def _calibrate_temperature(start, start_obj, scenario, rng, evaluator):
    """Pick T0 so about TARGET_ACCEPTANCE of early worsening moves would be
    accepted."""
    drops = []
    for _ in range(CALIBRATION_PROBES):
        obj = objective(neighbor(start, scenario, rng), evaluator)
        if obj < start_obj:
            drops.append(start_obj - obj)
    if not drops:
        return max(1.0, abs(start_obj) * 0.01)
    return float(np.mean(drops)) / (-math.log(TARGET_ACCEPTANCE))


def solve_maxrate(evaluator: Evaluator, config: AnnealConfig | None = None,
                  trace: list | None = None):
    """Anneal ``evaluator.scenario`` on ``evaluator``'s channel realizations
    and return (best SolutionState, MetricsBundle).

    ``evaluator.seed`` seeds the move generator and the start geometry's
    k-means, so the anneal is deterministic given the Evaluator's scenario,
    seed and realization count; ``trace`` (if given) collects
    (step, move, current_objective, best_objective, accepted) tuples. Every
    move is scored by ``objective``, accepted or not; one that changes no
    live beam and no live PoA's power costs no rate computation
    (``Evaluator.mean_rates``).
    """
    config = config or AnnealConfig()
    scenario, seed = evaluator.scenario, evaluator.seed
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5A]))

    current = build_geometry(scenario, CtmConfig(seed=seed))
    current_obj = objective(current, evaluator)
    best, best_obj = current, current_obj

    temp = config.initial_temp
    if temp is None:
        temp = _calibrate_temperature(current, current_obj, scenario, rng, evaluator)

    for step in range(config.iterations):
        for move in range(config.moves_per_temp):
            cand = neighbor(current, scenario, rng)
            cand_obj = objective(cand, evaluator)
            delta = cand_obj - current_obj
            accepted = delta >= 0 or rng.random() < math.exp(delta / temp)
            if accepted:
                current, current_obj = cand, cand_obj
                if cand_obj > best_obj:
                    best, best_obj = cand, cand_obj
            if trace is not None:
                trace.append((step, move, current_obj, best_obj, accepted))
        temp *= config.cooling_factor

    return best, evaluator.metrics(best)
