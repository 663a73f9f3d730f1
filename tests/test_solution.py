"""Solution legality checks and (de)serialization."""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cellless.radio_metrics import SolutionInvalidError, evaluate
from cellless.scenario import builtin_scenario
from cellless.solution import BeamConfig, SolutionState, save_solution, solution_to_dict, validate
from cellless.solver_ctm import CtmConfig, build_geometry


def codes(violations):
    return {v.code for v in violations}


def test_legal_solution_passes(tiny_scenario, tiny_solution):
    assert validate(tiny_solution, tiny_scenario) == []


def test_unserved_and_double_served(tiny_scenario, tiny_solution):
    beams = list(tiny_solution.beams)
    b0 = beams[0]
    beams[0] = replace(b0, served_users=frozenset())
    sol = replace(tiny_solution, beams=tuple(beams))
    assert "unserved_user" in codes(validate(sol, tiny_scenario))

    beams = list(tiny_solution.beams)
    extra = beams[1]
    beams[1] = replace(extra, served_users=extra.served_users | b0.served_users)
    sol = replace(tiny_solution, beams=tuple(beams))
    assert "multi_served_user" in codes(validate(sol, tiny_scenario))


def test_power_and_width_violations(tiny_scenario, tiny_solution):
    over = tiny_solution.with_power("poaA", 55.0)
    assert "power_above_max" in codes(validate(over, tiny_scenario))

    missing = replace(tiny_solution,
                      tx_power={"poaA": 10.0})
    assert "missing_power" in codes(validate(missing, tiny_scenario))

    nan = tiny_solution.with_power("poaB", float("nan"))
    assert "bad_power" in codes(validate(nan, tiny_scenario))

    beams = list(tiny_solution.beams)
    beams[0] = replace(beams[0], width=math.radians(1.0))  # below the 5 deg min
    narrow = replace(tiny_solution, beams=tuple(beams))
    assert "beam_too_narrow" in codes(validate(narrow, tiny_scenario))

    # A NaN width is refused too, before evaluate turns it into panel columns.
    geometry = build_geometry(tiny_scenario, CtmConfig(seed=0))
    live = next(i for i, b in enumerate(geometry.beams) if b.active)
    beams = list(geometry.beams)
    beams[live] = replace(beams[live], width=math.nan)
    unset = replace(geometry, beams=tuple(beams))
    assert codes(validate(unset, tiny_scenario)) == {"beam_too_narrow"}
    with pytest.raises(SolutionInvalidError, match="beam_too_narrow"):
        evaluate(unset, tiny_scenario, 0, 1)

    beams = list(tiny_solution.beams)
    beams[1] = replace(beams[1], zenith=-0.1)
    below = replace(tiny_solution, beams=tuple(beams))
    assert "bad_zenith" in codes(validate(below, tiny_scenario))


def test_unknown_entities(tiny_scenario, tiny_solution):
    beams = tiny_solution.beams + (
        BeamConfig("ghost-b0", "poaA", 0.0, 1.0, 0.2, frozenset()),)
    sol = replace(tiny_solution, beams=beams)
    assert "unknown_beam" in codes(validate(sol, tiny_scenario))

    beams = list(tiny_solution.beams)
    beams[0] = replace(beams[0],
                       served_users=beams[0].served_users | {"u99"})
    sol = replace(tiny_solution, beams=tuple(beams))
    assert "unknown_user" in codes(validate(sol, tiny_scenario))


def test_a_power_for_a_poa_the_scenario_lacks_is_refused(tiny_scenario, tiny_solution):
    """A ``tx_power`` key that names no scenario PoA is an ``unknown_poa``
    violation, which ``evaluate`` refuses."""
    extra = replace(tiny_solution, tx_power={**tiny_solution.tx_power, "poa99": 50.0})
    assert [(v.code, v.subject) for v in validate(extra, tiny_scenario)] == [
        ("unknown_poa", "poa99")]
    with pytest.raises(SolutionInvalidError, match=r"unknown_poa\(poa99\)"):
        evaluate(extra, tiny_scenario, 0, 1)


def test_min_serving_distance_enforced():
    scenario = builtin_scenario("umi-sc-desk", 0)
    sol = build_geometry(scenario, CtmConfig(seed=0))
    assert validate(sol, scenario) == []
    # Forcing a user onto a PoA within 10 m must be flagged.
    user = scenario.users[0]
    near = min(scenario.poas,
               key=lambda p: math.hypot(user.position.x - p.position.x,
                                        user.position.y - p.position.y))
    beams = []
    for b in sol.beams:
        served = b.served_users - {user.id}
        if b == next(c for c in sol.beams if c.owner_poa == near.id):
            served = served | {user.id}
        beams.append(replace(b, served_users=served))
    # Move the user, and the human linked to it, next to that PoA via a
    # fresh scenario copy.
    moved = replace(user.position, x=near.position.x + 1.0, y=near.position.y)
    users = tuple(replace(u, position=moved) if u.id == user.id else u for u in scenario.users)
    humans = tuple(replace(h, position=moved) if h.linked_user == user.id else h
                   for h in scenario.humans)
    close = replace(scenario, users=users, humans=humans)
    forced = replace(sol, beams=tuple(beams))
    assert "serving_too_close" in codes(validate(forced, close))


def test_total_power_only_counts_active_poas(tiny_scenario, tiny_solution):
    assert tiny_solution.total_power_watts() == pytest.approx(2 * 0.1)  # 2 x 20 dBm
    off = tiny_solution.with_power("poaA", -math.inf)
    assert off.total_power_watts() == pytest.approx(0.1)
    # An inactive PoA's power does not count even when set.
    beams = tuple(b if b.owner_poa != "poaB" else replace(b, served_users=frozenset())
                  for b in tiny_solution.beams)
    idle = replace(tiny_solution, beams=beams)
    assert idle.total_power_watts() == pytest.approx(0.1)


def _written(solution, path):
    """The solution.json that ``save_solution`` writes for ``solution``, as
    JSON."""
    save_solution(solution, path)
    return json.loads(path.read_text(encoding="utf-8"))


def _held(record):
    """The beams and powers that a solution.json record holds, as
    ``SolutionState`` holds them."""
    beams = tuple(BeamConfig(b["beam_id"], b["owner_poa"], b["azimuth_rad"], b["zenith_rad"],
                             b["width_rad"], frozenset(b["served_users"]))
                  for b in record["beams"])
    power = {pid: -math.inf if dbm is None else dbm
             for pid, dbm in record["tx_power_dbm"].items()}
    return SolutionState(beams=beams, tx_power=power)


def test_solution_round_trip(tmp_path, tiny_solution):
    """solution.json holds ``solution_to_dict``: angles in radians, as held,
    served users sorted, and a switched-off PoA as null."""
    off = tiny_solution.with_power("poaA", -math.inf)
    record = _written(off, tmp_path / "sol.json")
    assert record == solution_to_dict(off)
    assert set(record) == {"beams", "tx_power_dbm"}
    assert record["tx_power_dbm"] == {"poaA": None, "poaB": off.tx_power["poaB"]}
    for b, written in zip(off.beams, record["beams"]):
        assert written == {"beam_id": b.beam_id, "owner_poa": b.owner_poa,
                           "azimuth_rad": b.azimuth, "zenith_rad": b.zenith,
                           "width_rad": b.width, "served_users": sorted(b.served_users)}
    assert _held(record) == off


def test_helpers(tiny_solution):
    assert tiny_solution.active_poas() == ["poaA", "poaB"]


angle = st.floats(allow_nan=False, allow_infinity=False)
user_sets = st.frozensets(st.sampled_from([f"user{i}" for i in range(6)]))


@st.composite
def solutions(draw):
    n = draw(st.integers(0, 4))
    beams = tuple(BeamConfig(f"b{i}", draw(st.sampled_from(["poaA", "poaB"])),
                             draw(angle), draw(angle), draw(angle), draw(user_sets))
                  for i in range(n))
    power = draw(st.dictionaries(st.sampled_from(["poaA", "poaB", "poaC"]),
                                 st.one_of(st.floats(allow_nan=False, max_value=1e300),
                                           st.just(-math.inf))))
    return SolutionState(beams=beams, tx_power=power)


@pytest.fixture(scope="module")
def solution_path(tmp_path_factory):
    return tmp_path_factory.mktemp("solutions") / "solution.json"


@settings(deadline=None, max_examples=200)
@given(solution=solutions())
def test_saved_solution_holds_its_record(solution_path, solution):
    """Random beams, widths, served-user sets and powers (-inf included):
    the written solution.json is ``solution_to_dict`` of the solution, and
    holds each value exactly as held."""
    record = _written(solution, solution_path)
    assert record == solution_to_dict(solution)
    assert _held(record) == solution
