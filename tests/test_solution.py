"""Solution legality checks and (de)serialization."""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cellless.scenario import (ParseError, ValidationError, builtin_scenario,
                               scenario_from_dict, scenario_to_dict)
from cellless.solution import (BeamConfig, SolutionState, load_solution,
                               save_solution, solution_from_dict,
                               solution_to_dict, validate)
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
        if b.owner_poa == near.id and b == sol.beams_of(near.id)[0]:
            served = served | {user.id}
        beams.append(replace(b, served_users=served))
    # Move the user's position next to that PoA via a fresh scenario copy.
    users = tuple(
        replace(u, position=replace(u.position, x=near.position.x + 1.0,
                                    y=near.position.y)) if u.id == user.id else u
        for u in scenario.users)
    close = replace(scenario, users=users)
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


def test_solution_round_trip(tmp_path, tiny_scenario, tiny_solution):
    d = solution_to_dict(tiny_solution)
    again = solution_from_dict(d)
    assert again.tx_power == tiny_solution.tx_power
    assert {b.beam_id: b.served_users for b in again.beams} == \
        {b.beam_id: b.served_users for b in tiny_solution.beams}
    for a, b in zip(sorted(again.beams, key=lambda x: x.beam_id),
                    sorted(tiny_solution.beams, key=lambda x: x.beam_id)):
        assert a.azimuth == pytest.approx(b.azimuth)
        assert a.width == pytest.approx(b.width)

    off = tiny_solution.with_power("poaA", -math.inf)
    path = tmp_path / "sol.json"
    save_solution(off, path)
    loaded = load_solution(path)
    assert loaded.tx_power["poaA"] == -math.inf
    assert validate(loaded, tiny_scenario) == []


def test_helpers(tiny_solution):
    uid = next(iter(tiny_solution.beams[0].served_users))
    assert uid in tiny_solution.beam_for_user(uid).served_users
    with pytest.raises(KeyError):
        tiny_solution.beam_for_user("nobody")
    assert tiny_solution.active_poas() == ["poaA", "poaB"]
    assert len(tiny_solution.beams_of("poaA")) == 2


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
def test_saved_solution_reloads_equal(solution_path, solution):
    """Random beams, widths, served-user sets and powers (-inf included)
    come back from solution.json exactly as saved."""
    save_solution(solution, solution_path)
    assert load_solution(solution_path) == solution


@pytest.mark.parametrize("raw, fault", [
    (b'{"beams": [], "tx_power_dbm": {"p\xffA": 20.0}}', "not UTF-8 text"),
    (b'{"beams": [], "tx_power_dbm": }', "not valid JSON"),
])
def test_unreadable_solution_file_names_the_file(tmp_path, raw, fault):
    path = tmp_path / "solution.json"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=fault) as err:
        load_solution(path)
    assert str(path) in str(err.value)


def test_degree_only_files_still_load():
    old = {"beams": [{"beam_id": "b0", "owner_poa": "poaA", "azimuth_deg": 90.0,
                      "zenith_deg": 45.0, "width_deg": 10.0, "served_users": ["u0"]}],
           "tx_power_dbm": {"poaA": 20.0, "poaB": None}}
    sol = solution_from_dict(old)
    (b,) = sol.beams
    assert (b.azimuth, b.zenith, b.width) == (math.radians(90.0), math.radians(45.0),
                                              math.radians(10.0))
    assert b.served_users == {"u0"} and sol.tx_power == {"poaA": 20.0, "poaB": -math.inf}


def _one_beam_file(**changes):
    beam = {"beam_id": "b0", "owner_poa": "poaA", "azimuth_rad": 0.5, "zenith_rad": 1.0,
            "width_rad": 0.2, "served_users": ["u0"], **changes}
    return {"beams": [{k: v for k, v in beam.items() if v is not None}],
            "tx_power_dbm": {"poaA": 20.0}}


def test_beam_without_served_users_loads_disabled():
    (b,) = solution_from_dict(_one_beam_file(served_users=None)).beams
    assert b.served_users == frozenset() and not b.active


@pytest.mark.parametrize("data, path", [
    (_one_beam_file(zenith_rad=None, zenith_rads=1.0), "beams[0].zenith_rads"),
    (_one_beam_file(zenith_rad=None), "beams[0].zenith_rad"),
    (_one_beam_file(zenith_rad=None, zenith_deg="45"), "beams[0].zenith_deg"),
    (_one_beam_file(zenith_deg=45.0), "beams[0].zenith_deg"),
    (_one_beam_file(served_users=["u0", 1]), "beams[0].served_users[1]"),
    (_one_beam_file(beam_id=3), "beams[0].beam_id"),
    ({**_one_beam_file(), "tx_power_dbm": {"p": "high"}}, "tx_power_dbm.p"),
    ({**_one_beam_file(), "tx_power_dbm": []}, "tx_power_dbm"),
    ({**_one_beam_file(), "beams": {}}, "beams"),
    ({"beams": []}, "tx_power_dbm"),
    ({**_one_beam_file(), "powers": {}}, "powers"),
], ids=["angle-key-misspelled", "angle-missing", "degrees-not-number",
        "degrees-beside-radians", "served-user-not-text", "beam-id-not-text",
        "power-not-number", "powers-not-object", "beams-not-list", "powers-missing",
        "top-level-key-unknown"])
def test_bad_solution_files_rejected_naming_the_key(data, path):
    with pytest.raises(ValidationError) as err:
        solution_from_dict(data)
    assert err.value.path == path


def _number_paths(node, path=""):
    """(load-error path, parent, key) of every number in a JSON tree."""
    if isinstance(node, dict):
        items = [(f"{path}.{k}" if path else k, k, v) for k, v in node.items()]
    elif isinstance(node, list):
        items = [(f"{path}[{i}]", i, v) for i, v in enumerate(node)]
    else:
        return []
    found = []
    for child, key, value in items:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            found.append((child, node, key))
        else:
            found += _number_paths(value, child)
    return found


@pytest.fixture(scope="module")
def saved_files():
    """A saved inf-dh-desk world and a saved solution of it, as loaded JSON,
    each with its loader."""
    scenario = builtin_scenario("inf-dh-desk", 1)
    solution = build_geometry(scenario, CtmConfig(seed=1))
    return {"scenario": (json.dumps(scenario_to_dict(scenario)), scenario_from_dict),
            "solution": (json.dumps(solution_to_dict(solution)), solution_from_dict)}


@pytest.mark.parametrize("file", ["scenario", "solution"])
@pytest.mark.parametrize("bad", [True, "1", math.nan, math.inf],
                         ids=["true", "string", "nan", "infinity"])
def test_every_number_in_a_file_must_be_a_finite_number(saved_files, file, bad):
    """Each number of a saved file, replaced by a boolean, a numeric string,
    NaN or Infinity, is refused at load with its own path."""
    text, load = saved_files[file]
    n = len(_number_paths(json.loads(text)))
    assert n > (300 if file == "scenario" else 40)
    wrong = []
    for i in range(n):
        data = json.loads(text)
        path, parent, key = _number_paths(data)[i]
        parent[key] = bad
        try:
            load(data)
            wrong.append((path, "loaded"))
        except ValidationError as e:
            if e.path != path:
                wrong.append((path, e.path))
    assert wrong == []
