"""Scenario schema, validation, built-ins, and seeded placement."""

import json
import math
import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from cellless import scenario as scenario_module
from cellless.channel import ChannelParams
from cellless.cli import main
from cellless.exposure import FrequencyMap
from cellless.scenario import (_SCENARIO_KEYS, BUILTIN_TEMPLATES, ParseError, PlacementError,
                               ScenarioError, ValidationError, builtin_scenario,
                               builtin_template, generate_placements,
                               load_scenario, save_scenario,
                               scenario_from_dict, scenario_to_dict)

from conftest import make_tiny_scenario, too_close_world


def test_builtin_catalog():
    assert set(BUILTIN_TEMPLATES) == {"inf-dh-default", "umi-sc-default",
                                      "inf-dh-desk", "umi-sc-desk"}
    for name, (nu, nh) in [("inf-dh-default", (100, 200)),
                           ("umi-sc-default", (100, 200)),
                           ("inf-dh-desk", (20, 40)),
                           ("umi-sc-desk", (20, 40))]:
        t = builtin_template(name)
        assert len(t.world.poas) == 8
        assert (t.n_users, t.n_humans) == (nu, nh)
        assert t.required_rate == 100e6
        assert t.world.sar_limit == 0.08
    with pytest.raises(ScenarioError):
        builtin_template("nope")


def test_inf_dh_table_values():
    t = builtin_template("inf-dh-desk")
    assert t.world.bounds == (80.0, 20.0, 8.0)
    los = t.world.channel_params.los_model
    assert los.clutter_density == 0.4 and los.clutter_height == 2.0
    freqs = sorted(p.frequency for p in t.world.poas)
    assert freqs == [3e9, 3e9] + [5e9] * 6
    for p in t.world.poas:
        assert p.bandwidth == 20e6
        assert p.position.z == (7.0 if p.frequency == 3e9 else 6.0)


def test_umi_sc_table_values():
    t = builtin_template("umi-sc-desk")
    assert t.world.bounds[0] == 800.0 and t.world.bounds[1] == 40.0
    freqs = sorted(p.frequency for p in t.world.poas)
    assert freqs == [3.5e9, 3.5e9] + [5.2e9] * 6
    assert all(p.position.z == 10.0 for p in t.world.poas)
    assert t.world.min_poa_user_distance == 10.0
    assert set(t.user_heights) == {0.9, 1.5}


def test_placement_deterministic_and_seed_sensitive():
    a = builtin_scenario("inf-dh-desk", 3)
    b = builtin_scenario("inf-dh-desk", 3)
    c = builtin_scenario("inf-dh-desk", 4)
    assert [u.position for u in a.users] == [u.position for u in b.users]
    assert [u.position for u in a.users] != [u.position for u in c.users]


@pytest.mark.parametrize("name", ["inf-dh-desk", "umi-sc-desk"])
def test_placement_constraints(name):
    t = builtin_template(name)
    for seed in range(5):
        s = generate_placements(t, seed)
        assert len(s.users) == t.n_users and len(s.humans) == t.n_humans
        pts = [(u.position.x, u.position.y) for u in s.users]
        for i, (x, y) in enumerate(pts):
            assert 0.0 <= x <= t.world.bounds[0] and 0.0 <= y <= t.world.bounds[1]
            for a, b in pts[:i]:
                assert math.hypot(x - a, y - b) >= t.min_user_spacing - 1e-9
            if t.world.min_poa_user_distance > 0:
                for p in t.world.poas:
                    assert math.hypot(x - p.position.x, y - p.position.y) >= \
                        t.world.min_poa_user_distance - 1e-9
        # Humans pair with users (co-located) while both lists last.
        for i, h in enumerate(s.humans):
            if i < len(s.users):
                assert h.linked_user == s.users[i].id
                assert h.position == s.users[i].position
            else:
                assert h.linked_user is None


def test_placement_that_cannot_space_its_users_raises():
    """Two users 100 m apart do not fit in the 80 m x 20 m hall: the second
    is refused after ``MAX_PLACEMENT_ATTEMPTS`` draws."""
    template = replace(builtin_template("inf-dh-desk"), min_user_spacing=100.0)
    with pytest.raises(PlacementError, match="^could not place user 1 after 1000 attempts$"):
        generate_placements(template, 0)


def test_scenario_round_trip(tmp_path):
    s = builtin_scenario("umi-sc-desk", 1)
    d = scenario_to_dict(s)
    again = scenario_from_dict(json.loads(json.dumps(d)))
    assert again.kind == s.kind and again.bounds == s.bounds
    _assert_poas_equal(again.poas, s.poas)
    assert again.users == s.users and again.humans == s.humans
    assert again.frequency_map == s.frequency_map
    assert again.channel_params.pathloss_los == s.channel_params.pathloss_los
    assert again.channel_params.rician_k_mean_db == s.channel_params.rician_k_mean_db
    assert again.channel_params.azimuth_spread_dep == pytest.approx(
        s.channel_params.azimuth_spread_dep)

    path = tmp_path / "world.json"
    save_scenario(s, path)
    loaded = load_scenario(path)
    _assert_poas_equal(loaded.poas, s.poas)
    assert loaded.users == s.users


def _assert_poas_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.id, a.position, a.frequency, a.bandwidth, a.panel_rows,
                a.panel_cols, a.beams, a.element_pattern) == \
            (b.id, b.position, b.frequency, b.bandwidth, b.panel_rows,
             b.panel_cols, b.beams, b.element_pattern)
        # Angles round-trip through degrees in the file format.
        assert a.min_beam_width == pytest.approx(b.min_beam_width, rel=1e-12)
        assert a.mech_azimuth == pytest.approx(b.mech_azimuth, abs=1e-12)


def _angles_taken_from(got, want):
    """``got`` with each angle the file stores in degrees replaced by
    ``want``'s, after checking the two agree to 1e-12 rad."""
    assert len(got.poas) == len(want.poas)
    for a, b in zip(got.poas, want.poas):
        assert abs(a.min_beam_width - b.min_beam_width) <= 1e-12
        assert abs(a.mech_azimuth - b.mech_azimuth) <= 1e-12
    spreads = {f: getattr(want.channel_params, f)
               for f in ("azimuth_spread_dep", "zenith_spread_dep")}
    for f, v in spreads.items():
        assert abs(getattr(got.channel_params, f) - v) <= 1e-12
    poas = tuple(replace(a, min_beam_width=b.min_beam_width, mech_azimuth=b.mech_azimuth)
                 for a, b in zip(got.poas, want.poas))
    return replace(got, poas=poas, channel_params=replace(got.channel_params, **spreads))


@settings(deadline=None, max_examples=40)
@given(name=st.sampled_from(sorted(BUILTIN_TEMPLATES)), seed=st.integers(0, 2**32 - 1),
       density=st.floats(0.0, 1.0, exclude_max=True), height=st.floats(0.0, 20.0),
       sar_limit=st.floats(0.0, 10.0, exclude_min=True))
def test_saved_scenario_reloads_equal(name, seed, density, height, sar_limit):
    s = generate_placements(builtin_template(name), seed)
    cp = s.channel_params
    s = replace(s, sar_limit=sar_limit, channel_params=replace(cp, los_model=replace(
        cp.los_model, clutter_density=density, clutter_height=height)))
    again = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s))))
    assert _angles_taken_from(again, s) == s


# The top-level clutter block that files carried before clutter lived only
# in the LoS model (inf-dh built-ins wrote 0.4 / 2.0 m, umi ones 0 / 0) is
# an unknown key, whether or not it agrees with the LoS model.
@pytest.mark.parametrize("name, block", [
    ("inf-dh-desk", {"density": 0.4, "height_m": 2.0}),
    ("umi-sc-desk", {"density": 0.0, "height_m": 0.0}),
    ("inf-dh-desk", {"density": 0.4}),
    ("inf-dh-desk", {"density": 0.9}),
    ("inf-dh-desk", {"density": 0.9, "height_m": 2.0}),
    ("inf-dh-desk", {"density": 0.4, "height_m": 3.0}),
    ("umi-sc-desk", {"density": 0.4, "height_m": 0.0}),
    ("umi-sc-desk", {"height_m": 2.0}),
    ("inf-dh-desk", [0.4, 2.0]),
])
def test_a_clutter_block_is_refused_at_load(name, block, tmp_path, capsys):
    d = scenario_to_dict(builtin_scenario(name, 0))
    assert "clutter" not in d
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(dict(d, clutter=block))
    assert (err.value.path, err.value.message) == ("clutter", "unknown key")
    world = tmp_path / "world.json"
    world.write_text(json.dumps(dict(d, clutter=block)))
    assert main(["validate", "--scenario", str(world)]) == 2
    assert capsys.readouterr().err.startswith("invalid: clutter: unknown key")


def test_load_scenario_accepts_builtin_names():
    s = load_scenario("inf-dh-desk")
    assert s.name == "inf-dh-desk" and len(s.users) == 20


def test_parse_and_validation_errors(tmp_path):
    with pytest.raises(ParseError):
        scenario_from_dict([])
    with pytest.raises(ParseError):
        scenario_from_dict({"schema_version": 999})

    base = scenario_to_dict(builtin_scenario("inf-dh-desk", 0))

    def corrupted(mutate):
        d = json.loads(json.dumps(base))
        mutate(d)
        return d

    with pytest.raises(ValidationError):
        scenario_from_dict(corrupted(
            lambda d: d["poas"].append(dict(d["poas"][0]))))  # duplicate id
    with pytest.raises(ValidationError):
        scenario_from_dict(corrupted(
            lambda d: d["users"][0].update(position_m={"x": -5.0, "y": 1.0, "z": 1.5})))
    with pytest.raises(ValidationError):
        scenario_from_dict(corrupted(
            lambda d: d["humans"][0].update(phantom_id="ghost")))
    with pytest.raises(ValidationError):
        scenario_from_dict(corrupted(
            lambda d: d.update(clutter={"density": 1.5})))
    with pytest.raises(ValidationError):
        scenario_from_dict(corrupted(
            lambda d: d["poas"][0].update(frequency_hz=9e9)))  # unmapped
    with pytest.raises(ValidationError):
        scenario_from_dict(corrupted(
            lambda d: d["users"][0].update(required_rate_bps=0.0)))

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(bad)
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "missing.json")


def _drop_first_poa_reference_sar(d):
    ref = d["frequency_map"][str(d["poas"][0]["frequency_hz"])]
    del d["phantoms"][0]["sar_ref"][str(ref)]


def _nan_first_user_height(d):
    """As a saved world with ``"z": NaN`` typed into a user and its linked
    human; JSON parsers accept the NaN literal."""
    d["users"][0]["position_m"]["z"] = math.nan
    for h in d["humans"]:
        if h.get("linked_user") == d["users"][0]["id"]:
            h["position_m"]["z"] = math.nan


_BAD_INPUTS = pytest.mark.parametrize("mutate, path", [
    (lambda d: d["poas"][1].update(bandwidth_hz=0.0), "poas[1].bandwidth_hz"),
    (lambda d: d["poas"][1].update(bandwidth_hz=-20e6), "poas[1].bandwidth_hz"),
    (lambda d: d["poas"][1].update(bandwidth_hz=math.inf), "poas[1].bandwidth_hz"),
    (lambda d: d["poas"][1].update(bandwidth_hz=math.nan), "poas[1].bandwidth_hz"),
    (lambda d: d["poas"][2].update(max_tx_power_dbm=math.nan), "poas[2].max_tx_power_dbm"),
    (lambda d: d["poas"][2].update(max_tx_power_dbm=math.inf), "poas[2].max_tx_power_dbm"),
    (lambda d: d["poas"][2].update(max_tx_power_dbm=-math.inf), "poas[2].max_tx_power_dbm"),
    (_nan_first_user_height, "users[0].position_m.z"),
    (lambda d: d["poas"][3]["position_m"].update(z=math.inf), "poas[3].position_m.z"),
    (lambda d: d["poas"][3]["position_m"].update(z=1e200), "poas[3].position_m.z"),
    (lambda d: d["bounds_m"].__setitem__(0, math.inf), "bounds_m[0]"),
    (lambda d: d["bounds_m"].__setitem__(0, 1e300), "bounds_m[0]"),
    (_drop_first_poa_reference_sar, "phantoms[0].sar_ref"),
    (lambda d: d["channel_params"]["los_model"].update(kind="rural"),
     "channel_params.los_model.kind"),
    (lambda d: d["channel_params"]["los_model"].update(kind=3),
     "channel_params.los_model.kind"),
    (lambda d: d["channel_params"]["los_model"].update(clutter_density=1.0),
     "channel_params.los_model.clutter_density"),
    (lambda d: d["channel_params"]["los_model"].update(clutter_density=-0.1),
     "channel_params.los_model.clutter_density"),
    (lambda d: d["channel_params"]["los_model"].update(clutter_density="dense"),
     "channel_params.los_model.clutter_density"),
    (lambda d: d["channel_params"]["los_model"].update(
        clutter_densty=d["channel_params"]["los_model"].pop("clutter_density")),
     "channel_params.los_model.clutter_densty"),
    (lambda d: d["channel_params"]["los_model"].update(clutter_height="2"),
     "channel_params.los_model.clutter_height"),
    (lambda d: d["channel_params"]["los_model"].update(kind="information"),
     "channel_params.los_model.kind"),
    (lambda d: d["channel_params"]["los_model"].update(clutter_size_m=0),
     "channel_params.los_model.clutter_size_m"),
    (lambda d: d["channel_params"].update(n_ray=3), "channel_params.n_ray"),
    (lambda d: d["channel_params"].update(azimuth_spread_arr=8.0),
     "channel_params.azimuth_spread_arr"),
    (lambda d: d.update(channel_params=[]), "channel_params"),
    (lambda d: d["channel_params"].update(los_model=[]), "channel_params.los_model"),
    (lambda d: d.update(limits=[]), "limits"),
    (lambda d: d.update(frequency_map=[]), "frequency_map"),
    (lambda d: d.update(poas={}), "poas"),
    (lambda d: d.update(users={}), "users"),
    (lambda d: d.update(humans="h0"), "humans"),
    (lambda d: d.update(phantoms={}), "phantoms"),
    (lambda d: d["poas"][0].update(beams="ab"), "poas[0].beams"),
    (lambda d: d["poas"][1].update(beams=["p1-b0", 2]), "poas[1].beams[1]"),
    (lambda d: d["phantoms"][0].update(sar_ref=[]), "phantoms[0].sar_ref"),
    (lambda d: d["poas"][0].update(element_patern="isotropic"), "poas[0].element_patern"),
    (lambda d: d["limits"].update(sar_wkgs=0.01), "limits.sar_wkgs"),
    (lambda d: d.update(colour="red"), "colour"),
    (lambda d: d["users"][0].pop("required_rate_bps"), "users[0].required_rate_bps"),
    (lambda d: d["poas"][3].update(frequency_hz="abc"), "poas[3].frequency_hz"),
    (lambda d: d["poas"][2].update(element_pattern="isotropc"), "poas[2].element_pattern"),
    (lambda d: d["humans"][39].update(id="user0"), "humans[39].id"),
    (lambda d: d["humans"][25].update(linked_user="user0",  # human0 is user0's already
                                      position_m=dict(d["users"][0]["position_m"])),
     "humans[25].linked_user"),
    (lambda d: d["humans"][5].update(id="poa1"), "humans[5].id"),
    (lambda d: d["humans"][3].update(id="human1"), "humans[3].id"),
    (lambda d: d["phantoms"].append({**d["phantoms"][0], "bmi": 40.0}), "phantoms[4].name"),
    (lambda d: d["poas"][0].update(panel_rows=16.9), "poas[0].panel_rows"),
    (lambda d: d["poas"][1].update(panel_cols=True), "poas[1].panel_cols"),
    (lambda d: d["channel_params"].update(n_clusters=2.5), "channel_params.n_clusters"),
    (lambda d: d["channel_params"].update(n_rays="20"), "channel_params.n_rays"),
    (lambda d: d["poas"][0].update(id=None), "poas[0].id"),
    (lambda d: d["users"][2].update(id=7), "users[2].id"),
    (lambda d: d["phantoms"][1].update(name=None), "phantoms[1].name"),
    (lambda d: d["humans"][0].update(phantom_id=3), "humans[0].phantom_id"),
    (lambda d: d["humans"][1].update(linked_user=1), "humans[1].linked_user"),
    (lambda d: d["poas"][0].update(panel_rows=0), "poas[0].panel_rows"),
    (lambda d: d["poas"][1].update(panel_cols=0), "poas[1].panel_cols"),
    (lambda d: d["phantoms"][0].update(e_ref_vpm=0), "phantoms[0].e_ref_vpm"),
    (lambda d: d["frequency_map"].update({"NaN": 2.45e9}), "frequency_map.NaN"),
    (lambda d: d["phantoms"][1]["sar_ref"].update({"Infinity": 1e-4}),
     "phantoms[1].sar_ref.Infinity"),
    (lambda d: d["frequency_map"].update({"5 GHz": 5.2e9}), "frequency_map.5 GHz"),
    (lambda d: d["channel_params"].update(n_rays=0), "channel_params.n_rays"),
    (lambda d: d["channel_params"].update(n_clusters=-1), "channel_params.n_clusters"),
    (lambda d: d["channel_params"].update(delay_spread_s=0.0), "channel_params.delay_spread_s"),
    (lambda d: d["channel_params"].update(zenith_spread_dep_deg=-1.0),
     "channel_params.zenith_spread_dep_deg"),
    (lambda d: d["phantoms"][2].update(bmi=0), "phantoms[2].bmi"),
    (lambda d: d["phantoms"][1].update(bmi_ref=-22.0), "phantoms[1].bmi_ref"),
    (lambda d: d["phantoms"][0].update(sar_ref={}), "phantoms[0].sar_ref"),
    # A held map key is a number: the entry is named by its canonical key.
    (lambda d: d["phantoms"][0]["sar_ref"].update({"1e9": 0.0}),
     "phantoms[0].sar_ref.1000000000.0"),
    (lambda d: d.update(name="../escaped"), "name"),
    (lambda d: d.update(name="a/b"), "name"),
    (lambda d: d.update(name="a\\b"), "name"),
    (lambda d: d.update(name=""), "name"),
    (lambda d: d.update(name="."), "name"),
    (lambda d: d.update(name=".."), "name"),
    (lambda d: d.update(name="a\0b"), "name"),
    (lambda d: d["users"][0].update(required_rate_bps=0.0), "users[0].required_rate_bps"),
    (lambda d: d["users"][1].update(required_rate_bps=-1e6), "users[1].required_rate_bps"),
    (lambda d: d.update(bounds_m=[80.0]), "bounds_m"),
    (lambda d: d["users"][4].update(id=d["users"][2]["id"]), "users[4].id"),
    (lambda d: d["channel_params"].update(azimuth_spread_arr_deg=11.0),
     "channel_params.azimuth_spread_arr_deg"),
    (lambda d: d["channel_params"].update(zenith_spread_arr_deg=7.0),
     "channel_params.zenith_spread_arr_deg"),
], ids=["bw-zero", "bw-negative", "bw-inf", "bw-nan", "maxpow-nan", "maxpow-inf",
        "maxpow-minus-inf", "user-z-nan", "poa-z-inf", "poa-z-far", "bounds-length-inf",
        "bounds-length-far",
        "phantom-sar-ref", "los-kind-unknown", "los-kind-not-text",
        "clutter-density-one", "clutter-density-negative", "clutter-density-not-number",
        "los-key-misspelled", "clutter-height-not-number", "los-kind-prefix-only",
        "clutter-size-zero",
        "channel-key-misspelled", "channel-key-unknown", "channel-params-not-object",
        "los-model-not-object", "limits-not-object", "frequency-map-not-object",
        "poas-not-list", "users-not-list", "humans-not-list", "phantoms-not-list",
        "beams-not-list", "beam-id-not-text", "sar-ref-not-object", "poa-key-misspelled",
        "limits-key-misspelled", "top-level-key-unknown", "user-rate-missing",
        "frequency-not-number", "element-pattern-unknown", "human-id-repeats-user",
        "user-linked-twice", "human-id-repeats-poa", "human-id-repeats-human", "phantom-name-repeated",
        "panel-rows-fraction", "panel-cols-boolean", "n-clusters-fraction", "n-rays-not-number",
        "poa-id-null", "user-id-number", "phantom-name-null", "phantom-id-number",
        "linked-user-number", "panel-rows-zero", "panel-cols-zero", "e-ref-zero",
        "frequency-key-nan", "sar-ref-key-infinity", "frequency-key-not-number",
        "n-rays-zero", "n-clusters-negative", "delay-spread-zero", "zenith-spread-negative",
        "bmi-zero", "bmi-ref-negative", "sar-ref-empty", "sar-ref-value-zero",
        "name-escapes", "name-slash", "name-backslash", "name-empty", "name-dot",
        "name-dot-dot", "name-nul", "user-rate-zero", "user-rate-negative",
        "bounds-one-entry", "user-id-repeated", "azimuth-spread-arr-retired",
        "zenith-spread-arr-retired"])


@pytest.mark.parametrize("rate", [0.0, -1e6, math.nan, math.inf, -math.inf])
def test_end_user_refuses_a_non_positive_or_non_finite_floor(rate):
    """A floor of 0 is met at any power, so CtM's power step would lower its
    PoA for ever, and a NaN floor is never met: a world holding a user with
    either, or any floor that is not positive and finite, is refused when it
    is built, at the user's floor key."""
    world = builtin_scenario("inf-dh-desk", 0)
    with pytest.raises(ValidationError) as err:
        replace(world, users=(replace(world.users[0], required_rate=rate),) + world.users[1:])
    assert err.value.path == "users[0].required_rate_bps"


def _slot(get, *keys):
    """(get, put) of the place ``get(d)[keys[0]][keys[1]]...`` of a file dict."""
    def parent(d):
        obj = get(d)
        for key in keys[:-1]:
            obj = obj[key]
        return obj
    return (lambda d: parent(d)[keys[-1]]), (lambda d, x: parent(d).__setitem__(keys[-1], x))


def _ranged_fields(value, within, path="", rebuild=lambda x: x, slot=(lambda d: d, None),
                   dump=lambda x: x):
    """(path, range, dump, rebuild, put) of each ranged field of the held
    ``value``, walked as the scenario check walks it; the first record of a
    list and the first entry of a map stand for all of them. ``rebuild(x)``
    builds the world holding ``x`` in place of the field, and ``put(d, x)``
    puts ``x`` in its place in the world's file dict ``d``."""
    get, put = slot
    if isinstance(within, dict) and isinstance(value, (tuple, dict)):   # a list of records
        if isinstance(value, dict):   # the phantoms, held by name
            name = next(iter(value))
            first, again = value[name], lambda x: rebuild({**value, name: x})
        else:
            first, again = value[0], lambda x: rebuild((x,) + value[1:])
        yield from _ranged_fields(first, within, f"{path}[0]", again, _slot(get, 0))
    elif isinstance(within, dict):
        for key, (name, _, dump, *ranged) in within.items():
            if ranged:
                yield from _ranged_fields(
                    getattr(value, name), ranged[0], f"{path}.{key}" if path else key,
                    lambda x, name=name: rebuild(replace(value, **{name: x})),
                    _slot(get, *key.split(".")), dump)
    elif isinstance(within, tuple):   # a range per position: bounds, pathloss coefficients
        items = tuple(value)
        for i, item_range in enumerate(within):
            def again(x, i=i):
                new = items[:i] + (x,) + items[i + 1:]
                return rebuild(new if isinstance(value, tuple) else type(value)(*new))
            yield from _ranged_fields(items[i], item_range, f"{path}[{i}]", again, _slot(get, i))
    elif isinstance(within, scenario_module._Attribute):   # a frequency map: its pairs
        yield from _ranged_fields(getattr(value, within.name), within.within, path,
                                  lambda x: rebuild(replace(value, **{within.name: x})), slot)
    elif isinstance(value, dict):   # a SAR_ref or frequency map: its first entry
        key = next(iter(value))
        yield from _ranged_fields(value[key], within, f"{path}.{key}",
                                  lambda x: rebuild({**value, key: x}), _slot(get, str(key)))
    else:
        yield path, within, dump, rebuild, put


def _outside(within):
    """Held values outside ``within``: for an interval, a hair past each
    finite end, NaN and ±inf; for a set of texts, one in no such set."""
    if not hasattr(within, "low"):
        return ["../elsewhere"]
    ends = [(within.low, "[", -1.0), (within.high, "]", 1.0)]
    return [end + sign * 1e-9 * max(1.0, abs(end)) if bracket in within.closed else end
            for end, bracket, sign in ends if math.isfinite(end)] + [math.nan, math.inf,
                                                                     -math.inf]


_WORLD = builtin_scenario("inf-dh-desk", 0)
_RANGED = {path: rest for path, *rest in _ranged_fields(_WORLD, _SCENARIO_KEYS)}


@pytest.mark.parametrize("path", list(_RANGED))
def test_built_and_loaded_worlds_are_refused_at_the_same_key(path):
    """For each ranged key, a value a hair out of its range, NaN and ±inf: a
    world built in Python holding it is refused when it is built, and so is
    its file, at the same key path."""
    within, dump, rebuild, put = _RANGED[path]
    for bad in _outside(within):
        with pytest.raises(ValidationError) as built:
            rebuild(bad)
        d = scenario_to_dict(_WORLD)
        put(d, dump(bad))
        with pytest.raises(ValidationError) as loaded:
            scenario_from_dict(d)
        assert built.value.path == loaded.value.path == path, bad


def test_a_built_frequency_map_is_refused_at_its_reference_key():
    """A ``FrequencyMap``'s reference frequencies are ranged at the map's
    file keys, so the test above refuses a built one and its file alike at
    ``frequency_map.<f>``; a NaN one is not left to the SAR_ref coverage
    rule."""
    assert "frequency_map.3000000000.0" in _RANGED
    world = builtin_template("inf-dh-desk").world
    with pytest.raises(ValidationError) as err:
        replace(world, frequency_map=FrequencyMap({3e9: math.nan, 5e9: 5.2e9}))
    assert err.value.path == "frequency_map.3000000000.0"


@st.composite
def _worlds(draw):
    """A world ``conftest`` builds (the tiny one, with 1 to 3 beams a PoA,
    or ``too_close_world``) or a built-in one, placed with a drawn seed."""
    kind = draw(st.sampled_from(["tiny", "too-close", *sorted(BUILTIN_TEMPLATES)]))
    if kind == "tiny":
        return make_tiny_scenario(n_beams=draw(st.integers(1, 3)))
    seed = draw(st.integers(0, 2**32 - 1))
    return too_close_world(seed) if kind == "too-close" else builtin_scenario(kind, seed)


_FORMS = {"built": lambda s: s, "replaced": replace,
          "pickled": lambda s: pickle.loads(pickle.dumps(s)),
          "reloaded": lambda s: scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s))))}


@settings(deadline=None, max_examples=80)
@given(world=_worlds(), form=st.sampled_from(sorted(_FORMS)), unknown=st.text(max_size=8))
def test_the_id_index_answers_what_the_scans_did(world, form, unknown):
    """Each lookup by id reads the one index the scenario check built, and
    answers what a linear scan of the scenario's tuples does: a PoA, a
    beam's owner, a user, a user's column, a linked human's user column,
    the beams in listing order, the set of user ids. An unknown id raises
    ``KeyError`` naming it. A world rebuilt by ``replace``, pickled, or
    read back from its file has the same index, and the index is not a
    field."""
    s = _FORMS[form](world)
    for p in s.poas:
        assert s.poa_by_id(p.id) is next(q for q in s.poas if q.id == p.id)
        for b in p.beams:
            assert s.beam_owner(b) is next(q for q in s.poas if b in q.beams)
    assert s.all_beams == [b for p in s.poas for b in p.beams]
    for u in s.users:
        assert s.user_by_id(u.id) is next(v for v in s.users if v.id == u.id)
    columns = [u.id for u in s.users]
    # The user ids iterate as the set of them built in this process does.
    assert list(s.index.user_ids) == list({u.id for u in s.users})
    assert s.index.users == {uid: columns.index(uid) for uid in columns}
    assert list(s.index.linked) == [None if h.linked_user is None
                                    else columns.index(h.linked_user) for h in s.humans]
    assert s.index == world.index
    known = {*s.index.poas, *s.index.owners, *s.index.users}
    if unknown not in known:
        for lookup in (s.poa_by_id, s.user_by_id, s.beam_owner):
            with pytest.raises(KeyError) as info:
                lookup(unknown)
            assert info.value.args == (unknown,)
    assert "index" not in {f.name for f in fields(s)} and "index" not in repr(s)
    if form != "reloaded":  # a file keeps angles in degrees
        assert s == world and repr(s) == repr(world)


def test_every_world_passes_the_check_once(monkeypatch):
    """A generated, a loaded and a Python-built world each pass the scenario
    check exactly once."""
    calls = []
    check = scenario_module._validate
    monkeypatch.setattr(scenario_module, "_validate", lambda s: calls.append(s) or check(s))
    world = builtin_scenario("inf-dh-desk", 1)
    loaded = scenario_from_dict(scenario_to_dict(world))
    built = replace(world, sar_limit=0.05)
    assert len(calls) == 3 and all(a is b for a, b in zip(calls, [world, loaded, built]))


@_BAD_INPUTS
def test_bad_inputs_rejected_at_load(mutate, path):
    d = scenario_to_dict(builtin_scenario("inf-dh-desk", 0))
    mutate(d)
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(d)
    assert err.value.path == path


@_BAD_INPUTS
def test_cli_validate_exits_2_on_bad_inputs(mutate, path, tmp_path, capsys):
    d = scenario_to_dict(builtin_scenario("inf-dh-desk", 0))
    mutate(d)
    world = tmp_path / "world.json"
    world.write_text(json.dumps(d))
    assert main(["validate", "--scenario", str(world)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid: {path}: ") and "Traceback" not in err


def _refused_at_load(d, path, bound, tmp_path, capsys):
    """The file of ``d`` is refused at load at ``path``, outside ``bound``,
    and ``cellless validate`` exits 2 naming it."""
    world = tmp_path / "world.json"
    world.write_text(json.dumps(d))
    with pytest.raises(ValidationError) as err:
        load_scenario(world)
    assert err.value.path == path and err.value.message.startswith(f"must be in {bound}, ")
    assert main(["validate", "--scenario", str(world)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid: {path}: must be in {bound}, ") and "Traceback" not in err


def test_a_max_power_that_overflows_in_watts_is_refused_at_load(tmp_path, capsys):
    """A saved world with a PoA at 4000 dBm validated ``ok``, and its CtM
    run then raised ``OverflowError`` in ``dbm_to_watts``. The bound,
    100 dBm, loads."""
    d = scenario_to_dict(builtin_scenario("inf-dh-desk", 1))
    d["poas"][0]["max_tx_power_dbm"] = 100.0
    assert scenario_from_dict(d).poas[0].max_tx_power_dbm == 100.0
    d["poas"][0]["max_tx_power_dbm"] = 4000.0
    _refused_at_load(d, "poas[0].max_tx_power_dbm", "(-inf, 100]", tmp_path, capsys)


def _move_5ghz_poas(d, hz):
    for poa in d["poas"]:
        if poa["frequency_hz"] == 5e9:
            poa["frequency_hz"] = hz
    d["frequency_map"][str(hz)] = d["frequency_map"].pop(str(5e9))


def test_a_carrier_whose_power_density_overflows_is_refused_at_load(tmp_path, capsys):
    """A saved world with its 5 GHz PoAs at 1e200 Hz, mapped in
    ``frequency_map``, validated ``ok``, and its CtM run then raised
    ``OverflowError`` in the power density's f^2. The bound, 300 GHz,
    loads."""
    d = scenario_to_dict(builtin_scenario("inf-dh-desk", 1))
    _move_5ghz_poas(d, 300e9)
    assert {p.frequency for p in scenario_from_dict(d).poas} == {3e9, 300e9}
    d = scenario_to_dict(builtin_scenario("inf-dh-desk", 1))
    _move_5ghz_poas(d, 1e200)
    _refused_at_load(d, "poas[2].frequency_hz", "(0, 3e+11]", tmp_path, capsys)


def test_a_record_error_in_a_scenario_file_names_the_file(tmp_path):
    """A readable world file with a bad record raises the record's
    ``ValidationError`` at the same path, naming the file too; the same
    record as a dict names no file."""
    d = scenario_to_dict(builtin_scenario("inf-dh-desk", 0))
    del d["users"][0]["required_rate_bps"]
    world = tmp_path / "world.json"
    world.write_text(json.dumps(d))
    with pytest.raises(ValidationError) as err:
        load_scenario(world)
    assert err.value.path == "users[0].required_rate_bps" and err.value.message == "missing"
    assert repr(str(world)) in str(err.value)
    with pytest.raises(ValidationError) as bare:
        scenario_from_dict(d)
    assert bare.value.file is None and str(bare.value) == "users[0].required_rate_bps: missing"


def _unreadable_scenario(kind, tmp_path):
    """A scenario path that is a directory, or a saved world whose bytes
    are not UTF-8 (one byte of a string replaced by 0xff) or not valid JSON
    (cut in half)."""
    if kind == "directory":
        return tmp_path
    world = tmp_path / "latin.json"
    save_scenario(builtin_scenario("inf-dh-desk", 0), world)
    raw = world.read_bytes()
    world.write_bytes(raw.replace(b"inf-dh-desk", b"inf-dh-d\xffsk", 1) if kind == "not-utf8"
                      else raw[:len(raw) // 2])
    return world


@pytest.mark.parametrize("kind, fault", [("not-utf8", "not UTF-8 text"),
                                         ("not-json", "not valid JSON")])
def test_an_unparsable_scenario_file_names_the_file(kind, fault, tmp_path):
    """A saved world whose bytes are not UTF-8 or not valid JSON raises
    ``ParseError`` saying which, naming the file."""
    path = _unreadable_scenario(kind, tmp_path)
    with pytest.raises(ParseError, match=fault) as err:
        load_scenario(path)
    assert repr(str(path)) in str(err.value)


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_an_unreadable_scenario_path_names_the_path(where, tmp_path):
    """A scenario path that is neither a built-in nor a file, or that is a
    directory, raises a ``ScenarioError`` naming it, not a bare
    ``OSError``."""
    path = tmp_path / "nothing.json" if where == "missing" else _unreadable_scenario(
        "directory", tmp_path)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert type(err.value) is ScenarioError and repr(str(path)) in str(err.value)
    assert str(err.value).startswith("no such scenario file or built-in: " if where == "missing"
                                     else "cannot read scenario file ")


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "not-json"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_exits_2_on_an_unreadable_scenario_file(command, kind, tmp_path, capsys):
    """A directory or a file that is not UTF-8 or not valid JSON is
    reported, naming the path, with exit 2 instead of a traceback."""
    path = _unreadable_scenario(kind, tmp_path)
    args = ["--solver", "ctm", "--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, "--scenario", str(path), *args]) == 2
    err = capsys.readouterr().err
    assert repr(str(path)) in err and "Traceback" not in err


def test_integral_numbers_load_as_integers():
    d = scenario_to_dict(builtin_scenario("inf-dh-desk", 0))
    d["poas"][0]["panel_rows"] = 16.0
    d["channel_params"]["n_rays"] = 20.0
    s = scenario_from_dict(d)
    assert type(s.poas[0].panel_rows) is int and s.poas[0].panel_rows == 16
    assert type(s.channel_params.n_rays) is int and s.channel_params.n_rays == 20


def test_beam_shared_by_two_poas_rejected_at_load():
    d = scenario_to_dict(builtin_scenario("inf-dh-desk", 1))
    d["poas"][2]["beams"][3] = d["poas"][0]["beams"][1]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(d)
    assert err.value.path == "poas[2].beams[3]"


def test_world_without_beams_rejected_at_load():
    d = scenario_to_dict(builtin_scenario("inf-dh-desk", 1))
    for p in d["poas"]:
        p["beams"] = []
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(d)
    assert err.value.path == "poas"
    d["poas"] = []
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(d)
    assert err.value.path == "poas"


def test_missing_channel_params_take_the_dataclass_defaults():
    d = scenario_to_dict(builtin_scenario("umi-sc-desk", 0))
    del d["channel_params"]
    assert scenario_from_dict(d).channel_params == ChannelParams()
    d["channel_params"] = {"n_rays": 7}
    assert scenario_from_dict(d).channel_params == ChannelParams(n_rays=7)


@pytest.mark.parametrize("key", ["azimuth_spread_arr_deg", "zenith_spread_arr_deg"])
def test_a_retired_arrival_spread_key_is_refused_at_load(key):
    """The arrival spreads that the channel no longer reads are unknown
    keys, named at their path; with both, the first listed is named."""
    d = scenario_to_dict(builtin_scenario("umi-sc-desk", 0))
    d["channel_params"][key] = 11.0
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(d)
    assert (err.value.path, err.value.message) == (f"channel_params.{key}", "unknown key")
    d["channel_params"] = {"n_rays": 7, "azimuth_spread_arr_deg": 11.0,
                           "zenith_spread_arr_deg": 7.0}
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(d)
    assert err.value.path == "channel_params.azimuth_spread_arr_deg"


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


@pytest.mark.parametrize("name", ["inf-dh-desk", "umi-sc-desk"])
@pytest.mark.parametrize("bad", [True, "1", math.nan, math.inf],
                         ids=["true", "string", "nan", "infinity"])
def test_every_number_in_a_scenario_file_must_be_a_finite_number(name, bad):
    """Each number of a saved world of either desk built-in, replaced by a
    boolean, a numeric string, NaN or Infinity, is refused at load with its
    own path."""
    text = json.dumps(scenario_to_dict(builtin_scenario(name, 1)))
    n = len(_number_paths(json.loads(text)))
    assert n > 300
    wrong = []
    for i in range(n):
        data = json.loads(text)
        path, parent, key = _number_paths(data)[i]
        parent[key] = bad
        try:
            scenario_from_dict(data)
            wrong.append((path, "loaded"))
        except ValidationError as e:
            if e.path != path:
                wrong.append((path, e.path))
    assert wrong == []
