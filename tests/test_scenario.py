"""Scenario schema, validation, built-ins, and seeded placement."""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cellless.channel import ChannelParams
from cellless.cli import main
from cellless.scenario import (BUILTIN_TEMPLATES, ParseError, ScenarioError,
                               ValidationError, builtin_scenario,
                               builtin_template, generate_placements,
                               load_scenario, save_scenario,
                               scenario_from_dict, scenario_to_dict)


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


# The top-level clutter block files carried before clutter lived only in
# the LoS model: inf-dh built-ins wrote 0.4 / 2.0 m, umi ones 0 / 0.
@pytest.mark.parametrize("name, block", [
    ("inf-dh-desk", {"density": 0.4, "height_m": 2.0}),
    ("umi-sc-desk", {"density": 0.0, "height_m": 0.0}),
    ("inf-dh-desk", {"density": 0.4}),
])
def test_agreeing_clutter_block_loads_as_without(name, block):
    d = scenario_to_dict(builtin_scenario(name, 0))
    assert "clutter" not in d
    assert scenario_from_dict(dict(d, clutter=block)) == scenario_from_dict(d)


@pytest.mark.parametrize("name, block, path", [
    ("inf-dh-desk", {"density": 0.9, "height_m": 2.0}, "clutter.density"),
    ("inf-dh-desk", {"density": 0.4, "height_m": 3.0}, "clutter.height_m"),
    ("umi-sc-desk", {"density": 0.4, "height_m": 0.0}, "clutter.density"),
    ("umi-sc-desk", {"height_m": 2.0}, "clutter.height_m"),
    ("inf-dh-desk", [0.4, 2.0], "clutter"),
])
def test_disagreeing_clutter_block_rejected(name, block, path):
    d = scenario_to_dict(builtin_scenario(name, 0))
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(dict(d, clutter=block))
    assert err.value.path == path


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
    (lambda d: d["bounds_m"].__setitem__(0, math.inf), "bounds_m[0]"),
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
    (lambda d: d["phantoms"][0]["sar_ref"].update({"1e9": 0.0}), "phantoms[0].sar_ref.1e9"),
], ids=["bw-zero", "bw-negative", "bw-inf", "bw-nan", "maxpow-nan", "maxpow-inf",
        "maxpow-minus-inf", "user-z-nan", "poa-z-inf", "bounds-length-inf",
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
        "human-id-repeats-poa", "human-id-repeats-human", "phantom-name-repeated",
        "panel-rows-fraction", "panel-cols-boolean", "n-clusters-fraction", "n-rays-not-number",
        "poa-id-null", "user-id-number", "phantom-name-null", "phantom-id-number",
        "linked-user-number", "panel-rows-zero", "panel-cols-zero", "e-ref-zero",
        "frequency-key-nan", "sar-ref-key-infinity", "frequency-key-not-number",
        "n-rays-zero", "n-clusters-negative", "delay-spread-zero", "zenith-spread-negative",
        "bmi-zero", "bmi-ref-negative", "sar-ref-empty", "sar-ref-value-zero"])


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
    # The retired arrival-spread keys still load, and are ignored.
    d["channel_params"].update(azimuth_spread_arr_deg=11.0, zenith_spread_arr_deg=7.0)
    assert scenario_from_dict(d).channel_params == ChannelParams(n_rays=7)
