"""Scenario schema, validation, built-ins, and seeded placement."""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cellless.channel import ChannelParams
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
    assert los["clutter_density"] == 0.4 and los["clutter_height"] == 2.0
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
    s = replace(s, sar_limit=sar_limit, channel_params=replace(cp, los_model={
        **cp.los_model, "clutter_density": density, "clutter_height": height}))
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


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d["poas"][1].update(bandwidth_hz=0.0), "poas[1].bandwidth_hz"),
    (lambda d: d["poas"][1].update(bandwidth_hz=-20e6), "poas[1].bandwidth_hz"),
    (lambda d: d["poas"][1].update(bandwidth_hz=math.inf), "poas[1].bandwidth_hz"),
    (lambda d: d["poas"][1].update(bandwidth_hz=math.nan), "poas[1].bandwidth_hz"),
    (lambda d: d["poas"][2].update(max_tx_power_dbm=math.nan), "poas[2].max_tx_power_dbm"),
    (lambda d: d["poas"][2].update(max_tx_power_dbm=math.inf), "poas[2].max_tx_power_dbm"),
    (lambda d: d["poas"][2].update(max_tx_power_dbm=-math.inf), "poas[2].max_tx_power_dbm"),
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
    (lambda d: d["channel_params"].update(n_ray=3), "channel_params.n_ray"),
    (lambda d: d["channel_params"].update(azimuth_spread_arr=8.0),
     "channel_params.azimuth_spread_arr"),
    (lambda d: d.update(channel_params=[]), "channel_params"),
], ids=["bw-zero", "bw-negative", "bw-inf", "bw-nan", "maxpow-nan", "maxpow-inf",
        "maxpow-minus-inf", "phantom-sar-ref", "los-kind-unknown", "los-kind-not-text",
        "clutter-density-one", "clutter-density-negative", "clutter-density-not-number",
        "channel-key-misspelled", "channel-key-unknown", "channel-params-not-object"])
def test_bad_inputs_rejected_at_load(mutate, path):
    d = scenario_to_dict(builtin_scenario("inf-dh-desk", 0))
    mutate(d)
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(d)
    assert err.value.path == path


def test_missing_channel_params_take_the_dataclass_defaults():
    d = scenario_to_dict(builtin_scenario("umi-sc-desk", 0))
    del d["channel_params"]
    assert scenario_from_dict(d).channel_params == ChannelParams()
    d["channel_params"] = {"n_rays": 7}
    assert scenario_from_dict(d).channel_params == ChannelParams(n_rays=7)
    # The retired arrival-spread keys still load, and are ignored.
    d["channel_params"].update(azimuth_spread_arr_deg=11.0, zenith_spread_arr_deg=7.0)
    assert scenario_from_dict(d).channel_params == ChannelParams(n_rays=7)
