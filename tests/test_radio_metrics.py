"""Evaluator: SINR/rate/SAR aggregation, caching, and determinism."""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellless.antenna import PanelGeometry, SteeringDirection, width_to_panel, wrap_angle
from cellless import channel as ch
from cellless.channel import (NOISE_DENSITY_DBM_HZ, ChannelParams, link_energy, link_rng,
                              sample_link)
from cellless.exposure import FrequencyMap
from cellless.radio_metrics import (Evaluator, SolutionInvalidError,
                                    UnservedUserError, evaluate, shannon_rate)
from cellless.scenario import PoA, Position3D, Scenario, builtin_scenario
from cellless.solution import BeamConfig, SolutionState
from cellless.solver_ctm import CtmConfig, build_geometry
from cellless.solver_maxrate import objective


@pytest.fixture(scope="module")
def ev(tiny_scenario):
    return Evaluator(tiny_scenario, seed=5, n_realizations=8)


def test_shannon_rate_pins():
    # SINR 31 with 20 MHz: 20e6 * log2(32) = 100 Mbit/s on the nose.
    assert shannon_rate(20e6, 31.0) == pytest.approx(100e6, rel=1e-12)
    assert shannon_rate(20e6, 0.0) == 0.0
    assert np.all(np.diff(shannon_rate(20e6, np.linspace(0, 100, 50))) > 0)


def test_metrics_shape_and_consistency(tiny_scenario, tiny_solution, ev):
    m = ev.metrics(tiny_solution)
    assert set(m.per_user_rate) == {u.id for u in tiny_scenario.users}
    assert set(m.per_human_sar) == {h.id for h in tiny_scenario.humans}
    assert m.min_rate == min(m.per_user_rate.values())
    assert m.max_sar == max(m.per_human_sar.values())
    assert m.total_power == pytest.approx(tiny_solution.total_power_watts())
    assert m.feasible == (not m.violated)
    for uid, r in m.per_user_rate.items():
        assert r == pytest.approx(float(ev.rate(uid, tiny_solution).mean()))


def test_evaluator_deterministic(tiny_scenario, tiny_solution):
    a = Evaluator(tiny_scenario, seed=5, n_realizations=8).metrics(tiny_solution)
    b = Evaluator(tiny_scenario, seed=5, n_realizations=8).metrics(tiny_solution)
    c = Evaluator(tiny_scenario, seed=6, n_realizations=8).metrics(tiny_solution)
    assert a.per_user_rate == b.per_user_rate
    assert a.per_human_sar == b.per_human_sar
    assert a.per_user_rate != c.per_user_rate


def _assert_links_keyed_per_link(ev, p_idx):
    """Every link the Evaluator drew for one PoA, in its users part and its
    humans part, equals a one-link draw from that link's own stream, field
    by field and bit for bit. Returns the (users, humans) parts."""
    poa = ev.scenario.poas[p_idx]
    parts = ev._links[poa.id]
    n_users = len(ev.scenario.users)
    assert [part.los.shape for part in parts] == [
        (ev.n_realizations, n_users), (ev.n_realizations, len(ev.scenario.humans))]
    for r in range(ev.n_realizations):
        for t_idx, t in enumerate(ev.targets):
            links, col = (parts[0], t_idx) if t_idx < n_users else (parts[1], t_idx - n_users)
            one = sample_link(poa.position.as_tuple(), poa.frequency, t.position.as_tuple(),
                              ev.scenario.channel_params, link_rng(ev.seed, r, p_idx, t_idx))
            for f in dataclasses.fields(one):
                got, want = getattr(links, f.name), getattr(one, f.name)
                if f.name == "frequency":
                    assert got == want
                elif f.name == "los_aod":
                    assert got[0][r, col] == want[0] and got[1][r, col] == want[1]
                else:
                    assert np.array_equal(got[r, col], want), f.name
    return parts


def test_per_poa_sample_equals_per_link_streams(tiny_scenario, ev):
    for p_idx in range(len(tiny_scenario.poas)):
        _assert_links_keyed_per_link(ev, p_idx)
    desk = Evaluator(builtin_scenario("inf-dh-desk", 1), seed=3, n_realizations=2)
    users, humans = _assert_links_keyed_per_link(desk, 0)
    los = np.concatenate([users.los, humans.los], axis=1)
    assert los.any() and not los.all()


def _count_link_terms_parts(monkeypatch, ev):
    """Record, per call of channel.link_terms (the per-part half of
    unit_link_energy that a gain fill runs), which part of which PoA's
    links it was given: (PoA id, "users" | "humans")."""
    calls = []
    original = ch.link_terms
    names = {id(part): (pid, kind) for pid, parts in ev._links.items()
             for part, kind in zip(parts, ("users", "humans"))}

    def spy(link, geom):
        calls.append(names[id(link)])
        return original(link, geom)

    monkeypatch.setattr(ch, "link_terms", spy)
    return calls


def test_rates_evaluate_user_columns_only(monkeypatch, tiny_scenario, tiny_solution):
    ev = Evaluator(tiny_scenario, seed=5, n_realizations=8)
    calls = _count_link_terms_parts(monkeypatch, ev)
    # One active beam per PoA, so one (PoA, part) group per active beam.
    active = [b for b in tiny_solution.beams if b.active]
    assert len({b.owner_poa for b in active}) == len(active)
    ev.mean_rates(tiny_solution)
    objective(tiny_solution, ev)
    ev.rate("u0", tiny_solution)
    assert sorted(calls) == sorted((b.owner_poa, "users") for b in active)
    ev.metrics(tiny_solution)
    assert sorted(calls[len(active):]) == sorted((b.owner_poa, "humans") for b in active)
    ev.metrics(tiny_solution)
    ev.mean_rates(tiny_solution)
    assert len(calls) == 2 * len(active)


def test_metrics_after_rates_equals_fresh_metrics(tiny_scenario, tiny_solution):
    ev = Evaluator(tiny_scenario, seed=5, n_realizations=8)
    rates = ev.mean_rates(tiny_solution)
    late = ev.metrics(tiny_solution)
    fresh = Evaluator(tiny_scenario, seed=5, n_realizations=8).metrics(tiny_solution)
    assert late.per_user_rate == fresh.per_user_rate
    assert late.per_human_sar == fresh.per_human_sar
    assert rates.tolist() == list(fresh.per_user_rate.values())


def test_sinr_power_scaling_without_interference(tiny_scenario, tiny_solution, ev):
    """With the other PoA off, SINR is signal/noise and scales linearly."""
    sol = tiny_solution.with_power("poaB", -math.inf)
    beams = tuple(b if b.owner_poa != "poaB" else replace(b, served_users=frozenset())
                  for b in sol.beams)
    sol = replace(sol, beams=beams)
    s1 = ev.sinr("u0", sol)
    s2 = ev.sinr("u0", sol.with_power("poaA", 23.0103))  # +3.0103 dB = x2
    assert np.allclose(s2, 2.0 * s1, rtol=1e-5)
    # Against the explicit formula.
    beam = sol.beam_for_user("u0")
    gains = ev.beam_gains(beam)[:, ev.target_index["u0"]]
    noise = 10.0 ** ((NOISE_DENSITY_DBM_HZ - 30.0) / 10.0) * 20e6
    n_active = len([b for b in sol.beams_of("poaA") if b.active])
    p = 10.0 ** ((20.0 - 30.0) / 10.0) / n_active
    assert np.allclose(s1, p * gains / noise, rtol=1e-12)


def test_interference_reduces_sinr(tiny_scenario, tiny_solution, ev):
    with_intf = ev.sinr("u0", tiny_solution)
    quiet = tiny_solution.with_power("poaB", -math.inf)
    beams = tuple(b if b.owner_poa != "poaB" else replace(b, served_users=frozenset())
                  for b in quiet.beams)
    quiet = replace(quiet, beams=beams)
    assert np.all(ev.sinr("u0", quiet) >= with_intf)


def test_gain_cache_power_independent(tiny_scenario, tiny_solution, ev):
    beam = tiny_solution.beam_for_user("u0")
    g1 = ev.beam_gains(beam)
    g2 = ev.beam_gains(beam)
    assert g1 is g2  # cached
    assert g1.shape == (8, len(tiny_scenario.users) + len(tiny_scenario.humans))
    assert np.all(g1 >= 0.0)


def test_half_power_halves_sar(tiny_scenario, tiny_solution, ev):
    m_full = ev.metrics(tiny_solution)
    half = tiny_solution
    for pid in tiny_solution.tx_power:
        half = half.with_power(pid, tiny_solution.tx_power[pid] - 10.0 * math.log10(2.0))
    m_half = ev.metrics(half)
    for hid in m_full.per_human_sar:
        assert m_half.per_human_sar[hid] == pytest.approx(
            0.5 * m_full.per_human_sar[hid], rel=1e-9)


def test_violation_labels(tiny_scenario, tiny_solution):
    demanding = replace(
        tiny_scenario,
        users=tuple(replace(u, required_rate=1e12) for u in tiny_scenario.users))
    m = Evaluator(demanding, seed=5, n_realizations=4).metrics(tiny_solution)
    assert not m.feasible
    assert set(m.violated) == {f"rate:{u.id}" for u in demanding.users}

    strict = replace(tiny_scenario, sar_limit=1e-30)
    m = Evaluator(strict, seed=5, n_realizations=4).metrics(tiny_solution)
    assert all(v.startswith("sar:") for v in m.violated)
    assert len(m.violated) == len(strict.humans)


def test_evaluate_validates_first(tiny_scenario, tiny_solution):
    beams = tuple(replace(b, served_users=frozenset()) for b in tiny_solution.beams)
    empty = replace(tiny_solution, beams=beams)
    with pytest.raises(UnservedUserError):
        evaluate(empty, tiny_scenario, seed=1, n_realizations=2)
    over = tiny_solution.with_power("poaA", 99.0)
    with pytest.raises(SolutionInvalidError):
        evaluate(over, tiny_scenario, seed=1, n_realizations=2)
    m = evaluate(tiny_solution, tiny_scenario, seed=1, n_realizations=2)
    assert set(m.per_user_rate) == {"u0", "u1", "u2"}


def test_unserved_user_sinr_raises(tiny_scenario, tiny_solution, ev):
    with pytest.raises(UnservedUserError):
        ev.sinr("u99", tiny_solution)


def test_dump_links_recomputes_sinr(tiny_scenario, tiny_solution, ev):
    """The dump plus solved powers is enough to rebuild every SINR."""
    rows = ev.dump_links(tiny_solution)
    noise = 10.0 ** ((NOISE_DENSITY_DBM_HZ - 30.0) / 10.0) * 20e6
    by_key = {}
    for r in rows:
        by_key[(r["realization"], r["beam_id"], r["target_id"])] = r
    for u in tiny_scenario.users:
        beam = tiny_solution.beam_for_user(u.id)
        poa = tiny_scenario.poa_by_id(beam.owner_poa)
        want = ev.sinr(u.id, tiny_solution)
        for real in range(ev.n_realizations):
            def split_power(pid):
                n = len([b for b in tiny_solution.beams_of(pid) if b.active])
                return 10.0 ** ((tiny_solution.tx_power[pid] - 30.0) / 10.0) / n
            sig = split_power(poa.id) * \
                by_key[(real, beam.beam_id, u.id)]["unit_energy_w"]
            intf = 0.0
            for r in rows:
                if (r["realization"] == real and r["target_id"] == u.id
                        and r["poa_id"] != poa.id
                        and r["frequency_hz"] == poa.frequency):
                    intf += split_power(r["poa_id"]) * r["unit_energy_w"]
            assert sig / (noise + intf) == pytest.approx(want[real], rel=1e-12)


def test_world_without_humans_evaluates(tiny_scenario, tiny_solution):
    no_humans = replace(tiny_scenario, humans=())
    m = evaluate(tiny_solution, no_humans, seed=5, n_realizations=4)
    assert m.per_human_sar == {} and m.per_human_power_density == {}
    with_humans = Evaluator(tiny_scenario, seed=5, n_realizations=4).metrics(tiny_solution)
    assert m.per_user_rate == with_humans.per_user_rate
    ev = Evaluator(no_humans, seed=5, n_realizations=4)
    assert ev.mean_rates(tiny_solution).tolist() == list(m.per_user_rate.values())
    assert ev.beam_gains(tiny_solution.beams[0]).shape == (4, len(no_humans.users))


def test_world_without_targets_evaluates():
    """The criterion-4 matching world: PoAs only, no users and no humans."""
    poa = PoA(id="p0", position=Position3D(10.0, 20.0, 6.0), frequency=5e9,
              bandwidth=20e6, max_tx_power_dbm=30.0, min_beam_width=0.05,
              panel_rows=4, panel_cols=4, mech_azimuth=0.0, beams=("p0-b0",),
              element_pattern="isotropic")
    empty = Scenario(
        kind="InF-DH", bounds=(50.0, 50.0, 8.0),
        poas=(poa,), users=(), humans=(), phantoms={}, sar_limit=0.08,
        channel_params=ChannelParams(), frequency_map=FrequencyMap({5e9: 5e9}))
    sol = SolutionState(beams=(BeamConfig("p0-b0", "p0", 0.0, 1.0, 0.5),),
                        tx_power={"p0": 10.0})
    m = evaluate(sol, empty, seed=1, n_realizations=2)
    assert m.feasible and m.per_user_rate == {} and m.per_human_sar == {}
    ev = Evaluator(empty, seed=1, n_realizations=2)
    assert ev.mean_rates(sol).shape == (0,)
    assert ev.beam_gains(sol.beams[0]).shape == (2, 0)


def test_evaluator_rejects_bad_realizations(tiny_scenario):
    with pytest.raises(ValueError):
        Evaluator(tiny_scenario, seed=0, n_realizations=0)


# ---------------------------------------------------------------------------
# Properties of the received-power core on the tiny scenario, where both
# PoAs share 5 GHz and so interfere with each other's users.

PROPERTY = settings(deadline=None, max_examples=60)
dbm = st.floats(-10.0, 20.0)


def _powered(solution, pa, pb):
    return solution.with_power("poaA", pa).with_power("poaB", pb)


@PROPERTY
@given(pa=dbm, pb=dbm, x=st.floats(-20.0, 10.0))
def test_sar_scales_with_a_common_power_offset(tiny_solution, ev, pa, pb, x):
    base = ev.metrics(_powered(tiny_solution, pa, pb)).per_human_sar
    shifted = ev.metrics(_powered(tiny_solution, pa + x, pb + x)).per_human_sar
    for hid, sar in base.items():
        assert shifted[hid] == pytest.approx(10.0 ** (x / 10.0) * sar, rel=1e-9)


# Rates are compared per realization with a few-ulp allowance for rounding.
ULPS = 1e-13


@PROPERTY
@given(uid=st.sampled_from(["u0", "u1", "u2"]), own=dbm, other=dbm,
       step=st.floats(0.0, 10.0))
def test_rate_monotone_in_own_and_co_channel_power(tiny_scenario, tiny_solution, ev,
                                                   uid, own, other, step):
    own_id = tiny_solution.beam_for_user(uid).owner_poa
    other_id = next(p.id for p in tiny_scenario.poas if p.id != own_id)

    def rate(p_own, p_other):
        sol = tiny_solution.with_power(own_id, p_own).with_power(other_id, p_other)
        return ev.rate(uid, sol)

    base = rate(own, other)
    assert np.all(rate(own + step, other) >= base * (1.0 - ULPS))
    assert np.all(rate(own, other + step) <= base * (1.0 + ULPS))


@PROPERTY
@given(data=st.data(), zenith=st.floats(0.0, math.pi),
       azimuth=st.floats(-math.pi, math.pi), power=st.floats(-20.0, 30.0))
def test_link_energy_matches_beam_gains(tiny_scenario, ev, data, zenith, azimuth, power):
    p_idx = data.draw(st.integers(0, len(tiny_scenario.poas) - 1))
    poa = tiny_scenario.poas[p_idx]
    width = data.draw(st.floats(poa.min_beam_width, math.pi))
    r = data.draw(st.integers(0, ev.n_realizations - 1))
    t_idx = data.draw(st.integers(0, len(ev.targets) - 1))
    beam = BeamConfig("probe", poa.id, azimuth, zenith, width, frozenset({"u0"}))

    link = sample_link(poa.position.as_tuple(), poa.frequency,
                       ev.targets[t_idx].position.as_tuple(),
                       tiny_scenario.channel_params, link_rng(ev.seed, r, p_idx, t_idx))
    panel = PanelGeometry(poa.panel_rows, poa.panel_cols, mech_azimuth=poa.mech_azimuth,
                          element_pattern=poa.element_pattern)
    geom = PanelGeometry(poa.panel_rows, width_to_panel(width, panel),
                         mech_azimuth=poa.mech_azimuth, element_pattern=poa.element_pattern)
    steer = SteeringDirection(zenith, wrap_angle(azimuth - poa.mech_azimuth))
    want = 10.0 ** ((power - 30.0) / 10.0) * ev.beam_gains(beam)[r, t_idx]
    assert link_energy(link, power, geom, steer) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# The power core: a stack kept across power vectors gives metrics()'s verdict,
# and its grouped fills equal one-beam kernel calls.

@pytest.fixture(scope="module")
def desk_world():
    scenario = builtin_scenario("inf-dh-desk", 1)
    return Evaluator(scenario, seed=1, n_realizations=4), build_geometry(scenario, CtmConfig(seed=1))


@pytest.fixture(scope="module")
def worlds(ev, tiny_solution, desk_world):
    out = {}
    for name, (evaluator, solution) in (("tiny", (ev, tiny_solution)), ("desk", desk_world)):
        out[name] = (evaluator, solution, evaluator.stack(solution))
    return out


level = st.one_of(st.floats(-60.0, 30.0), st.just(-math.inf))


@pytest.mark.parametrize("world", ["tiny", "desk"])
@PROPERTY
@given(data=st.data())
def test_power_core_verdict_equals_metrics(worlds, world, data):
    evaluator, solution, stack = worlds[world]
    poas = [p.id for p in evaluator.scenario.poas]
    levels = data.draw(st.lists(level, min_size=len(poas), max_size=len(poas)))
    sol = replace(solution, tx_power=dict(zip(poas, levels)))
    violated = evaluator.violated(stack, sol.tx_power)
    m = evaluator.metrics(sol)
    assert violated == m.violated
    assert (not violated) == m.feasible


def test_verdict_needs_the_human_columns(tiny_solution, ev):
    with pytest.raises(ValueError):
        ev.violated(ev.stack(tiny_solution, humans=False), tiny_solution.tx_power)


def _assert_grouped_fills_equal_one_beam_kernel(monkeypatch, ev, beams):
    """Fill every beam's table in one stack call, then compare each part of
    each table byte for byte with a one-beam ``unit_link_energy`` call."""
    groups = []
    original = ch.link_terms

    def spy(link, geom):
        groups.append(id(link))
        return original(link, geom)

    monkeypatch.setattr(ch, "link_terms", spy)
    ev.stack(SolutionState(beams=tuple(beams), tx_power={}))
    monkeypatch.undo()
    parts = {(b.owner_poa, part) for b in beams for part in (0, 1)}
    assert len(groups) == len(set(groups)) == len(parts) < 2 * len(beams)
    _assert_tables_equal_one_beam_kernel(ev, ev, beams)


def _assert_tables_equal_one_beam_kernel(ev, reference, beams):
    """Each part of each of ``ev``'s beam tables is byte for byte a one-beam
    ``unit_link_energy`` call over ``reference``'s links."""
    n_users = len(ev.scenario.users)
    for b in beams:
        table = ev.beam_gains(b)
        panel = reference._panels[b.owner_poa]
        geom = replace(panel, cols=width_to_panel(b.width, panel))
        steer = SteeringDirection(b.zenith, wrap_angle(b.azimuth - panel.mech_azimuth))
        users, humans = reference._links[b.owner_poa]
        assert table[:, :n_users].tobytes() == ch.unit_link_energy(users, geom, steer).tobytes()
        assert table[:, n_users:].tobytes() == ch.unit_link_energy(humans, geom, steer).tobytes()


def _desk_ctm_beams():
    scenario = builtin_scenario("inf-dh-desk", 1)
    return scenario, [b for b in build_geometry(scenario, CtmConfig(seed=2)).beams if b.active]


def _umi_beams():
    """umi-sc-default's first PoA (3GPP 8 dBi elements) and four of its
    beams with distinct steering and column counts."""
    scenario = builtin_scenario("umi-sc-default", 1)
    assert scenario.poas[0].element_pattern == "threegpp_8dbi"
    poa = scenario.poas[0]
    served = frozenset({scenario.users[0].id})
    beams = [BeamConfig(beam_id, poa.id, azimuth, zenith, width, served)
             for beam_id, azimuth, zenith, width in zip(
                 poa.beams, (0.3, -1.2, 2.5, 0.0), (1.7, 2.0, 1.2, math.pi / 2),
                 (poa.min_beam_width, 0.2, 0.9, math.pi))]
    return scenario, beams


def test_grouped_fills_equal_one_beam_kernel_desk(monkeypatch):
    """inf-dh-desk (isotropic elements): the CtM beams, several per PoA."""
    scenario, beams = _desk_ctm_beams()
    ev = Evaluator(scenario, seed=2, n_realizations=4)
    _assert_grouped_fills_equal_one_beam_kernel(monkeypatch, ev, beams)


def test_grouped_fills_equal_one_beam_kernel_umi(monkeypatch):
    """umi-sc-default (3GPP 8 dBi elements): beams of one PoA with distinct
    steering and column counts."""
    scenario, beams = _umi_beams()
    ev = Evaluator(scenario, seed=1, n_realizations=2)
    poa = scenario.poas[0]
    assert len({width_to_panel(b.width, ev._panels[poa.id]) for b in beams}) == 4
    _assert_grouped_fills_equal_one_beam_kernel(monkeypatch, ev, beams)


# ---------------------------------------------------------------------------
# Kept link terms: a part's terms are kept from the second call that has to
# compute them, and fills from kept terms equal the one-beam kernel.

def _one_beam_misses(beam, n):
    """n beams that differ from ``beam`` only in azimuth, so each is a miss."""
    return [replace(beam, azimuth=wrap_angle(beam.azimuth + 0.05 * k)) for k in range(n)]


def test_one_beam_misses_compute_link_terms_at_most_twice(monkeypatch):
    scenario, beams = _desk_ctm_beams()
    ev = Evaluator(scenario, seed=2, n_realizations=4)
    calls = _count_link_terms_parts(monkeypatch, ev)
    pid = beams[0].owner_poa
    misses = _one_beam_misses(beams[0], 12)
    for b in misses:
        ev.beam_gains(b, humans=False)
    assert len(ev._gain_cache) == len(misses)
    assert calls == [(pid, "users")] * 2
    assert set(ev._kept_terms) == {(pid, 0)}


@pytest.mark.parametrize("world", ["desk", "umi"])
def test_kept_terms_fill_equal_one_beam_kernel(monkeypatch, world):
    """Beams filled one per call, users part then humans part, so most of
    them are steered from kept terms; every table equals one-beam kernel
    calls over a fresh Evaluator's links."""
    if world == "desk":
        scenario, beams = _desk_ctm_beams()
        beams = _one_beam_misses(beams[0], 3) + beams[1:]
        seed, n_realizations = 2, 4
    else:
        (scenario, beams), seed, n_realizations = _umi_beams(), 1, 2
    ev = Evaluator(scenario, seed, n_realizations)
    calls = _count_link_terms_parts(monkeypatch, ev)
    for humans in (False, True):
        for b in beams:
            ev.beam_gains(b, humans=humans)
    monkeypatch.undo()
    kept = {pid for pid, _ in ev._kept_terms}
    assert kept and set(ev._kept_terms) == {(pid, part) for pid in kept for part in (0, 1)}
    for pid in kept:
        assert calls.count((pid, "users")) == calls.count((pid, "humans")) == 2
    _assert_tables_equal_one_beam_kernel(ev, Evaluator(scenario, seed, n_realizations), beams)


def test_evaluate_and_solve_ctm_keep_no_terms(monkeypatch):
    """Both fill each part once, so they keep no terms."""
    import cellless.radio_metrics as rm
    import cellless.solver_ctm as solver_ctm

    made = []

    class Recorded(Evaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(rm, "Evaluator", Recorded)
    monkeypatch.setattr(solver_ctm, "Evaluator", Recorded)
    scenario = builtin_scenario("inf-dh-desk", 1)
    config = CtmConfig(seed=1, delta_db=4.0, refinement_rounds=0, kmeans_restarts=2,
                       realizations_per_check=4)
    evaluate(build_geometry(scenario, config), scenario, 1, n_realizations=4)
    solver_ctm.solve_ctm(scenario, config)
    assert len(made) == 2
    for ev in made:
        assert ev._terms_made and ev._kept_terms == {}
