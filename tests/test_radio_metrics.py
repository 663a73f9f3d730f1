"""Evaluator: SINR/rate/SAR aggregation, caching, and determinism."""

import dataclasses
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellless.antenna import PanelGeometry, SteeringDirection, width_to_panel, wrap_angle
from cellless import channel as ch
from cellless.channel import (NOISE_DENSITY_DBM_HZ, ChannelParams, dbm_to_watts, link_terms,
                              steered_energy)
from cellless.exposure import FrequencyMap
from cellless.radio_metrics import (NOISE_DENSITY_W_HZ, Evaluator, SolutionInvalidError,
                                    UnservedUserError, evaluate, shannon_rate)
from cellless.scenario import PoA, Position3D, Scenario, builtin_scenario
from cellless.solution import BeamConfig, SolutionState
from cellless.solver_ctm import CtmConfig, build_geometry
from cellless.solver_maxrate import objective
from conftest import one_link


@pytest.fixture(scope="module")
def ev(tiny_scenario):
    return Evaluator(tiny_scenario, seed=5, n_realizations=8)


def _user_terms(ev, solution, user_ids):
    """``Evaluator._terms`` of ``user_ids`` on the solution's users stack:
    signal, interference, noise and bandwidth."""
    stack = ev.stack(solution, humans=False)
    return ev._terms(stack, ev.scaled(stack, solution.tx_power), user_ids)


def _mean_rates(ev, solution):
    """``Evaluator.mean_rates`` on the solution's users stack."""
    return ev.mean_rates(ev.stack(solution, humans=False), solution.tx_power)


def _sinr(ev, solution, user_id):
    """One user's per-realization linear SINR from its terms."""
    signal, interference, noise, _ = _user_terms(ev, solution, [user_id])
    return (signal / (noise + interference))[0]


def _rate(ev, solution, user_id):
    """One user's per-realization achievable rate [bit/s]."""
    stack = ev.stack(solution, humans=False)
    return ev._rates(stack, ev.scaled(stack, solution.tx_power), [user_id])[0]


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
    # The verdict is the violated list: replacing it flips feasible.
    assert not replace(m, violated=["sar:h1"]).feasible
    assert replace(m, violated=[]).feasible
    for uid, r in m.per_user_rate.items():
        assert r == pytest.approx(float(_rate(ev, tiny_solution, uid).mean()))


def test_evaluator_deterministic(tiny_scenario, tiny_solution):
    a = Evaluator(tiny_scenario, seed=5, n_realizations=8).metrics(tiny_solution)
    b = Evaluator(tiny_scenario, seed=5, n_realizations=8).metrics(tiny_solution)
    c = Evaluator(tiny_scenario, seed=6, n_realizations=8).metrics(tiny_solution)
    assert a.per_user_rate == b.per_user_rate
    assert a.per_human_sar == b.per_human_sar
    assert a.per_user_rate != c.per_user_rate


def _assert_links_keyed_per_link(ev, p_idx):
    """Every link one PoA's parts draw, users and humans, over the whole
    part and block by block, equals a one-link draw from numpy's own
    ``default_rng(SeedSequence(key))`` of that link, field by field and bit
    for bit, and so do its per-ray departure
    angles; the frequency and the ray offsets are one value per part.
    Returns the whole (users, humans) draws."""
    poa = ev.scenario.poas[p_idx]
    records = ev._parts[poa.id, 0], ev._parts[poa.id, 1]
    n_users = len(ev.scenario.users)
    wholes = tuple(record.links() for record in records)
    assert [part.los.shape for part in wholes] == [
        (ev.n_realizations, n_users), (ev.n_realizations, len(ev.scenario.humans))]
    for part, record in enumerate(records):
        for block, links in [(slice(None), wholes[part])] + [
                (block, record.links(block)) for block in record.blocks()]:
            for row, r in enumerate(range(ev.n_realizations)[block]):
                for col in range(links.los.shape[1]):
                    t_idx = part * n_users + col
                    one = one_link(poa.position.as_tuple(), poa.frequency,
                                   ev.targets[t_idx].position.as_tuple(),
                                   ev.scenario.channel_params, (ev.seed, r, p_idx, t_idx))
                    for name in ([f.name for f in dataclasses.fields(one)]
                                 + ["aod_zenith", "aod_azimuth"]):
                        got, want = getattr(links, name), getattr(one, name)
                        if name in ("frequency", "ray_zenith_offsets", "ray_azimuth_offsets"):
                            assert np.array_equal(got, want), name
                        elif name == "los_aod":
                            assert got[0][row, col] == want[0] and got[1][row, col] == want[1]
                        else:
                            assert np.array_equal(got[row, col], want), name
    return wholes


def test_per_poa_sample_equals_per_link_streams(tiny_scenario, ev):
    for p_idx in range(len(tiny_scenario.poas)):
        _assert_links_keyed_per_link(ev, p_idx)
    desk = Evaluator(builtin_scenario("inf-dh-desk", 1), seed=3, n_realizations=2)
    users, humans = _assert_links_keyed_per_link(desk, 0)
    los = np.concatenate([users.los, humans.los], axis=1)
    assert los.any() and not los.all()


_PART_NAMES = ("users", "humans")


def _count_link_terms_parts(monkeypatch, ev):
    """Record, per call of channel.link_terms (the steering-independent
    half of the link energy, which a gain fill computes once per block of a
    part on each of the part's first two fills, and never after), which
    part of which PoA's links it was given: (PoA id, "users" |
    "humans"). A part's links are drawn anew for each fill, but their
    ``d_3d`` is a view of the part's kept direct-path geometry, so a draw
    is mapped back to the one part whose ``paths.d_3d`` it shares memory
    with."""
    calls = []
    original = ch.link_terms
    paths = [((pid, _PART_NAMES[part]), record.paths.d_3d)
             for (pid, part), record in ev._parts.items()]

    def spy(link, geom):
        (name,) = [name for name, d_3d in paths if np.shares_memory(link.d_3d, d_3d)]
        calls.append(name)
        return original(link, geom)

    monkeypatch.setattr(ch, "link_terms", spy)
    return calls


def _first_fill(ev, pid, part):
    """The ``link_terms`` calls of one part's first fill: one per block."""
    return [(pid, _PART_NAMES[part])] * len(ev._parts[pid, part].blocks())


def test_rates_evaluate_user_columns_only(monkeypatch, tiny_scenario, tiny_solution):
    ev = Evaluator(tiny_scenario, seed=5, n_realizations=8)
    calls = _count_link_terms_parts(monkeypatch, ev)
    # One active beam per PoA, so one (PoA, part) group per active beam.
    active = [b for b in tiny_solution.beams if b.active]
    assert len({b.owner_poa for b in active}) == len(active)
    _mean_rates(ev, tiny_solution)
    objective(tiny_solution, ev)
    _user_terms(ev, tiny_solution, ["u0"])
    users = sorted(c for b in active for c in _first_fill(ev, b.owner_poa, 0))
    assert sorted(calls) == users
    ev.metrics(tiny_solution)
    humans = sorted(c for b in active for c in _first_fill(ev, b.owner_poa, 1))
    assert sorted(calls[len(users):]) == humans
    ev.metrics(tiny_solution)
    _mean_rates(ev, tiny_solution)
    assert len(calls) == len(users) + len(humans)


def test_metrics_after_rates_equals_fresh_metrics(tiny_scenario, tiny_solution):
    ev = Evaluator(tiny_scenario, seed=5, n_realizations=8)
    rates = _mean_rates(ev, tiny_solution)
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
    s1 = _sinr(ev, sol, "u0")
    s2 = _sinr(ev, sol.with_power("poaA", 23.0103), "u0")  # +3.0103 dB = x2
    assert np.allclose(s2, 2.0 * s1, rtol=1e-5)
    # Against the explicit formula.
    beam = sol.beam_for_user("u0")
    gains = ev.beam_gains(beam)[:, [t.id for t in ev.targets].index("u0")]
    noise = 10.0 ** ((NOISE_DENSITY_DBM_HZ - 30.0) / 10.0) * 20e6
    n_active = len([b for b in sol.beams_of("poaA") if b.active])
    p = 10.0 ** ((20.0 - 30.0) / 10.0) / n_active
    assert np.allclose(s1, p * gains / noise, rtol=1e-12)


def test_interference_reduces_sinr(tiny_scenario, tiny_solution, ev):
    with_intf = _sinr(ev, tiny_solution, "u0")
    quiet = tiny_solution.with_power("poaB", -math.inf)
    beams = tuple(b if b.owner_poa != "poaB" else replace(b, served_users=frozenset())
                  for b in quiet.beams)
    quiet = replace(quiet, beams=beams)
    assert np.all(_sinr(ev, quiet, "u0") >= with_intf)


def test_gain_cache_power_independent(tiny_scenario, tiny_solution, ev):
    beam = tiny_solution.beam_for_user("u0")
    assert ev.beam_gains(beam, humans=False) is ev.beam_gains(beam, humans=False)  # cached
    g1 = ev.beam_gains(beam)
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
        _user_terms(ev, tiny_solution, ["u99"])


def test_dump_links_recomputes_sinr(tiny_scenario, tiny_solution, ev):
    """The dump plus solved powers is enough to rebuild every user's signal,
    interference and noise, and so every SINR."""
    rows = ev.dump_links(tiny_solution)
    noise = 10.0 ** ((NOISE_DENSITY_DBM_HZ - 30.0) / 10.0) * 20e6
    by_key = {}
    for r in rows:
        by_key[(r["realization"], r["beam_id"], r["target_id"])] = r

    def split_power(pid):
        n = len([b for b in tiny_solution.beams_of(pid) if b.active])
        return 10.0 ** ((tiny_solution.tx_power[pid] - 30.0) / 10.0) / n

    user_ids = [u.id for u in tiny_scenario.users]
    signal, interference, noise_w, bandwidth = _user_terms(ev, tiny_solution, user_ids)
    assert signal.shape == interference.shape == (len(user_ids), ev.n_realizations)
    assert noise_w.shape == (len(user_ids), 1)
    for i, u in enumerate(tiny_scenario.users):
        beam = tiny_solution.beam_for_user(u.id)
        poa = tiny_scenario.poa_by_id(beam.owner_poa)
        assert bandwidth[i] == poa.bandwidth
        assert noise_w[i, 0] == pytest.approx(noise, rel=1e-12, abs=0.0)
        for real in range(ev.n_realizations):
            sig = split_power(poa.id) * \
                by_key[(real, beam.beam_id, u.id)]["unit_energy_w"]
            intf = 0.0
            for r in rows:
                if (r["realization"] == real and r["target_id"] == u.id
                        and r["poa_id"] != poa.id
                        and r["frequency_hz"] == poa.frequency):
                    intf += split_power(r["poa_id"]) * r["unit_energy_w"]
            assert intf > 0.0   # both tiny PoAs share 5 GHz
            # Powers are far below pytest.approx's default absolute slack.
            assert signal[i, real] == pytest.approx(sig, rel=1e-12, abs=0.0)
            assert interference[i, real] == pytest.approx(intf, rel=1e-12, abs=0.0)


def test_world_without_humans_evaluates(tiny_scenario, tiny_solution):
    no_humans = replace(tiny_scenario, humans=())
    m = evaluate(tiny_solution, no_humans, seed=5, n_realizations=4)
    assert m.per_human_sar == {}
    with_humans = Evaluator(tiny_scenario, seed=5, n_realizations=4).metrics(tiny_solution)
    assert m.per_user_rate == with_humans.per_user_rate
    ev = Evaluator(no_humans, seed=5, n_realizations=4)
    assert _mean_rates(ev, tiny_solution).tolist() == list(m.per_user_rate.values())
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
    assert _mean_rates(ev, sol).shape == (0,)
    assert ev.beam_gains(sol.beams[0]).shape == (2, 0)


def test_evaluator_rejects_bad_realizations(tiny_scenario):
    with pytest.raises(ValueError):
        Evaluator(tiny_scenario, seed=0, n_realizations=0)


@pytest.mark.parametrize("name, value", [
    ("seed", 1.5), ("seed", True), ("seed", np.float64(2.5)), ("seed", "1"),
    ("n_realizations", 2.5), ("n_realizations", True), ("n_realizations", False),
    ("n_realizations", math.nan), ("n_realizations", math.inf)])
def test_non_integral_seed_or_realization_count_is_refused(tiny_scenario, tiny_solution,
                                                           name, value):
    """A fraction, a boolean or a non-number is refused at the argument it
    was passed as, not truncated: seed 1.5 is not seed 1, and True is not
    a seed."""
    args = {"seed": 1, "n_realizations": 2, name: value}
    with pytest.raises(ValueError, match=name):
        Evaluator(tiny_scenario, **args)
    with pytest.raises(ValueError, match=name):
        evaluate(tiny_solution, tiny_scenario, **args)
    # Integral values of other number types are the same seed and count.
    same = Evaluator(tiny_scenario, seed=np.int64(1), n_realizations=2.0)
    assert (same.seed, same.n_realizations) == (1, 2)
    assert type(same.seed) is int and type(same.n_realizations) is int
    assert (same.metrics(tiny_solution).per_user_rate
            == Evaluator(tiny_scenario, 1, 2).metrics(tiny_solution).per_user_rate)


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

    def rate_at(p_own, p_other):
        sol = tiny_solution.with_power(own_id, p_own).with_power(other_id, p_other)
        return _rate(ev, sol, uid)

    base = rate_at(own, other)
    assert np.all(rate_at(own + step, other) >= base * (1.0 - ULPS))
    assert np.all(rate_at(own, other + step) <= base * (1.0 + ULPS))


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

    link = one_link(poa.position.as_tuple(), poa.frequency,
                    ev.targets[t_idx].position.as_tuple(), tiny_scenario.channel_params,
                    (ev.seed, r, p_idx, t_idx))
    panel = PanelGeometry(poa.panel_rows, poa.panel_cols, mech_azimuth=poa.mech_azimuth,
                          element_pattern=poa.element_pattern)
    geom = PanelGeometry(poa.panel_rows, width_to_panel(width, panel),
                         mech_azimuth=poa.mech_azimuth, element_pattern=poa.element_pattern)
    steer = SteeringDirection(zenith, wrap_angle(azimuth - poa.mech_azimuth))
    want = 10.0 ** ((power - 30.0) / 10.0) * ev.beam_gains(beam)[r, t_idx]
    got = dbm_to_watts(power) * float(steered_energy(link_terms(link, geom), geom, steer))
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Fixed stack rows: one per scenario beam, whatever the solution lists.

def _wrong_listings(solution):
    """(violation code, solution) pairs that name something the scenario
    lacks or list a beam where it does not belong."""
    b0, b1 = solution.beams[0], solution.beams[1]
    rest = solution.beams[1:]
    other = next(b.owner_poa for b in solution.beams if b.owner_poa != b0.owner_poa)
    return [
        ("unknown_beam", (replace(b0, beam_id="nope-b0"),) + rest),
        ("unknown_poa", (replace(b0, owner_poa="nope"),) + rest),
        ("unknown_user", (replace(b0, served_users=b0.served_users | {"u99"}),) + rest),
        ("wrong_owner", (replace(b0, owner_poa=other),) + rest),
        ("duplicate_beam", (b0, replace(b0, served_users=frozenset())) + rest),
        ("duplicate_beam", (b0, b1, b1) + solution.beams[2:]),
    ]


@pytest.mark.parametrize("case", range(6), ids=["unknown-beam", "unknown-owner", "unknown-user",
                                                "wrong-owner", "twice", "twice-live"])
def test_unknown_beams_owners_and_users_are_refused(tiny_scenario, tiny_solution, ev, case):
    """A solution naming a beam, owner PoA or served user the scenario lacks,
    or listing a beam twice or under a PoA that does not own it, is refused
    by every view with the violations ``validate`` finds, instead of being
    evaluated as if it were legal."""
    code, beams = _wrong_listings(tiny_solution)[case]
    wrong = replace(tiny_solution, beams=beams)
    for view in (lambda: ev.stack(wrong, humans=False), lambda: ev.metrics(wrong),
                 lambda: ev.mean_rates(ev.stack(wrong, humans=False), wrong.tx_power),
                 lambda: ev.dump_links(wrong)):
        with pytest.raises(SolutionInvalidError) as info:
            view()
        assert code in {v.code for v in info.value.violations}


@pytest.fixture(scope="module")
def geometry_pool():
    """(world, seed, realizations) -> an Evaluator and its CtM geometry."""
    return {}


@settings(deadline=None, max_examples=30)
@given(world=st.sampled_from(["inf-dh-desk", "umi-sc-desk"]), seed=st.integers(1, 2),
       realizations=st.integers(2, 4), data=st.data())
def test_beam_listing_order_does_not_change_a_bit(geometry_pool, world, seed, realizations,
                                                  data):
    """Stack rows are fixed per Evaluator, so ``metrics`` of any permutation
    of a CtM geometry's beams has the bits of the geometry's own."""
    key = (world, seed, realizations)
    if key not in geometry_pool:
        scenario = builtin_scenario(world, seed)
        geometry_pool[key] = (Evaluator(scenario, seed, realizations),
                              build_geometry(scenario, CtmConfig(seed=seed, kmeans_restarts=2)))
    ev, sol = geometry_pool[key]
    shuffled = replace(sol, beams=tuple(data.draw(st.permutations(sol.beams))))
    want, got = ev.metrics(sol), ev.metrics(shuffled)
    for field in ("per_user_rate", "per_human_sar"):
        assert (np.array(list(getattr(got, field).values())).tobytes()
                == np.array(list(getattr(want, field).values())).tobytes())
    assert got.violated == want.violated


# ---------------------------------------------------------------------------
# The power core: user views asked for some users read metrics()'s rates,
# and grouped fills equal one-beam kernel calls.

@pytest.mark.parametrize("realizations", [1, 2, 10])
@pytest.mark.parametrize("world, seed", [("inf-dh-desk", 2), ("umi-sc-desk", 0)])
def test_user_views_equal_metrics_bit_for_bit(world, seed, realizations):
    """``mean_rates``, per-user ``_terms`` and ``unmet_floors`` asked for
    one user or for one PoA's users read the very rates ``metrics`` does,
    also with one realization, where each user's interference is one
    number per beam."""
    scenario = builtin_scenario(world, seed)
    ev = Evaluator(scenario, seed, realizations)
    sol = build_geometry(scenario, CtmConfig(seed=seed))
    rates = ev.metrics(sol).per_user_rate
    assert _mean_rates(ev, sol).tolist() == list(rates.values())
    for u in scenario.users:
        rate = _rate(ev, sol, u.id)
        assert float(rate.mean()) == rates[u.id]
        bandwidth = scenario.poa_by_id(sol.beam_for_user(u.id).owner_poa).bandwidth
        signal, interference, noise, bw = _user_terms(ev, sol, [u.id])
        assert bw.tolist() == [bandwidth]
        assert noise.tolist() == [[NOISE_DENSITY_W_HZ * bandwidth]]
        sinr = signal[0] / (noise[0] + interference[0])
        assert np.array_equal(shannon_rate(bandwidth, sinr), rate)

    stack = ev.stack(sol)
    groups = [[u.id] for u in scenario.users] + [
        sorted(uid for b in sol.beams_of(pid) for uid in b.served_users)
        for pid in sol.active_poas()]
    for above in (False, True):
        # Floors at each user's own rate are met; one ulp above, all missed.
        ev._rate_floor = {uid: math.nextafter(r, math.inf) if above else r
                          for uid, r in rates.items()}
        for uids in groups:
            want = [f"rate:{uid}" for uid in uids] if above else []
            assert ev.unmet_floors(stack, sol.tx_power, uids) == want


def _assert_grouped_fills_equal_one_beam_kernel(monkeypatch, ev, beams):
    """Fill every beam's table in one stack call, then compare each part of
    each table byte for byte with a one-beam ``steered_energy`` call over
    the whole part. The fill computes one ``link_terms`` per block of each
    part, shared by all the part's beams."""
    calls = _count_link_terms_parts(monkeypatch, ev)
    ev.stack(SolutionState(beams=tuple(beams), tx_power={}))
    monkeypatch.undo()
    parts = {(b.owner_poa, part) for b in beams for part in (0, 1)}
    assert len(parts) < 2 * len(beams)
    assert sorted(calls) == sorted(c for pid, part in parts for c in _first_fill(ev, pid, part))
    _assert_tables_equal_one_beam_kernel(ev, ev, beams)


def _assert_tables_equal_one_beam_kernel(ev, reference, beams):
    """Each part of each of ``ev``'s beam tables is byte for byte a one-beam
    ``steered_energy`` call over ``reference``'s links."""
    n_users = len(ev.scenario.users)
    for b in beams:
        table = ev.beam_gains(b)
        panel = reference._panels[b.owner_poa]
        geom = replace(panel, cols=width_to_panel(b.width, panel))
        steer = SteeringDirection(b.zenith, wrap_angle(b.azimuth - panel.mech_azimuth))
        users, humans = (reference._parts[b.owner_poa, part].links() for part in (0, 1))
        for links, part in ((users, table[:, :n_users]), (humans, table[:, n_users:])):
            one = ch.steered_energy(ch.link_terms(links, geom), geom, steer)
            assert part.tobytes() == one.tobytes()


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


def _first_poa_beams(scenario):
    """One beam per beam id of the scenario's first PoA, with distinct
    steering and widths."""
    poa = scenario.poas[0]
    served = frozenset({scenario.users[0].id})
    return [BeamConfig(beam_id, poa.id, wrap_angle(0.3 + 1.3 * k), 1.2 + 0.2 * k,
                       poa.min_beam_width * (1 + k), served)
            for k, beam_id in enumerate(poa.beams)]


@pytest.mark.parametrize("world", ["inf-dh-desk", "umi-sc-desk"])
def test_block_fills_equal_one_beam_kernel(monkeypatch, world):
    """20 realizations span two blocks of a desk world's users parts and
    three of its humans parts, the last of each short, on isotropic
    (inf-dh) and 3GPP 8 dBi (umi-sc) elements. The block-wise first fill,
    and then fills from kept per-block terms, equal one-beam kernel calls
    over the whole part byte for byte."""
    scenario = builtin_scenario(world, 1)
    beams = [b for b in build_geometry(scenario, CtmConfig(seed=1, kmeans_restarts=2)).beams
             if b.active]
    ev = Evaluator(scenario, seed=1, n_realizations=20)
    for pid in {b.owner_poa for b in beams}:
        assert [len(ev._parts[pid, part].blocks()) for part in (0, 1)] == [2, 3]
    _assert_grouped_fills_equal_one_beam_kernel(monkeypatch, ev, beams)
    misses = _one_beam_misses(beams[0], 3)[1:]
    for humans in (False, True):
        for b in misses:
            ev.beam_gains(b, humans=humans)
    assert _kept(ev) == {(beams[0].owner_poa, part) for part in (0, 1)}
    _assert_tables_equal_one_beam_kernel(ev, ev, misses)


def test_first_fill_peak_memory_is_flat_in_realizations():
    """A part's first fill holds the drawn links, link terms and steering
    temporaries of one block at a time. On umi-sc-desk, one PoA's beams over its users and
    humans: at 8 realizations the humans part is one block, at 32 it is
    four, and the traced peak of the fill stays within 10 % (a fill from
    one whole-part ``link_terms`` grows about 3.7 times)."""
    scenario = builtin_scenario("umi-sc-desk", 1)
    beams = _first_poa_beams(scenario)
    peaks = []
    for n_realizations in (8, 32):
        ev = Evaluator(scenario, seed=1, n_realizations=n_realizations)
        tracemalloc.start()
        try:
            ev._tables(beams, humans=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(ev._parts[beams[0].owner_poa, 1].blocks()) == n_realizations // 8
    assert peaks[1] < 1.1 * peaks[0]


def _arrays(value):
    """Every numpy array ``value`` holds, through dataclasses, dicts and
    tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def test_evaluate_peak_memory_grows_little_with_realizations():
    """Links are kept as 32 seed-word bytes each and drawn one block at a
    time when a part fills, so on umi-sc-desk one ``evaluate`` at 32
    realizations peaks within 1.35 times its peak at 8 (stored per-ray
    links grew it 2.6 times). After one ``metrics`` call, no part holds an
    array with a ray axis: apart from the (realizations, targets, 4) seed
    words, every array it holds has at most two axes."""
    scenario = builtin_scenario("umi-sc-desk", 1)
    sol = build_geometry(scenario, CtmConfig(seed=1, kmeans_restarts=2))
    peaks = []
    for n_realizations in (8, 32):
        tracemalloc.start()
        try:
            evaluate(sol, scenario, 1, n_realizations)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.35 * peaks[0]
    ev = Evaluator(scenario, 1, 8)
    ev.metrics(sol)
    assert any(record.tables for record in ev._parts.values())
    for record in ev._parts.values():
        assert record.words.shape == (8, record.paths.d_3d.shape[0], 4)
        assert all(a.ndim <= 2 or a is record.words for a in _arrays(record))


# ---------------------------------------------------------------------------
# Kept link terms: every fill runs block by block; a part's first fill
# keeps nothing, its second keeps each block's terms, and fills from kept
# terms equal the one-beam kernel.

def _kept(ev):
    """The (PoA id, part) keys whose link terms the Evaluator keeps; a part
    keeps one terms record per block, each spanning its block, so together
    they span the whole part."""
    kept = {key for key, record in ev._parts.items() if record.kept}
    params = ev.scenario.channel_params
    for key in kept:
        record = ev._parts[key]
        blocks = record.blocks()
        assert len(record.kept) == len(blocks)
        for block, terms in zip(blocks, record.kept):
            assert terms.rays.shape == record.words[block].shape[:2] + (params.n_clusters,
                                                                       params.n_rays)
    return kept


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
    assert len(ev._parts[pid, 0].tables) == len(misses)
    assert ev._parts[pid, 1].tables == {}  # a users-only fill makes no humans-part table
    # The first fill's blocks, then the second fill's, then kept.
    assert calls == _first_fill(ev, pid, 0) * 2
    assert _kept(ev) == {(pid, 0)}


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
    kept = {pid for pid, _ in _kept(ev)}
    assert kept and _kept(ev) == {(pid, part) for pid in kept for part in (0, 1)}
    for pid in kept:
        for part in (0, 1):
            assert calls.count((pid, _PART_NAMES[part])) == 2 * len(_first_fill(ev, pid, part))
    _assert_tables_equal_one_beam_kernel(ev, Evaluator(scenario, seed, n_realizations), beams)


# ---------------------------------------------------------------------------
# The part records under random call sequences: tables hold one part each,
# humans-part tables exist only where exposure was read, and every table is
# the one-beam kernel's.

@pytest.fixture(scope="module")
def desk_pool():
    """inf-dh-desk with 2 realizations: a reference Evaluator and three CtM
    geometries whose active beams differ only in azimuth."""
    scenario = builtin_scenario("inf-dh-desk", 1)
    base = build_geometry(scenario, CtmConfig(seed=1, kmeans_restarts=2))
    solutions = [replace(base, beams=tuple(replace(b, azimuth=wrap_angle(b.azimuth + 0.05 * k))
                                           for b in base.beams)) for k in range(3)]
    return Evaluator(scenario, seed=1, n_realizations=2), solutions


def _table_key(ev, beam):
    """(PoA id, key of the beam's tables in that PoA's part records)."""
    panel = ev._panels[beam.owner_poa]
    return beam.owner_poa, (round(beam.zenith, 12), round(beam.azimuth, 12),
                            width_to_panel(beam.width, panel))


call = st.one_of(
    st.tuples(st.just("beam_gains"), st.integers(0, 2), st.integers(0, 99), st.booleans()),
    st.tuples(st.sampled_from(["mean_rates", "metrics"]), st.integers(0, 2)))


@settings(deadline=None, max_examples=25)
@given(calls=st.lists(call, min_size=1, max_size=8))
def test_part_tables_under_random_calls(desk_pool, calls):
    reference, solutions = desk_pool
    ev = Evaluator(reference.scenario, seed=1, n_realizations=2)
    read, with_humans = {}, set()
    with pytest.MonkeyPatch.context() as mp:
        terms_calls = _count_link_terms_parts(mp, ev)
        for name, k, *args in calls:
            active = [b for b in solutions[k].beams if b.active]
            if name == "beam_gains":
                beam, humans = active[args[0] % len(active)], args[1]
                ev.beam_gains(beam, humans=humans)
                beams = [beam]
            else:
                if name == "metrics":
                    ev.metrics(solutions[k])
                else:
                    _mean_rates(ev, solutions[k])
                beams, humans = active, name == "metrics"
            for b in beams:
                read[_table_key(ev, b)] = b
                if humans:
                    with_humans.add(_table_key(ev, b))
    n_targets = (len(ev.scenario.users), len(ev.scenario.humans))
    for (pid, part), record in ev._parts.items():
        for table in record.tables.values():
            assert table.shape == (2, n_targets[part])
        assert set(record.tables) == {key for p, key in (read if part == 0 else with_humans)
                                      if p == pid}
        n_blocks = len(_first_fill(ev, pid, part))
        assert terms_calls.count((pid, _PART_NAMES[part])) in (0, n_blocks, 2 * n_blocks)
    _assert_tables_equal_one_beam_kernel(ev, reference, list(read.values()))


def test_evaluate_and_solve_ctm_keep_no_terms(monkeypatch):
    """``evaluate``, ``solve_ctm`` and ``dump_links`` each fill every part
    once, so they keep no terms."""
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
    solution, _ = solver_ctm.solve_ctm(scenario, config)
    rm.Evaluator(scenario, 1, n_realizations=4).dump_links(solution)
    assert len(made) == 3
    for ev in made:
        assert any(record.tables for record in ev._parts.values()) and _kept(ev) == set()


def test_nan_floor_or_ceiling_is_a_violation(tiny_scenario, tiny_solution):
    """Floors and ceilings fail closed: a NaN floor or SAR limit, which only
    a world built in Python can hold, is never met."""
    base = Evaluator(tiny_scenario, 5, 4).metrics(tiny_solution).violated
    users = (replace(tiny_scenario.users[0], required_rate=math.nan),) + tiny_scenario.users[1:]
    nan_floor = Evaluator(replace(tiny_scenario, users=users), 5, 4)
    assert set(nan_floor.metrics(tiny_solution).violated) == set(base) | {"rate:u0"}
    stack = nan_floor.stack(tiny_solution, humans=False)
    assert nan_floor.unmet_floors(stack, tiny_solution.tx_power, ["u0"]) == ["rate:u0"]
    nan_limit = Evaluator(replace(tiny_scenario, sar_limit=math.nan), 5, 4)
    assert [v for v in nan_limit.metrics(tiny_solution).violated
            if v.startswith("sar:")] == ["sar:h0", "sar:h1"]
