"""Evaluator: SINR/rate/SAR aggregation, caching, and determinism."""

import dataclasses
import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cellless.antenna import (FieldWork, PanelGeometry, SteeringDirection, width_to_panel,
                              wrap_angle)
from cellless import channel as ch
from cellless.channel import (NOISE_DENSITY_DBM_HZ, ChannelParams, dbm_to_watts, link_terms,
                              steered_energy)
from cellless.exposure import FrequencyMap, incident_field, sar_wb
from cellless.radio_metrics import (NOISE_DENSITY_W_HZ, Evaluator, SolutionInvalidError,
                                    UnservedUserError, _row_sum, evaluate, power_density,
                                    shannon_rate)
from cellless.scenario import (EndUser, Human, PoA, Position3D, Scenario, ValidationError,
                               builtin_scenario)
from cellless.solution import BeamConfig, SolutionState, validate
from cellless.solver_ctm import CtmConfig, build_geometry
from cellless.solver_maxrate import ANGLE_STEP, objective, solve_maxrate
from conftest import (assert_links_match, make_poa, make_tiny_scenario, nearest_poa, one_link,
                      serving_beam, too_close_world)


@pytest.fixture(scope="module")
def ev(tiny_scenario):
    return Evaluator(tiny_scenario, seed=5, n_realizations=8)


def _targets(ev):
    """The Evaluator's users, then its humans: target index order."""
    return list(ev.scenario.users) + list(ev.scenario.humans)


def _user_terms(ev, solution, user_ids):
    """``Evaluator._terms`` on the solution's users stack and live-row watts,
    at the columns of ``user_ids``: signal, interference, noise and
    bandwidth."""
    cols = [[u.id for u in ev.scenario.users].index(uid) for uid in user_ids]
    stack = ev.stack(solution)
    return tuple(term[cols] for term in ev._terms(stack, ev._watts(stack, solution.tx_power)))


def _sinr(ev, solution, user_id):
    """One user's per-realization linear SINR from its terms."""
    signal, interference, noise, _ = _user_terms(ev, solution, [user_id])
    return (signal / (noise + interference))[0]


def _rate(ev, solution, user_id):
    """One user's per-realization achievable rate [bit/s]."""
    signal, interference, noise, bandwidth = _user_terms(ev, solution, [user_id])
    return shannon_rate(bandwidth[:, None], signal / (noise + interference))[0]


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
    """Every link one PoA's parts draw, to the users and to the unlinked
    humans, over the whole part and block by block, matches ``one_link`` of
    its key (seed, realization, PoA index, part, target index among all the
    part's users or humans), a draw that shares no code with the package's
    (``conftest.assert_links_match``). Returns the whole (users, unlinked
    humans) draws."""
    poa = ev.scenario.poas[p_idx]
    records = ev._parts[poa.id, 0], ev._parts[poa.id, 1]
    groups = (list(enumerate(ev.scenario.users)),
              [(i, h) for i, h in enumerate(ev.scenario.humans) if h.linked_user is None])
    wholes = tuple(record.links() for record in records)
    assert [part.los.shape for part in wholes] == [(ev.n_realizations, len(g)) for g in groups]
    for part, (record, group) in enumerate(zip(records, groups)):
        for block, links in [(slice(None), wholes[part])] + [
                (block, record.links(block)) for block in record.blocks()]:
            for row, r in enumerate(range(ev.n_realizations)[block]):
                for col, (stream_row, target) in enumerate(group):
                    one = one_link(poa.position.as_tuple(), poa.frequency,
                                   target.position.as_tuple(), ev.scenario.channel_params,
                                   (ev.seed, r, p_idx, part, stream_row))
                    assert_links_match(links, one, (row, col))
    return wholes


def test_per_poa_sample_equals_keyed_rows(tiny_scenario, ev):
    for p_idx in range(len(tiny_scenario.poas)):
        _assert_links_keyed_per_link(ev, p_idx)
    desk = Evaluator(builtin_scenario("inf-dh-desk", 1), seed=3, n_realizations=2)
    users, humans = _assert_links_keyed_per_link(desk, 0)
    los = np.concatenate([users.los, humans.los], axis=1)
    assert los.any() and not los.all()


@settings(deadline=None, max_examples=15)
@given(x=st.floats(0.0, 40.0), y=st.floats(0.0, 20.0), at=st.integers(0, 2),
       seed=st.integers(0, 2**40))
def test_adding_a_human_leaves_every_users_table_and_rate(tiny_scenario, tiny_solution, x, y,
                                                          at, seed):
    """The users' links are drawn from the users part's streams alone, so a
    world with one more human, anywhere in the humans' listing, has every
    users link, users table and rate of the world without it, bit for
    bit."""
    humans = list(tiny_scenario.humans)
    humans.insert(at, Human("h-new", Position3D(x, y, 1.5), "duke"))
    without, with_human = (Evaluator(s, seed, 3) for s in (
        tiny_scenario, replace(tiny_scenario, humans=tuple(humans))))
    rates = [np.array(list(e.metrics(tiny_solution).per_user_rate.values()))
             for e in (without, with_human)]
    assert rates[0].tobytes() == rates[1].tobytes()
    for poa in tiny_scenario.poas:
        a, b = without._parts[poa.id, 0], with_human._parts[poa.id, 0]
        assert a.tables.keys() == b.tables.keys()
        assert all(a.tables[key].tobytes() == b.tables[key].tobytes() for key in a.tables)
        assert a.links().shadow_db.tobytes() == b.links().shadow_db.tobytes()
        assert a.links().phases.tobytes() == b.links().phases.tobytes()


_PART_NAMES = ("users", "humans")


def _linked_columns(scenario):
    """Each linked human's index -> its user's index, read from the scenario
    by id."""
    users = [u.id for u in scenario.users]
    return {i: users.index(h.linked_user) for i, h in enumerate(scenario.humans)
            if h.linked_user is not None}


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


def _fill(ev, beam, humans):
    """Fill the beam's users-part table, and with ``humans`` its humans-part
    table too (through ``beam_gains``)."""
    if humans:
        ev.beam_gains(beam)
    else:
        ev._tables([ev._key(beam)], 0)


def test_rates_evaluate_user_columns_only(monkeypatch, tiny_scenario, tiny_solution):
    ev = Evaluator(tiny_scenario, seed=5, n_realizations=8)
    calls = _count_link_terms_parts(monkeypatch, ev)
    # One active beam per PoA, so one (PoA, part) group per active beam.
    active = [b for b in tiny_solution.beams if b.active]
    assert len({b.owner_poa for b in active}) == len(active)
    ev.mean_rates(tiny_solution)
    objective(tiny_solution, ev)
    _user_terms(ev, tiny_solution, ["u0"])
    users = sorted(c for b in active for c in _first_fill(ev, b.owner_poa, 0))
    assert sorted(calls) == users
    ev.metrics(tiny_solution)
    humans = sorted(c for b in active for c in _first_fill(ev, b.owner_poa, 1))
    assert sorted(calls[len(users):]) == humans
    ev.metrics(tiny_solution)
    ev.mean_rates(tiny_solution)
    assert len(calls) == len(users) + len(humans)


def test_metrics_after_rates_equals_fresh_metrics(tiny_scenario, tiny_solution):
    ev = Evaluator(tiny_scenario, seed=5, n_realizations=8)
    rates = ev.mean_rates(tiny_solution)
    late = ev.metrics(tiny_solution)
    fresh = Evaluator(tiny_scenario, seed=5, n_realizations=8).metrics(tiny_solution)
    assert late.per_user_rate == fresh.per_user_rate
    assert late.per_human_sar == fresh.per_human_sar
    assert rates.tolist() == list(fresh.per_user_rate.values())


def test_a_zenith_stepped_there_and_back_reads_its_own_table():
    """A beam's zenith stepped up and back down lands one ulp from where it
    started (1.8200000000000005 against ...03). Gain tables are keyed on the
    exact angles, so its rates on an Evaluator that scored the start first
    have the bytes of a fresh Evaluator's, not of the start's table."""
    scenario = replace(
        make_tiny_scenario(), poas=(make_poa("p0", 1.0, 1.0, n_beams=1, rows=4, cols=4),),
        users=tuple(EndUser(f"u{i}", Position3D(x, y, 1.5), 1e6)
                    for i, (x, y) in enumerate([(1.0, 0.0), (0.0, 1.0), (2.0, 0.0)])),
        humans=())
    sol = build_geometry(scenario, CtmConfig(seed=0))
    (beam,) = sol.beams
    start = replace(sol, beams=(replace(beam, zenith=1.8200000000000003,
                                        azimuth=-3.083473189498382),))
    up = replace(start, beams=(replace(start.beams[0], zenith=1.8200000000000003 + ANGLE_STEP),))
    back = replace(up, beams=(replace(up.beams[0], zenith=up.beams[0].zenith - ANGLE_STEP),))
    assert 0 < abs(back.beams[0].zenith - start.beams[0].zenith) < 1e-12
    ev = Evaluator(scenario, 0, 1)
    for solution in (start, up):
        ev.mean_rates(solution)
    fresh = Evaluator(scenario, 0, 1).mean_rates(back)
    assert ev.mean_rates(back).tobytes() == fresh.tobytes()


def test_sinr_power_scaling_without_interference(tiny_scenario, tiny_solution, ev):
    """With the other PoA off (its beams still serving, at 0 W), SINR is
    signal/noise and scales linearly."""
    sol = tiny_solution.with_power("poaB", -math.inf)
    s1 = _sinr(ev, sol, "u0")
    s2 = _sinr(ev, sol.with_power("poaA", 23.0103), "u0")  # +3.0103 dB = x2
    assert np.allclose(s2, 2.0 * s1, rtol=1e-5)
    # Against the explicit formula.
    beam = serving_beam(sol, "u0")
    gains = ev.beam_gains(beam)[:, [t.id for t in _targets(ev)].index("u0")]
    noise = 10.0 ** ((NOISE_DENSITY_DBM_HZ - 30.0) / 10.0) * 20e6
    n_active = len([b for b in sol.beams if b.owner_poa == "poaA" and b.active])
    p = 10.0 ** ((20.0 - 30.0) / 10.0) / n_active
    assert np.allclose(s1, p * gains / noise, rtol=1e-12)


def test_interference_reduces_sinr(tiny_scenario, tiny_solution, ev):
    with_intf = _sinr(ev, tiny_solution, "u0")
    quiet = tiny_solution.with_power("poaB", -math.inf)
    assert np.all(_sinr(ev, quiet, "u0") >= with_intf)


def test_gain_cache_power_independent(tiny_scenario, tiny_solution, ev):
    beam = serving_beam(tiny_solution, "u0")
    assert ev._tables([ev._key(beam)], 0)[0] is ev._tables([ev._key(beam)], 0)[0]  # cached
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


def test_power_density_refuses_a_negative_received_power():
    assert power_density(3e9, 0.0) == 0.0
    with pytest.raises(ValueError, match="^received power must be non-negative$"):
        power_density(3e9, np.array([1e-9, -1e-12]))


def test_violation_labels(tiny_scenario, tiny_solution):
    demanding = replace(
        tiny_scenario,
        users=tuple(replace(u, required_rate=1e12) for u in tiny_scenario.users))
    m = Evaluator(demanding, seed=5, n_realizations=4).metrics(tiny_solution)
    assert not m.feasible
    assert set(m.violated) == {f"rate:{u.id}" for u in demanding.users}

    # Floors of 1 bit/s, met by every user, leave the SAR ceiling alone.
    strict = replace(tiny_scenario, sar_limit=1e-30,
                     users=tuple(replace(u, required_rate=1.0) for u in tiny_scenario.users))
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


def test_unserved_user_rates_raise(tiny_solution, ev):
    """A state in which one user is served by no beam has no rates: the
    ``stack`` under ``mean_rates`` refuses it with ``validate``'s
    ``unserved_user``, which names that user."""
    beams = tuple(replace(b, served_users=b.served_users - {"u1"}) for b in tiny_solution.beams)
    with pytest.raises(UnservedUserError, match="u1"):
        ev.mean_rates(replace(tiny_solution, beams=beams))


def _beam_watts(solution, pid):
    """Each active beam's share [W] of PoA ``pid``'s solved power."""
    n = len([b for b in solution.beams if b.owner_poa == pid and b.active])
    return 10.0 ** ((solution.tx_power[pid] - 30.0) / 10.0) / n


def test_dump_links_recomputes_sinr(tiny_scenario, tiny_solution, ev):
    """The dump plus solved powers is enough to rebuild every user's signal,
    interference and noise, and so every SINR."""
    rows = ev.dump_links(tiny_solution)
    noise = 10.0 ** ((NOISE_DENSITY_DBM_HZ - 30.0) / 10.0) * 20e6
    by_key = {}
    for r in rows:
        by_key[(r["realization"], r["beam_id"], r["target_id"])] = r

    user_ids = [u.id for u in tiny_scenario.users]
    signal, interference, noise_w, bandwidth = _user_terms(ev, tiny_solution, user_ids)
    assert signal.shape == interference.shape == (len(user_ids), ev.n_realizations)
    assert noise_w.shape == (len(user_ids), 1)
    for i, u in enumerate(tiny_scenario.users):
        beam = serving_beam(tiny_solution, u.id)
        poa = tiny_scenario.poa_by_id(beam.owner_poa)
        assert bandwidth[i] == poa.bandwidth
        assert noise_w[i, 0] == pytest.approx(noise, rel=1e-12, abs=0.0)
        for real in range(ev.n_realizations):
            sig = _beam_watts(tiny_solution, poa.id) * \
                by_key[(real, beam.beam_id, u.id)]["unit_energy_w"]
            intf = 0.0
            for r in rows:
                if (r["realization"] == real and r["target_id"] == u.id
                        and r["poa_id"] != poa.id
                        and r["frequency_hz"] == poa.frequency):
                    intf += _beam_watts(tiny_solution, r["poa_id"]) * r["unit_energy_w"]
            assert intf > 0.0   # both tiny PoAs share 5 GHz
            # Powers are far below pytest.approx's default absolute slack.
            assert signal[i, real] == pytest.approx(sig, rel=1e-12, abs=0.0)
            assert interference[i, real] == pytest.approx(intf, rel=1e-12, abs=0.0)


def test_dump_links_recomputes_sar(tiny_scenario, tiny_solution, ev):
    """The dump's human rows plus the solved powers rebuild every human's
    received power per frequency, and through ``power_density`` ->
    ``incident_field`` -> ``sar_wb`` the mean SAR that ``metrics`` reports.
    A linked human's rows are its user's: the same energy, LoS state, path
    loss and shadowing under each beam in each realization."""
    dump = ev.dump_links(tiny_solution)
    rows = [r for r in dump if r["target_kind"] == "human"]
    active = [b for b in tiny_solution.beams if b.active]
    assert len(rows) == ev.n_realizations * len(active) * len(tiny_scenario.humans)
    fields = ("unit_energy_w", "los", "pathloss_db", "shadow_db")
    by_target = {(r["realization"], r["beam_id"], r["target_id"]): [r[f] for f in fields]
                 for r in dump}
    linked = [(h.id, h.linked_user) for h in tiny_scenario.humans if h.linked_user]
    assert linked
    for real, beam, target in by_target:
        for hid, uid in linked:
            if target == hid:
                assert by_target[real, beam, hid] == by_target[real, beam, uid]
    sar = ev.metrics(tiny_solution).per_human_sar
    for h in tiny_scenario.humans:
        per_realization = []
        for real in range(ev.n_realizations):
            received = {}
            for r in rows:
                if r["realization"] == real and r["target_id"] == h.id:
                    f = r["frequency_hz"]
                    received[f] = (received.get(f, 0.0)
                                   + _beam_watts(tiny_solution, r["poa_id"]) * r["unit_energy_w"])
            fields = {f: incident_field(power_density(f, p)) for f, p in sorted(received.items())}
            per_realization.append(sar_wb(fields, tiny_scenario.phantoms[h.phantom_id],
                                          tiny_scenario.frequency_map))
        want = sum(per_realization) / len(per_realization)
        assert want > 0.0
        assert sar[h.id] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_world_without_humans_evaluates(tiny_scenario, tiny_solution):
    no_humans = replace(tiny_scenario, humans=())
    m = evaluate(tiny_solution, no_humans, seed=5, n_realizations=4)
    assert m.per_human_sar == {}
    with_humans = Evaluator(tiny_scenario, seed=5, n_realizations=4).metrics(tiny_solution)
    assert m.per_user_rate == with_humans.per_user_rate
    ev = Evaluator(no_humans, seed=5, n_realizations=4)
    assert ev.mean_rates(tiny_solution).tolist() == list(m.per_user_rate.values())
    assert ev.beam_gains(tiny_solution.beams[0]).shape == (4, len(no_humans.users))


def _linked_tiny_world(tiny_scenario, unlinked):
    """The tiny world with its unlinked humans replaced by ``unlinked`` of
    their own, so ``unlinked=()`` links every human."""
    return replace(tiny_scenario, humans=tuple(
        h for h in tiny_scenario.humans if h.linked_user is not None) + tuple(unlinked))


def _received_at_humans(monkeypatch, ev, solution):
    """Each frequency's received power [W] (humans, realizations) that
    ``metrics`` passes to ``power_density`` for ``solution``."""
    import cellless.radio_metrics as rm
    received, original = {}, rm.power_density

    def spy(frequency, p_rx):
        received[frequency] = p_rx
        return original(frequency, p_rx)

    monkeypatch.setattr(rm, "power_density", spy)
    ev.metrics(solution)
    monkeypatch.undo()
    return received


@pytest.mark.parametrize("world", ["tiny", "inf-dh-desk", "umi-sc-desk"])
def test_a_linked_human_receives_what_its_user_receives(monkeypatch, tiny_scenario,
                                                        tiny_solution, world):
    """A linked human stands on its user, and its link is its user's: under
    every live beam and in every realization its unit-power energy is its
    user's gain, and the power it receives per frequency is the sum over
    the live beams on that frequency of the beam's watts times that gain,
    added in row order."""
    if world == "tiny":
        scenario, solution = tiny_scenario, tiny_solution
    else:
        scenario = builtin_scenario(world, 2)
        solution = build_geometry(scenario, CtmConfig(seed=2))
    ev = Evaluator(scenario, 2, 3)
    linked = _linked_columns(scenario)
    assert linked and len(linked) < len(scenario.humans)
    n_users = len(scenario.users)
    stack = ev.stack(solution)
    live = [stack.beams[row] for row in stack.live.tolist()]
    watts = ev._watts(stack, solution.tx_power)[:, 0, 0]
    gains = np.array([ev.beam_gains(b) for b in live])  # (live, realizations, targets)
    for human, user in linked.items():
        assert gains[:, :, n_users + human].tobytes() == gains[:, :, user].tobytes()
    received = _received_at_humans(monkeypatch, ev, solution)
    frequency = np.array([scenario.poa_by_id(b.owner_poa).frequency for b in live])
    assert set(received) == set(frequency.tolist())
    for f, at_humans in received.items():
        at_user = np.add.reduce((watts[:, None, None] * gains)[frequency == f], axis=0)
        for human, user in linked.items():
            assert at_humans[human].tobytes() == at_user[:, user].tobytes()


def test_linked_humans_draw_no_humans_link(monkeypatch, tiny_scenario, tiny_solution):
    """A world whose humans are all linked never draws a humans-part link
    (``_Part.links`` of part 1), in a verdict or a dump, and its humans' SAR
    is theirs in the world with an unlinked human too, bit for bit. A world
    with no humans evaluates the same rates."""
    import cellless.radio_metrics as rm
    drawn, original = [], rm._Part.links

    def counted(part, *args):
        drawn.append(part.key[2])  # 0: a users part, 1: a humans part
        return original(part, *args)

    monkeypatch.setattr(rm._Part, "links", counted)
    all_linked = _linked_tiny_world(tiny_scenario, ())
    assert all_linked.humans and all(h.linked_user for h in all_linked.humans)
    ev = Evaluator(all_linked, 5, 4)
    sar = ev.metrics(tiny_solution).per_human_sar
    humans = [r for r in ev.dump_links(tiny_solution) if r["target_kind"] == "human"]
    assert humans and set(drawn) == {0}
    drawn.clear()
    bystander = Human("h-far", Position3D(30.0, 15.0, 1.5), "duke")
    want = Evaluator(_linked_tiny_world(tiny_scenario, [bystander]), 5, 4).metrics(
        tiny_solution).per_human_sar
    assert 1 in drawn  # the bystander's link is drawn from the humans part
    assert all(np.float64(sar[hid]).tobytes() == np.float64(want[hid]).tobytes() for hid in sar)
    no_humans = Evaluator(replace(tiny_scenario, humans=()), 5, 4).metrics(tiny_solution)
    assert no_humans.per_human_sar == {} and no_humans.per_user_rate == ev.metrics(
        tiny_solution).per_user_rate


@pytest.mark.parametrize("change, path", [
    (lambda h: replace(h, position=Position3D(h.position.x + 5.0, h.position.y, h.position.z)),
     "humans[0].position_m"),
    (lambda h: replace(h, linked_user="nobody"), "humans[0].linked_user")],
    ids=["off-its-user", "unknown-user"])
def test_a_bad_linked_human_is_refused_at_construction(tiny_scenario, change, path):
    """A world built in Python passes the scenario check that a loaded one
    passes: a linked human off its user, or linked to a user the world
    lacks, is refused when the world is built, at the human's field, so no
    Evaluator is made for it."""
    assert tiny_scenario.humans[0].linked_user is not None
    with pytest.raises(ValidationError) as err:
        replace(tiny_scenario, humans=(change(tiny_scenario.humans[0]),)
                + tiny_scenario.humans[1:])
    assert err.value.path == path


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


def test_evaluator_rejects_a_negative_seed_at_construction(tiny_scenario):
    """A negative seed keys no stream; it is refused when the Evaluator is
    made, not at its first fill."""
    with pytest.raises(ValueError, match="seed"):
        Evaluator(tiny_scenario, seed=-1, n_realizations=2)


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
    own_id = serving_beam(tiny_solution, uid).owner_poa
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
    t_idx = data.draw(st.integers(0, len(_targets(ev)) - 1))
    beam = BeamConfig("probe", poa.id, azimuth, zenith, width, frozenset({"u0"}))

    # A linked human's link is its user's; an unlinked human's is row
    # (its index among the humans) of the humans' stream.
    n_users = len(tiny_scenario.users)
    part, col = (0, t_idx) if t_idx < n_users else (1, t_idx - n_users)
    if part == 1 and col in _linked_columns(tiny_scenario):
        part, col = 0, _linked_columns(tiny_scenario)[col]
    link = one_link(poa.position.as_tuple(), poa.frequency,
                    _targets(ev)[t_idx].position.as_tuple(), tiny_scenario.channel_params,
                    (ev.seed, r, p_idx, part, col))
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
    """(violation code, solution) pairs that ``validate`` refuses on the tiny
    world: a listing that names something the scenario lacks, lists a beam
    where it does not belong or serves a user twice or not at all (a
    listing of no beams included, which ``evaluate`` stacks on a new
    Evaluator's stack of no beams); a live beam's width or zenith out of
    range; and a power that is missing, unknown, NaN or above its PoA's
    maximum."""
    b0, b1 = solution.beams[0], solution.beams[1]
    rest = solution.beams[1:]
    other = next(b.owner_poa for b in solution.beams if b.owner_poa != b0.owner_poa)
    listings = [
        ("unknown_beam", (replace(b0, beam_id="nope-b0"),) + rest),
        ("unknown_poa", (replace(b0, owner_poa="nope"),) + rest),
        ("unknown_user", (replace(b0, served_users=b0.served_users | {"u99"}),) + rest),
        ("wrong_owner", (replace(b0, owner_poa=other),) + rest),
        ("duplicate_beam", (b0, replace(b0, served_users=frozenset())) + rest),
        ("duplicate_beam", (b0, b1, b1) + solution.beams[2:]),
        ("multi_served_user", (b0, replace(b1, served_users=b0.served_users))
         + solution.beams[2:]),
    ] + [("beam_too_narrow", (replace(b0, width=width),) + rest)
         for width in (math.nan, 0.0, -0.1, math.radians(1.0))] + [
        ("bad_zenith", (replace(b0, zenith=zenith),) + rest) for zenith in (4.0, -0.1, math.nan)
    ] + [("unserved_user", (replace(b0, served_users=b0.served_users - {"u1"}),) + rest),
         ("unserved_user", ())]
    power = solution.tx_power
    return [(code, replace(solution, beams=beams)) for code, beams in listings] + [
        ("power_above_max", solution.with_power("poaA", 40.0)),
        ("bad_power", solution.with_power("poaB", math.nan)),
        ("missing_power", replace(solution, tx_power={"poaB": power["poaB"]})),
        ("unknown_poa", replace(solution, tx_power={**power, "poa99": 10.0})),
    ]


_REFUSED = ["unknown-beam", "unknown-owner", "unknown-user", "wrong-owner", "twice", "twice-live",
            "served-twice", "nan-width", "zero-width", "negative-width", "one-degree-width",
            "zenith-4", "negative-zenith", "nan-zenith", "unserved", "no-beams", "power-above-max",
            "nan-power", "missing-power", "power-of-unknown-poa", "serving-too-close"]


@pytest.fixture(scope="module")
def too_close():
    """``too_close_world(0)``, CtM's geometry on it with its moved user
    served by hand from the PoA 1 m away, by that PoA's first beam, and an
    Evaluator of it."""
    world = too_close_world(0)
    user = world.users[0]
    near = nearest_poa(world, user)
    geometry = build_geometry(world, CtmConfig(seed=0))
    beams = [replace(b, served_users=b.served_users - {user.id}) for b in geometry.beams]
    first = next(i for i, b in enumerate(beams) if b.owner_poa == near.id)
    beams[first] = replace(beams[first], served_users=beams[first].served_users | {user.id})
    return world, replace(geometry, beams=tuple(beams)), Evaluator(world, 0, 2)


@pytest.mark.parametrize("case", range(len(_REFUSED)), ids=_REFUSED)
def test_unknown_beams_owners_and_users_are_refused(request, tiny_scenario, tiny_solution, ev,
                                                    case):
    """A solution that ``validate`` refuses, one row per violation code:
    naming a beam, owner PoA or served user the scenario lacks, listing a
    beam twice or under a PoA that does not own it, serving a user by two
    beams or by none, giving a live beam a width below its PoA's minimum
    (NaN, non-positive or 1 degree) or a zenith outside [0, pi] (or NaN),
    giving a PoA a power that is missing, NaN or above its maximum, or a
    power to a PoA the scenario lacks, or serving a user from a PoA closer
    than the minimum serving distance, is refused by ``evaluate`` and by
    every view with the violations ``validate`` finds, instead of being
    evaluated as if it were legal or failing inside ``width_to_panel``."""
    if _REFUSED[case] == "serving-too-close":
        scenario, geometry, evaluator = request.getfixturevalue("too_close")
        code, wrong = "serving_too_close", geometry
    else:
        code, wrong = _wrong_listings(tiny_solution)[case]
        scenario, evaluator = tiny_scenario, ev
    assert tiny_solution.beams[0].active
    violations = validate(wrong, scenario)
    codes = {v.code for v in violations}
    assert code in codes
    for view in (lambda s: evaluate(s, scenario, evaluator.seed, evaluator.n_realizations),
                 evaluator.stack, evaluator.metrics, evaluator.mean_rates,
                 evaluator.unmet_floors, evaluator.least_powers, evaluator.dump_links):
        with pytest.raises(SolutionInvalidError) as info:
            view(wrong)
        assert code in {v.code for v in info.value.violations}
        assert info.value.violations == violations
        # An UnservedUserError exactly where a user is unserved.
        assert isinstance(info.value, UnservedUserError) == ("unserved_user" in codes)


@pytest.fixture(scope="module")
def mutation_worlds(tiny_scenario, tiny_solution):
    """World name -> (scenario, a legal solution on it, an Evaluator of it):
    the tiny world's hand-built solution and CtM's inf-dh-desk seed-1
    geometry. The Evaluators are shared by every example, so each view
    builds on the stack the last example left, refused or not."""
    desk = builtin_scenario("inf-dh-desk", 1)
    return {"tiny": (tiny_scenario, tiny_solution, Evaluator(tiny_scenario, 1, 2)),
            "inf-dh-desk": (desk, build_geometry(desk, CtmConfig(seed=1)), Evaluator(desk, 1, 2))}


def _mutated(data, scenario, solution):
    """``solution`` with one random change: a beam's zenith in [-1, 4] or NaN
    or its width in [-0.1, pi] or NaN; a PoA's power in [-inf, max + 10 dB]
    or NaN; a served user moved to another beam, dropped or also served by
    another beam; or a beam dropped or listed twice."""
    beams, power = list(solution.beams), dict(solution.tx_power)
    i = data.draw(st.integers(0, len(beams) - 1))
    kind = data.draw(st.sampled_from(["zenith", "width", "power", "move", "drop", "twice",
                                      "drop beam", "list twice"]))
    if kind in ("zenith", "width"):
        low, high = (-1.0, 4.0) if kind == "zenith" else (-0.1, math.pi)
        beams[i] = replace(beams[i], **{kind: data.draw(st.floats(low, high) | st.just(math.nan))})
    elif kind == "power":
        poa = data.draw(st.sampled_from(scenario.poas))
        power[poa.id] = data.draw(st.floats(max_value=poa.max_tx_power_dbm + 10.0)
                                  | st.just(math.nan))
    elif kind in ("move", "drop", "twice"):
        uid = data.draw(st.sampled_from(sorted(u.id for u in scenario.users)))
        j = next(k for k, b in enumerate(beams) if uid in b.served_users)
        k = data.draw(st.integers(0, len(beams) - 1).filter(lambda k: k != j))
        if kind != "twice":
            beams[j] = replace(beams[j], served_users=beams[j].served_users - {uid})
        if kind != "drop":
            beams[k] = replace(beams[k], served_users=beams[k].served_users | {uid})
    elif kind == "drop beam":
        del beams[i]
    else:
        beams.insert(data.draw(st.integers(0, len(beams))), beams[i])
    return SolutionState(tuple(beams), power)


@settings(deadline=None, max_examples=100)
@given(world=st.sampled_from(["tiny", "inf-dh-desk"]), data=st.data())
def test_every_view_answers_exactly_what_validate_passes(mutation_worlds, world, data):
    """One random change to a legal state: ``evaluate`` and every Evaluator
    view answer exactly when ``validate`` finds no violation, and else
    raise ``SolutionInvalidError`` with ``validate``'s violations."""
    scenario, solution, evaluator = mutation_worlds[world]
    state = _mutated(data, scenario, solution)
    violations = validate(state, scenario)
    event(f"{world}: {'refused' if violations else 'legal'}")
    for view in (lambda s: evaluate(s, scenario, evaluator.seed, evaluator.n_realizations),
                 evaluator.stack, evaluator.metrics, evaluator.mean_rates,
                 evaluator.unmet_floors, evaluator.least_powers, evaluator.dump_links):
        if not violations:
            view(state)
            continue
        with pytest.raises(SolutionInvalidError) as info:
            view(state)
        assert info.value.violations == violations


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
                              build_geometry(scenario, CtmConfig(seed=seed)))
    ev, sol = geometry_pool[key]
    shuffled = replace(sol, beams=tuple(data.draw(st.permutations(sol.beams))))
    want, got = ev.metrics(sol), ev.metrics(shuffled)
    for field in ("per_user_rate", "per_human_sar"):
        assert (np.array(list(getattr(got, field).values())).tobytes()
                == np.array(list(getattr(want, field).values())).tobytes())
    assert got.violated == want.violated


@settings(deadline=None, max_examples=300)
@given(per_beam=hnp.arrays(float, st.tuples(st.integers(0, 12), st.integers(0, 4),
                                            st.integers(0, 4)),
                           elements=st.floats(0.0, 1e300)))
@example(per_beam=np.zeros((0, 3, 2)))               # no live row
@example(per_beam=np.arange(6.0).reshape(1, 3, 2))   # one row
# One number a row, where numpy's pairwise sum would round the other way.
@example(per_beam=np.array([1.0] + [1e-16] * 9).reshape(10, 1, 1))
def test_row_sum_adds_the_rows_one_by_one_in_row_order(per_beam):
    """``_row_sum`` of a (rows, users, realizations) array of powers, each
    at least +0, is the sum of its rows added one by one in row order,
    byte for byte, whatever the shape: the order that keeps a rate's bits
    across beam listings. It rests on numpy's reduce over a C-ordered outer
    axis adding row by row and on its accumulate's last row matching that
    reduce."""
    want = np.zeros(per_beam.shape[1:])
    for row in per_beam:
        want = want + row
    got = _row_sum(per_beam)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The power core: every user view reads metrics()'s rates, and grouped fills
# equal one-beam kernel calls.

@pytest.mark.parametrize("realizations", [1, 2, 10])
@pytest.mark.parametrize("world, seed", [("inf-dh-desk", 2), ("umi-sc-desk", 0)])
def test_user_views_equal_metrics_bit_for_bit(world, seed, realizations):
    """``mean_rates``, each user's column of ``_terms`` and ``unmet_floors``
    read the very rates ``metrics`` does, also with one realization, where
    each user's interference is one number per beam."""
    scenario = builtin_scenario(world, seed)
    ev = Evaluator(scenario, seed, realizations)
    sol = build_geometry(scenario, CtmConfig(seed=seed))
    rates = ev.metrics(sol).per_user_rate
    assert ev.mean_rates(sol).tolist() == list(rates.values())
    for u in scenario.users:
        rate = _rate(ev, sol, u.id)
        assert float(rate.mean()) == rates[u.id]
        bandwidth = scenario.poa_by_id(serving_beam(sol, u.id).owner_poa).bandwidth
        signal, interference, noise, bw = _user_terms(ev, sol, [u.id])
        assert bw.tolist() == [bandwidth]
        assert noise.tolist() == [[NOISE_DENSITY_W_HZ * bandwidth]]
        sinr = signal[0] / (noise[0] + interference[0])
        assert np.array_equal(shannon_rate(bandwidth, sinr), rate)

    for above in (False, True):
        # Floors at each user's own rate are met; one ulp above, all missed.
        ev._rate_floor = {uid: math.nextafter(r, math.inf) if above else r
                          for uid, r in rates.items()}
        want = [f"rate:{u.id}" for u in scenario.users] if above else []
        assert ev.unmet_floors(sol) == want


def _assert_grouped_fills_equal_one_beam_kernel(monkeypatch, ev, beams):
    """Fill every beam's tables in one ``_tables`` call per part, then
    compare each part of each table byte for byte with a one-beam
    ``steered_energy`` call over the whole part. The fill computes one
    ``link_terms`` per block of each part, shared by all the part's beams."""
    calls = _count_link_terms_parts(monkeypatch, ev)
    for part in (0, 1):
        ev._tables([ev._key(b) for b in beams], part)
    monkeypatch.undo()
    parts = {(b.owner_poa, part) for b in beams for part in (0, 1)}
    assert len(parts) < 2 * len(beams)
    assert sorted(calls) == sorted(c for pid, part in parts for c in _first_fill(ev, pid, part))
    _assert_tables_equal_one_beam_kernel(ev, ev, beams)


def _assert_tables_equal_one_beam_kernel(ev, reference, beams):
    """Each part of each of ``ev``'s beam tables is byte for byte a one-beam
    ``steered_energy`` call over ``reference``'s links: the users' and the
    unlinked humans' over their part's links, and a linked human's column
    its user's."""
    n_users = len(ev.scenario.users)
    linked, unlinked = _linked_columns(ev.scenario), ev._unlinked
    for b in beams:
        table = ev.beam_gains(b)
        panel = reference._panels[b.owner_poa]
        geom = replace(panel, cols=width_to_panel(b.width, panel))
        steer = SteeringDirection(b.zenith, wrap_angle(b.azimuth - panel.mech_azimuth))
        users, humans = (reference._parts[b.owner_poa, part].links() for part in (0, 1))
        for links, part in ((users, table[:, :n_users]),
                            (humans, table[:, n_users + unlinked])):
            one = ch.steered_energy(ch.link_terms(links, geom), geom, steer)
            assert part.tobytes() == one.tobytes()
        for human, user in linked.items():
            assert table[:, n_users + human].tobytes() == table[:, user].tobytes()


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
    """20 realizations span two blocks of a desk world's users parts and of
    its humans parts (its 20 unlinked humans), the last of each short, on
    isotropic (inf-dh) and 3GPP 8 dBi (umi-sc) elements. The block-wise first fill,
    and then fills from kept per-block terms, equal one-beam kernel calls
    over the whole part byte for byte."""
    scenario = builtin_scenario(world, 1)
    beams = [b for b in build_geometry(scenario, CtmConfig(seed=1)).beams
             if b.active]
    ev = Evaluator(scenario, seed=1, n_realizations=20)
    for pid in {b.owner_poa for b in beams}:
        assert [len(ev._parts[pid, part].blocks()) for part in (0, 1)] == [2, 2]
    _assert_grouped_fills_equal_one_beam_kernel(monkeypatch, ev, beams)
    misses = _one_beam_misses(beams[0], 3)[1:]
    for humans in (False, True):
        for b in misses:
            _fill(ev, b, humans)
    assert _kept(ev) == {(beams[0].owner_poa, part) for part in (0, 1)}
    _assert_tables_equal_one_beam_kernel(ev, ev, misses)


def test_first_fill_peak_memory_is_flat_in_realizations():
    """A part's first fill holds the drawn links, link terms and steering
    temporaries of one block at a time. On umi-sc-desk, one PoA's beams over
    its users and its 20 unlinked humans: at 16 realizations the humans
    part is one whole block, at 64 it is four, and the traced peak of the
    fill stays within 10 %."""
    scenario = builtin_scenario("umi-sc-desk", 1)
    beams = _first_poa_beams(scenario)
    peaks = []
    for n_realizations in (16, 64):
        ev = Evaluator(scenario, seed=1, n_realizations=n_realizations)
        tracemalloc.start()
        try:
            for part in (0, 1):
                ev._tables([ev._key(b) for b in beams], part)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(ev._parts[beams[0].owner_poa, 1].blocks()) == n_realizations // 16
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
    """Links are kept as their streams' key alone and drawn one block at a
    time when a part fills, so on umi-sc-desk one ``evaluate`` at 64
    realizations peaks within 1.35 times its peak at 16, where each part is
    one whole block. After one ``metrics`` call, no part holds an array
    with a ray axis: every array it holds has at most two axes."""
    scenario = builtin_scenario("umi-sc-desk", 1)
    sol = build_geometry(scenario, CtmConfig(seed=1))
    peaks = []
    for n_realizations in (16, 64):
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
        assert record.shape == (8, record.paths.d_3d.shape[0])
        assert all(a.ndim <= 2 for a in _arrays(record))


def test_one_steering_workspace_per_evaluator(monkeypatch):
    """Every block of every fill, over both parts of every PoA, steers
    through the Evaluator's one ``FieldWork``, made with the Evaluator for
    the largest block of any part: a paper-scale ``metrics``
    (inf-dh-default, four blocks per part) and a full MaxRate solve on
    inf-dh-desk (the default annealer) make none after construction."""
    made, init = [], FieldWork.__init__

    def counted(self, size):
        made.append(self)
        init(self, size)

    monkeypatch.setattr(FieldWork, "__init__", counted)
    scenario = builtin_scenario("inf-dh-default", 1)
    solution = build_geometry(scenario, CtmConfig(seed=1))
    ev = Evaluator(scenario, 1, 10)
    assert made == [ev._work] and {len(p.blocks()) for p in ev._parts.values()} == {4}
    ev.metrics(solution)
    assert made == [ev._work]
    # 30,000 rays and the 300 direct paths of a block of three realizations.
    assert ev._work.size == max(p.largest_block() for p in ev._parts.values()) == 30_300
    desk = Evaluator(builtin_scenario("inf-dh-desk", 1), 1, 10)
    solve_maxrate(desk)
    assert made == [ev._work, desk._work]


# sha256 (first 16 hex digits) of the float64 bytes of the per_user_rate and
# per_human_sar values of ``evaluate`` at maximum power on CtM's geometry, in
# scenario order, with placement, channel and k-means seed 1 at 10
# realizations. Computed with cellless 0.7.1 on numpy 2.4.6; float bytes can
# differ on other numpy versions, so the numpy-floor CI job does not run this
# test.
_PINNED_EVALUATE = {
    "inf-dh-desk": ("b9cd104c077cbad3", "7cdf367e8976a299"),
    "umi-sc-desk": ("6240b6f7ad15b089", "226d8da8ffc5dcb1"),
    "inf-dh-default": ("ade0f0ddd8676847", "12b6fdde3f5f1a39"),
    "umi-sc-default": ("c66304385d59c81f", "1d36051dd1358150"),
}


@pytest.mark.parametrize("world", sorted(_PINNED_EVALUATE))
def test_evaluate_at_max_power_is_pinned(world):
    """Every built-in's rates and SARs keep their bits, whatever workspace
    the fills steer through."""
    scenario = builtin_scenario(world, 1)
    bundle = evaluate(build_geometry(scenario, CtmConfig(seed=1)), scenario, 1)

    def digest(values):
        return hashlib.sha256(np.array(values, dtype=float).tobytes()).hexdigest()[:16]

    assert (digest(list(bundle.per_user_rate.values())),
            digest(list(bundle.per_human_sar.values()))) == _PINNED_EVALUATE[world]


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
            links = len(range(record.n_realizations)[block]) * record.shape[1]
            assert terms.ray_shape == (len(range(record.n_realizations)[block]),
                                       record.shape[1], params.n_clusters, params.n_rays)
            assert terms.weight.shape == (links * (params.n_clusters * params.n_rays + 1),)
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
        ev._tables([ev._key(b)], 0)
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
            _fill(ev, b, humans)
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
    """inf-dh-desk with 2 realizations: a reference Evaluator, three CtM
    geometries whose active beams differ only in azimuth, and a memo of
    fresh Evaluators' views of them (``_fresh_view``)."""
    scenario = builtin_scenario("inf-dh-desk", 1)
    base = build_geometry(scenario, CtmConfig(seed=1))
    solutions = [replace(base, beams=tuple(replace(b, azimuth=wrap_angle(b.azimuth + 0.05 * k))
                                           for b in base.beams)) for k in range(3)]
    return Evaluator(scenario, seed=1, n_realizations=2), solutions, {}


def _table_key(ev, beam):
    """(PoA id, key of the beam's tables in that PoA's part records)."""
    panel = ev._panels[beam.owner_poa]
    return beam.owner_poa, (beam.zenith, beam.azimuth, width_to_panel(beam.width, panel))


def _cut(solution, cut):
    """``solution`` with the same beams tuple at power setting ``cut``: 0,
    every PoA at its maximum; 1, every PoA 6 dB lower; 2, every other PoA
    30 dB lower."""
    return replace(solution, tx_power={
        pid: dbm - (0.0, 6.0, 30.0 * (i % 2))[cut]
        for i, (pid, dbm) in enumerate(sorted(solution.tx_power.items()))})


def _bits(view):
    """A view's result as bytes (rates) or ``repr`` (floors, bundles)."""
    return view.tobytes() if isinstance(view, np.ndarray) else repr(view)


def _fresh_view(memo, scenario, name, solution, key):
    """``_bits`` of view ``name`` of ``solution`` on a fresh Evaluator, kept
    in ``memo`` under ``key``."""
    if key not in memo:
        memo[key] = _bits(getattr(Evaluator(scenario, seed=1, n_realizations=2), name)(solution))
    return memo[key]


call = st.one_of(
    st.tuples(st.just("beam_gains"), st.integers(0, 2), st.integers(0, 99), st.booleans()),
    st.tuples(st.sampled_from(["mean_rates", "unmet_floors", "metrics"]), st.integers(0, 2),
              st.integers(0, 2)))


@settings(deadline=None, max_examples=25)
@given(calls=st.lists(call, min_size=1, max_size=8))
def test_part_tables_under_random_calls(desk_pool, calls):
    """Random table fills and views (rates, floors, full verdicts) over
    solutions of other beams and powers, in any order, each stacked on the
    last stack the Evaluator built: every view has the bits of a fresh
    Evaluator's, and the part records hold exactly the tables read."""
    reference, solutions, memo = desk_pool
    ev = Evaluator(reference.scenario, seed=1, n_realizations=2)
    read, with_humans, views = {}, set(), []
    with pytest.MonkeyPatch.context() as mp:
        terms_calls = _count_link_terms_parts(mp, ev)
        for name, k, *args in calls:
            active = [b for b in solutions[k].beams if b.active]
            if name == "beam_gains":
                beam, humans = active[args[0] % len(active)], args[1]
                _fill(ev, beam, humans)
                beams = [beam]
            else:
                solution = _cut(solutions[k], args[0])
                views.append((name, solution, (name, k, args[0]),
                              _bits(getattr(ev, name)(solution))))
                beams, humans = active, name == "metrics"
            for b in beams:
                read[_table_key(ev, b)] = b
                if humans:
                    with_humans.add(_table_key(ev, b))
    n_targets = (len(ev.scenario.users), len(ev._unlinked))
    for (pid, part), record in ev._parts.items():
        for table in record.tables.values():
            assert table.shape == (2, n_targets[part])
        assert set(record.tables) == {key for p, key in (read if part == 0 else with_humans)
                                      if p == pid}
        n_blocks = len(_first_fill(ev, pid, part))
        assert terms_calls.count((pid, _PART_NAMES[part])) in (0, n_blocks, 2 * n_blocks)
    _assert_tables_equal_one_beam_kernel(ev, reference, list(read.values()))
    for name, solution, key, bits in views:
        assert bits == _fresh_view(memo, ev.scenario, name, solution, key), key
    fresh = Evaluator(reference.scenario, seed=1, n_realizations=2)
    for sol in solutions:
        assert repr(ev.metrics(sol)) == repr(fresh.metrics(sol))


def test_evaluate_and_solve_ctm_keep_no_terms(monkeypatch):
    """``evaluate``, ``solve_ctm`` and ``dump_links`` each fill every part
    once, so they keep no terms. A dump on the Evaluator that ``solve_ctm``
    judged the solution on builds no stack and fills no table, and equals a
    fresh Evaluator's dump."""
    import cellless.radio_metrics as rm
    import cellless.solver_ctm as solver_ctm

    made = []

    class Recorded(Evaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(rm, "Evaluator", Recorded)
    scenario = builtin_scenario("inf-dh-desk", 1)
    config = CtmConfig(seed=1)
    evaluate(build_geometry(scenario, config), scenario, 1, n_realizations=4)
    solution, _ = solver_ctm.solve_ctm(Recorded(scenario, 1, 4))
    solved = made[-1]
    tables = {key: list(record.tables) for key, record in solved._parts.items()}
    stacks, stack = [], rm.GainStack
    monkeypatch.setattr(rm, "GainStack",
                        lambda *fields: stacks.append(stack(*fields)) or stacks[-1])
    dump = solved.dump_links(solution)
    monkeypatch.setattr(rm, "GainStack", stack)
    assert stacks == []
    assert {key: list(record.tables) for key, record in solved._parts.items()} == tables
    assert dump == rm.Evaluator(scenario, 1, n_realizations=4).dump_links(solution)
    assert len(made) == 3
    for ev in made:
        assert any(record.tables for record in ev._parts.values()) and _kept(ev) == set()


def test_nan_floor_or_ceiling_is_a_violation(tiny_scenario, tiny_solution):
    """Floors and ceilings fail closed: a NaN floor or SAR limit is never
    met. A world refuses both when it is built, so each is set past that
    check, in a world already built."""
    base = Evaluator(tiny_scenario, 5, 4).metrics(tiny_solution).violated
    nan_user = replace(tiny_scenario.users[0])
    world = replace(tiny_scenario, users=(nan_user,) + tiny_scenario.users[1:])
    object.__setattr__(nan_user, "required_rate", math.nan)
    nan_floor = Evaluator(world, 5, 4)
    violated = nan_floor.metrics(tiny_solution).violated
    assert set(violated) == set(base) | {"rate:u0"}
    assert nan_floor.unmet_floors(tiny_solution) == [
        v for v in violated if v.startswith("rate:")]
    world = replace(tiny_scenario)
    object.__setattr__(world, "sar_limit", math.nan)
    nan_limit = Evaluator(world, 5, 4)
    assert [v for v in nan_limit.metrics(tiny_solution).violated
            if v.startswith("sar:")] == ["sar:h0", "sar:h1"]
