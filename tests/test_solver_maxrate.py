"""MaxRate simulated annealing: moves, objective, and determinism."""

import hashlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from cellless.antenna import wrap_angle
from cellless.radio_metrics import Evaluator, UnservedUserError
from cellless.scenario import EndUser, Position3D
from cellless.solution import validate
from cellless.solver_ctm import CtmConfig, build_geometry, solve_ctm
from cellless.solver_maxrate import (ANGLE_STEP, POWER_STEP_DB, WIDTH_STEP, AnnealConfig,
                                     move_power, move_reassign, move_steering, move_width,
                                     neighbor, objective, solve_maxrate)

from conftest import (make_poa, make_tiny_scenario, nearest_poa, serve_all_solution,
                      serving_beam, too_close_world)


@pytest.fixture(scope="module")
def start(tiny_scenario):
    return build_geometry(tiny_scenario, CtmConfig(seed=0))


@pytest.fixture(scope="module")
def ev(tiny_scenario):
    return Evaluator(tiny_scenario, seed=0, n_realizations=4)


def test_objective_is_min_mean_rate(tiny_scenario, start, ev):
    obj = objective(start, ev)
    rates = ev.mean_rates(start)
    assert rates.shape == (len(tiny_scenario.users),)
    assert type(obj) is float and obj == min(rates.tolist())


def test_objective_minus_inf_when_unserved(tiny_scenario, start, ev):
    """An unserved user has no rate to score: the objective raises, as
    every rate view does, instead of returning -inf."""
    beams = tuple(replace(b, served_users=frozenset()) for b in start.beams)
    with pytest.raises(UnservedUserError):
        objective(replace(start, beams=beams), ev)


def _small_world(data):
    """A random world of 1-3 PoAs with 1-3 beams each and 0-7 users, no
    humans, and CtM's geometry on it."""
    poas = tuple(make_poa(f"p{i}", data.draw(st.floats(1.0, 39.0)),
                          data.draw(st.floats(1.0, 19.0)), n_beams=data.draw(st.integers(1, 3)),
                          rows=4, cols=4)
                 for i in range(data.draw(st.integers(1, 3))))
    spot = st.builds(Position3D, st.floats(0.0, 40.0), st.floats(0.0, 20.0), st.just(1.5))
    users = tuple(EndUser(f"u{i}", data.draw(spot), 1e6)
                  for i in range(data.draw(st.integers(0, 7))))
    scenario = replace(make_tiny_scenario(), poas=poas, users=users, humans=())
    return scenario, build_geometry(scenario, CtmConfig(seed=data.draw(st.integers(0, 3))))


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_neighbor_chains_serve_each_user_exactly_once(data):
    """Why the objective needs no unserved case: on random small worlds,
    ``build_geometry`` serves each user with exactly one beam, and so does
    every state a chain of ``neighbor`` moves reaches from it."""
    scenario, sol = _small_world(data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    want = Counter(u.id for u in scenario.users)
    for _ in range(data.draw(st.integers(0, 80))):
        assert Counter(uid for b in sol.beams for uid in b.served_users) == want
        sol = neighbor(sol, scenario, rng)
    assert Counter(uid for b in sol.beams for uid in b.served_users) == want


def _table_count(ev):
    return sum(len(record.tables) for record in ev._parts.values())


def _count_keys(mp):
    """The beams keyed from now on: each ``width_to_panel`` call of the
    Evaluator's gain-table key, recorded through ``mp``."""
    import cellless.radio_metrics as radio_metrics

    keyed, key = [], radio_metrics.width_to_panel
    mp.setattr(radio_metrics, "width_to_panel",
               lambda width, panel: keyed.append(width) or key(width, panel))
    return keyed


def _count_reads(mp):
    """The (PoA id, key) of each users table that ``Evaluator.stack``
    reads from now on: its ``_tables`` calls, recorded through ``mp``."""
    reads, stacking = [], []
    stack, tables = Evaluator.stack, Evaluator._tables

    def stacked(self, solution):
        stacking.append(solution)
        try:
            return stack(self, solution)
        finally:
            stacking.pop()

    def read(self, keys, part):
        if stacking:
            reads.extend(keys)
        return tables(self, keys, part)

    mp.setattr(Evaluator, "stack", stacked)
    mp.setattr(Evaluator, "_tables", read)
    return reads


def _count_terms(mp):
    """The stack of each ``Evaluator._terms`` call from now on, one per
    rate computation, recorded through ``mp``."""
    computed, terms = [], Evaluator._terms
    mp.setattr(Evaluator, "_terms",
               lambda self, stack, watts: computed.append(stack) or terms(self, stack, watts))
    return computed


#: The ``GainStack`` fields that say which rows are live and serve whom.
_SERVICE = ("live", "poa_of_beam", "share", "serving", "interferers", "bandwidth", "noise")


def _fresh(ev):
    """A new Evaluator of ``ev``'s world and channels, sharing nothing with
    it: its first stack is built on its stack of no beams, from tables it
    fills itself."""
    return Evaluator(ev.scenario, ev.seed, ev.n_realizations)


def _rates_of(ev, stack, solution):
    """``mean_rates`` of ``solution`` read from ``stack``, a stack of its
    very beam objects: made the Evaluator's last stack, it is the stack
    that ``mean_rates`` reads. The last stack is restored after, so the
    chain of builds under test is left as it was."""
    last, ev._last = ev._last, stack
    try:
        assert ev.stack(solution) is stack
        return ev.mean_rates(solution)
    finally:
        ev._last = last


def _assert_equals_fresh_stack(ev, stack, solution):
    """``stack`` has the live and serving rows, power shares, per-user
    co-channel masks, bandwidths and noise, live-row bytes and
    ``mean_rates`` bits of a fresh Evaluator's users stack."""
    fresh_ev = _fresh(ev)
    fresh = fresh_ev.stack(solution)
    for name in _SERVICE:
        assert getattr(stack, name).tobytes() == getattr(fresh, name).tobytes(), name
    assert stack.beams == fresh.beams
    assert stack.gains[stack.live].tobytes() == fresh.gains[fresh.live].tobytes()
    assert (_rates_of(ev, stack, solution).tobytes()
            == fresh_ev.mean_rates(solution).tobytes())


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_a_stack_built_on_the_last_one_equals_a_fresh_stack(data):
    """One row per move: along an anneal-like chain of moves of all four
    kinds and of relistings on a random small world, each accepted or
    rejected, the users stack of the candidate, built on the last stack the
    Evaluator built (a rejected candidate's included), equals a fresh
    Evaluator's, and the current state's stack still equals one of the
    current state. A relisting lists the last stack's beam objects again,
    permuted or without one idle beam, so it keys nothing and reads
    nothing: every listing takes one path to the rows. It keys
    (``width_to_panel``) exactly the active beams that are not objects of
    the last stack built, those the move replaced and, after a rejection,
    those the rejected move had replaced, and reads the users tables of
    those whose key is not the one their row holds there (not a reassign's
    beams, nor a width clamped at a bound). With none read, as after every
    power move and every move on an idle beam that follows an accepted
    one, it fills nothing and shares the last gains; so does a reassign
    after an accepted move that wakes no beam, whose keys match those of
    the last stack, a stack of the current state's beams."""
    scenario, sol = _small_world(data)
    ev = Evaluator(scenario, data.draw(st.integers(0, 3)), data.draw(st.integers(1, 2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    moves = (lambda s: move_power(s, scenario, rng, POWER_STEP_DB),
             lambda s: move_steering(s, scenario, rng, ANGLE_STEP),
             lambda s: move_width(s, scenario, rng, WIDTH_STEP),
             lambda s: move_reassign(s, scenario, rng),
             lambda s: _relisted(built, rng))
    with pytest.MonkeyPatch.context() as mp:
        keyed, reads = _count_keys(mp), _count_reads(mp)
        current = ev.stack(sol)
        built, last = sol, current  # the last stack built and its solution
        steps = st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=25)
        for kind, accepted in data.draw(steps):
            cand = moves[kind](sol)
            moved = [b for b in cand.beams
                     if b.active and all(b is not old for old in sol.beams)]
            replaced = [b for b in cand.beams
                        if b.active and all(b is not old for old in built.beams)]
            new = [b for b in replaced
                   if ev._key(b) != last.keys[ev._row_of[b.beam_id]]]
            assert kind != 0 or not moved
            assert kind != 4 or not replaced
            if built.beams is not sol.beams:
                event("built on a rejected candidate's stack")
            del keyed[:], reads[:]
            tables = _table_count(ev)
            stack = ev.stack(cand)
            assert len(keyed) == len(replaced) and len(reads) == len(new)
            if not new:
                assert _table_count(ev) == tables
                assert stack.gains is last.gains
            if kind == 3 and stack.live.tolist() != current.live.tolist():
                event("a reassign woke or idled a beam")
            if (kind == 3 and built.beams is sol.beams
                    and set(stack.live.tolist()) <= set(current.live.tolist())):
                assert stack.gains is last.gains  # no beam woke: no table is read
            _assert_equals_fresh_stack(ev, stack, cand)
            _assert_equals_fresh_stack(ev, current, sol)
            if stack is not last:
                built, last = cand, stack
            if accepted:
                sol, current = cand, stack


def _relisted(solution, rng):
    """``solution`` with its beam objects listed in a random order, or
    without one of its idle beams, chosen by ``rng``. The last beam listed
    stays: a scenario has at least one beam, so no state the solvers reach
    lists none, and a move on such a listing has no beam to draw."""
    beams = list(solution.beams)
    idle = [i for i, b in enumerate(beams) if not b.active]
    if idle and len(beams) > 1 and rng.random() < 0.5:
        event("a relisting dropped an idle beam")
        del beams[idle[rng.integers(len(idle))]]
    else:
        beams = [beams[i] for i in rng.permutation(len(beams))]
    return replace(solution, beams=tuple(beams))


def _with_beams(solution, changes):
    """``solution`` with each beam in ``changes`` (old -> new) replaced."""
    return replace(solution, beams=tuple(changes.get(b, b) for b in solution.beams))


#: The scripted moves that change no live row: their rates are the last ones.
_KEEPS = (1, 2, 5, 6)


def _scripted_move(sol, scenario, kind, pick):
    """A move that random chains meet only now and then, or None where the
    state offers none: 1, steering an idle beam; 2, a power step on a PoA
    at its maximum, which clamps; 3, a reassign onto an idle beam; 4, a
    reassign of a beam's only user, which empties it; 5, a power step down
    on a PoA with no live beam; 6, a width step of a live beam past the
    bound it sits at, which clamps; 7, a live beam narrowed to its PoA's
    minimum width, where ``move_width`` clamps it."""
    idle = [b for b in sol.beams if not b.active]
    served = [b for b in sol.beams if b.active]
    if kind == 5:
        unlit = [p.id for p in scenario.poas if p.id not in sol.active_poas()
                 and sol.tx_power[p.id] != -math.inf]
        if not unlit:
            return None
        pid = unlit[pick % len(unlit)]
        return sol.with_power(pid, sol.tx_power[pid] - POWER_STEP_DB)
    if kind in (6, 7):
        wmin = {p.id: p.min_beam_width for p in scenario.poas}
        bound = [b for b in served if b.width in (wmin[b.owner_poa], math.pi)]
        beams = bound if kind == 6 else served
        if not beams:
            return None
        beam = beams[pick % len(beams)]
        if kind == 7:
            return _with_beams(sol, {beam: replace(beam, width=wmin[beam.owner_poa])})
        step = -WIDTH_STEP if beam.width == wmin[beam.owner_poa] else WIDTH_STEP
        width = min(math.pi, max(wmin[beam.owner_poa], beam.width + step))
        return _with_beams(sol, {beam: replace(beam, width=width)})
    if kind == 1:
        if not idle:
            return None
        beam = idle[pick % len(idle)]
        turned = replace(beam, azimuth=wrap_angle(beam.azimuth + ANGLE_STEP))
        return _with_beams(sol, {beam: turned})
    if kind == 2:
        at_max = [p for p in scenario.poas if sol.tx_power[p.id] == p.max_tx_power_dbm]
        if not at_max:
            return None
        poa = at_max[pick % len(at_max)]
        raised = min(poa.max_tx_power_dbm, sol.tx_power[poa.id] + POWER_STEP_DB)
        return sol.with_power(poa.id, raised)
    if kind == 3:
        if not idle or not served:
            return None
        src, dst = served[pick % len(served)], idle[pick % len(idle)]
    else:
        singles = [b for b in served if len(b.served_users) == 1]
        if not singles or len(sol.beams) < 2:
            return None
        src = singles[pick % len(singles)]
        others = [b for b in sol.beams if b is not src]
        dst = others[pick % len(others)]
    uid = min(src.served_users)
    return _with_beams(sol, {src: replace(src, served_users=src.served_users - {uid}),
                             dst: replace(dst, served_users=dst.served_users | {uid})})


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_a_kept_or_built_on_score_equals_a_fresh_objective(data):
    """Along a chain of random ``neighbor`` moves and scripted ones, each
    accepted or rejected, every candidate is scored by ``objective`` as
    ``solve_maxrate`` scores it: on the last stack the Evaluator built, so
    after a rejection on the rejected candidate's. The score equals a fresh
    Evaluator's ``objective`` of the candidate, and the candidate's stack
    has the mean rates' bytes, live rows, service and gains of a fresh
    Evaluator's. A scripted move that changes no live row (``_KEEPS``: an
    idle beam steered, a clamped power step, a power step on a PoA with no
    live beam, a clamped width step of a live beam) computes no rates
    (``_terms``) and returns the very last rates array whenever the last
    rates were computed from the arrays a stack of the current state holds:
    after an accepted move, after such a scripted move, and after a move
    that computed nothing while they were. Asking again for a scored
    state's rates computes nothing either."""
    scenario, sol = _small_world(data)
    ev = Evaluator(scenario, data.draw(st.integers(0, 3)), data.draw(st.integers(1, 2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rates, warm = ev.mean_rates(sol), True
    steps = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 99), st.booleans()), max_size=30)
    with pytest.MonkeyPatch.context() as mp:
        computed = _count_terms(mp)
        for kind, pick, accepted in data.draw(steps):
            cand = (neighbor(sol, scenario, rng) if kind == 0
                    else _scripted_move(sol, scenario, kind, pick))
            if cand is None:
                continue
            del computed[:]
            cand_obj = objective(cand, ev)
            kept = not computed
            got = ev.mean_rates(cand)
            assert len(computed) <= 1 and (got is rates) == kept
            event(f"kind {kind}, {'kept' if kept else 'computed'}")
            if kind in _KEEPS and warm:
                assert kept
            fresh_ev = _fresh(ev)
            fresh_obj = objective(cand, fresh_ev)
            assert np.float64(cand_obj).tobytes() == np.float64(fresh_obj).tobytes()
            stack, fresh = ev.stack(cand), fresh_ev.stack(cand)
            assert got.tobytes() == fresh_ev.mean_rates(cand).tobytes()
            for name in _SERVICE:
                assert getattr(stack, name).tobytes() == getattr(fresh, name).tobytes(), name
            assert stack.gains[stack.live].tobytes() == fresh.gains[fresh.live].tobytes()
            rates, warm = got, accepted or kind in _KEEPS or (warm and kept)
            if accepted:
                sol = cand


def test_a_move_that_changes_no_live_row_reuses_the_last_rates(tiny_scenario, monkeypatch):
    """On a state where poaB has no live beam and poaA, at its maximum
    power, has a live beam at its minimum width, four moves change no live
    row: steering an idle beam, a clamped power step, a power step on poaB
    and a clamped width step. Each computes no rates (``_terms``) and
    ``mean_rates`` returns the very array it returned for the state. Any
    live row's new gains (a steer) or new watts (a power step of its PoA)
    computes them again, with a fresh Evaluator's bits. The array is
    read-only."""
    ev = Evaluator(tiny_scenario, seed=0, n_realizations=2)
    sol = serve_all_solution(tiny_scenario).with_power("poaA", 30.0)
    b0, b1, c0, c1 = sol.beams  # poaA-b0 (u0, u1), poaA-b1 (idle), poaB-b0 (u2), poaB-b1
    sol = _with_beams(sol, {b1: replace(b1, served_users=frozenset({"u2"})),
                            c0: replace(c0, served_users=frozenset())})
    b1 = sol.beams[1]
    assert sol.active_poas() == ["poaA"] and b1.width == math.radians(5.0)
    rates = ev.mean_rates(sol)
    assert not rates.flags.writeable
    with pytest.raises(ValueError):
        rates[0] = 0.0
    keeps = [_with_beams(sol, {c1: replace(c1, azimuth=wrap_angle(c1.azimuth + ANGLE_STEP))}),
             sol.with_power("poaA", min(30.0, 30.0 + POWER_STEP_DB)),
             sol.with_power("poaB", 20.0 - POWER_STEP_DB),
             _with_beams(sol, {b1: replace(b1, width=max(math.radians(5.0), b1.width - WIDTH_STEP))})]
    computed = _count_terms(monkeypatch)
    for cand in keeps:
        assert ev.mean_rates(cand) is rates and objective(cand, ev) == rates.min()
    assert not computed
    changes = [_with_beams(sol, {b: replace(b, azimuth=wrap_angle(b.azimuth + ANGLE_STEP))})
               for b in (b0, b1)] + [sol.with_power("poaA", 30.0 - POWER_STEP_DB)]
    for cand in changes + [sol]:
        del computed[:]
        got = ev.mean_rates(cand)
        assert len(computed) == 1 and got is not rates and not got.flags.writeable
        assert got.tobytes() == _fresh(ev).mean_rates(cand).tobytes()
    assert got.tobytes() == rates.tobytes()


def test_a_reassign_that_wakes_one_beam_and_idles_another_keys_one_row(tiny_scenario):
    """Moving u2 from poaB's only live beam to poaA's idle one idles the
    first row and wakes the second: only the woken row is keyed and read,
    and the stack equals a fresh one."""
    ev = Evaluator(tiny_scenario, seed=0, n_realizations=2)
    sol = serve_all_solution(tiny_scenario)
    base = ev.stack(sol)
    moved = replace(sol, beams=tuple(
        replace(b, served_users=b.served_users ^ {"u2"})
        if b.beam_id in (serving_beam(sol, "u2").beam_id, "poaA-b1") else b for b in sol.beams))
    with pytest.MonkeyPatch.context() as mp:
        keyed = _count_keys(mp)
        stack = ev.stack(moved)
    assert len(keyed) == 1
    fresh_ev = _fresh(ev)
    fresh = fresh_ev.stack(moved)
    assert stack.live.tolist() == fresh.live.tolist() == [0, 1]  # poaA's two beams
    assert base.live.tolist() == [0, 2]
    assert stack.serving.tolist() == fresh.serving.tolist() == [0, 0, 1]
    assert stack.gains[stack.live].tobytes() == fresh.gains[fresh.live].tobytes()
    assert ev.mean_rates(moved).tobytes() == fresh_ev.mean_rates(moved).tobytes()


def test_an_anneal_move_keys_at_most_two_rows_per_objective(monkeypatch):
    """Over a short anneal on inf-dh-desk, every move is scored by
    ``objective``, and each objective call keys at most two beams on
    average (``width_to_panel``; about 16 when every stack re-keyed every
    live beam): those its move changed and, after a rejection, those the
    rejected move changed. Fewer calls compute rates (``_terms``) than
    score a state: a move that changes no live row reuses the last rates.
    The anneal fills the very tables, and ends in the very state, of one
    that scores every move on a stack made afresh, which computes the rates
    of every move."""
    import cellless.solver_maxrate as solver_maxrate
    from cellless.scenario import builtin_scenario

    scenario = builtin_scenario("inf-dh-desk", 0)
    cfg = AnnealConfig(iterations=10, moves_per_temp=10)
    keyed, calls, made = _count_keys(monkeypatch), [], []
    computed = _count_terms(monkeypatch)
    scored = solver_maxrate.objective

    class Recorded(Evaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    def counted(solution, evaluator):
        before = len(keyed)
        out = scored(solution, evaluator)
        calls.append(len(keyed) - before)
        return out

    monkeypatch.setattr(solver_maxrate, "objective", counted)
    best, bundle = solve_maxrate(Recorded(scenario, 0, 2), cfg)
    assert len(calls) == 1 + 100 + 100   # the start, the calibration probes and moves
    assert sum(calls) <= 2 * len(calls)
    assert len(computed) < len(calls)

    def afresh(solution, evaluator):
        evaluator._last = evaluator._no_beams  # the stack of no beams: a stack made afresh
        return scored(solution, evaluator)

    monkeypatch.setattr(solver_maxrate, "objective", afresh)
    del computed[:]
    fresh_best, fresh = solve_maxrate(Recorded(scenario, 0, 2), cfg)
    assert len(computed) == len(calls) + 1   # and the best state's verdict
    assert best == fresh_best
    assert bundle.per_user_rate == fresh.per_user_rate
    tables = [{k: set(record.tables) for k, record in ev._parts.items()} for ev in made]
    assert tables[0] == tables[1]


#: The first 16 hex digits of the sha256 of ``repr`` of the trace of the
#: default 200x20 anneal on inf-dh-desk, placed and drawn with seed s on 10
#: realizations: all 4,000 (step, move, current, best, accepted) tuples.
#: Pinned when a move that changed no live row kept the current score
#: without an ``objective`` call, which then made 2,634 calls on seed 0.
#: Seed 1 is cellless 0.7.1's: its first state, CtM's geometry, steers by
#: the links' azimuths since then.
_PINNED_ANNEAL_TRACES = {0: "70028ebdc5b8c0e0", 1: "4199dfe5d1b32d2f", 2: "65f8a14cd36a689a"}


@pytest.mark.parametrize("seed", sorted(_PINNED_ANNEAL_TRACES))
def test_the_default_anneal_keeps_its_pinned_trace(seed, monkeypatch):
    """Scoring every move through ``objective`` moves no bit of the
    default anneal's trace, and on seed 0 it computes rates (``_terms``,
    the best state's verdict included) no more often than ``objective``
    ran when it was skipped for moves that change no live row."""
    from cellless.scenario import builtin_scenario

    computed, trace = _count_terms(monkeypatch), []
    solve_maxrate(Evaluator(builtin_scenario("inf-dh-desk", seed), seed), AnnealConfig(),
                  trace=trace)
    assert len(trace) == 200 * 20
    assert hashlib.sha256(repr(trace).encode()).hexdigest()[:16] == _PINNED_ANNEAL_TRACES[seed]
    assert seed or len(computed) <= 2634


def test_an_anneal_reads_each_users_table_only_where_a_rows_key_changed(monkeypatch):
    """On the 10x10 inf-dh-desk anneal, ``Evaluator.stack`` keys every
    changed live row and reads its users table only where the key is not
    the one the row already holds. A reassign gives both beams it touches
    new objects of their old geometry, so it reads neither: the solve's
    stacks read 100 users tables, 60 of them distinct."""
    from cellless.scenario import builtin_scenario

    reads = _count_reads(monkeypatch)
    solve_maxrate(Evaluator(builtin_scenario("inf-dh-desk", 0), 0, 2),
                  AnnealConfig(iterations=10, moves_per_temp=10))
    assert len(reads) == 100 and len(set(reads)) == 60


def test_moves_preserve_legality(tiny_scenario, start):
    rng = np.random.default_rng(1)
    sol = start
    for _ in range(200):
        sol = neighbor(sol, tiny_scenario, rng)
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maxrate_serves_no_user_too_close(seed):
    """On a world with a user 1 m from its nearest PoA, under the minimum
    serving distance, a reassign draws its target only among the beams
    whose PoA may serve the user, so every state stays legal and a solve
    completes; with the distance at 0 m the same draws reach that PoA."""
    world = too_close_world(seed)
    user, near = world.users[0].id, nearest_poa(world, world.users[0]).id
    for scenario in (world, replace(world, min_poa_user_distance=0.0)):
        state, rng = build_geometry(world, CtmConfig(seed=seed)), np.random.default_rng(1)
        owners = set()
        for _ in range(2000):
            state = move_reassign(state, scenario, rng)
            owners.add(serving_beam(state, user).owner_poa)
            assert scenario is not world or validate(state, world) == []
        assert (near in owners) is (scenario is not world)
    best, _ = solve_maxrate(Evaluator(world, seed, 2), AnnealConfig(iterations=3, moves_per_temp=5))
    assert validate(best, world) == []


def test_solve_maxrate_improves_or_keeps_min_rate(tiny_scenario, start, ev):
    cfg = AnnealConfig(iterations=15, moves_per_temp=5)
    sol, bundle = solve_maxrate(Evaluator(tiny_scenario, 0, 4), cfg)
    assert validate(sol, tiny_scenario) == []
    assert bundle.min_rate >= objective(start, ev)


def test_solve_maxrate_deterministic(tiny_scenario):
    """Deterministic on two Evaluators of one world: the anneal reads its
    seed from the Evaluator."""
    cfg = AnnealConfig(iterations=8, moves_per_temp=4)
    s1, m1 = solve_maxrate(Evaluator(tiny_scenario, 3, 3), cfg)
    s2, m2 = solve_maxrate(Evaluator(tiny_scenario, 3, 3), cfg)
    assert s1.tx_power == s2.tx_power
    assert m1.per_user_rate == m2.per_user_rate


def test_anneal_with_kept_terms_equals_anneal_without(monkeypatch):
    """Kept link terms change no bit of an anneal: the best solution and its
    rates equal those of the same anneal recomputing the terms on every
    miss, which it does many more times."""
    import cellless.radio_metrics as radio_metrics
    from cellless import channel as ch
    from cellless.scenario import builtin_scenario

    scenario = builtin_scenario("inf-dh-desk", 1)
    cfg = AnnealConfig(iterations=20, moves_per_temp=10)
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
        def fill(self, keys, panel, work):
            super().fill(keys, panel, work)
            self.kept.clear()

    monkeypatch.setattr(ch, "link_terms", spy)
    kept_sol, kept = solve_maxrate(Recorded(scenario, 1, 4), cfg)
    kept_calls = len(calls)
    assert any(record.kept for record in made[0]._parts.values())

    monkeypatch.setattr(radio_metrics, "_Part", TermsNeverStick)
    del calls[:]
    sol, bundle = solve_maxrate(Recorded(scenario, 1, 4), cfg)
    assert kept_calls < len(calls)
    assert kept_sol == sol
    assert kept.per_user_rate == bundle.per_user_rate
    assert kept.per_human_sar == bundle.per_human_sar


def test_one_evaluator_serves_both_solvers_in_either_order():
    """An Evaluator's answers depend on its world alone, not on what it
    scored before: on one inf-dh-desk Evaluator, CtM then MaxRate and
    MaxRate then CtM each end in the best state and bundle of that solver on
    a fresh Evaluator."""
    from cellless.scenario import builtin_scenario

    scenario = builtin_scenario("inf-dh-desk", 1)
    cfg = AnnealConfig(iterations=20, moves_per_temp=10)
    solvers = {"ctm": solve_ctm, "maxrate": lambda ev: solve_maxrate(ev, cfg)}
    fresh = {name: solve(Evaluator(scenario, 1, 2)) for name, solve in solvers.items()}
    for order in (("ctm", "maxrate"), ("maxrate", "ctm")):
        ev = Evaluator(scenario, 1, 2)
        for name in order:
            best, bundle = solvers[name](ev)
            assert best == fresh[name][0], order
            assert repr(bundle) == repr(fresh[name][1]), order


@pytest.mark.parametrize("config, name, value", [
    (CtmConfig, "seed", 1.5), (CtmConfig, "seed", True), (CtmConfig, "seed", "1"),
    (CtmConfig, "realizations_per_check", 2.5),
    (CtmConfig, "realizations_per_check", 0), (AnnealConfig, "iterations", 2.5),
    (AnnealConfig, "iterations", True), (AnnealConfig, "iterations", np.float64(0.5)),
    (AnnealConfig, "iterations", "3"), (AnnealConfig, "moves_per_temp", 1.5),
    (AnnealConfig, "moves_per_temp", np.bool_(True)), (AnnealConfig, "moves_per_temp", 0)])
def test_solver_configs_refuse_non_integral_counts_naming_the_field(config, name, value):
    """A fraction, a boolean or a non-number as a seed or count, or no
    realizations per check or moves per temperature, is refused when the
    config is built, naming the field, instead of failing every run of an
    experiment later."""
    with pytest.raises(ValueError, match=name):
        config(**{name: value})


def test_solver_configs_keep_integral_counts_as_ints():
    ctm = CtmConfig(seed=np.int64(2), realizations_per_check=np.int32(4))
    anneal = AnnealConfig(iterations=np.int64(3), moves_per_temp=4.0)
    got = [ctm.seed, ctm.realizations_per_check, anneal.iterations, anneal.moves_per_temp]
    assert got == [2, 4, 3, 4] and all(type(v) is int for v in got)


@pytest.mark.parametrize("score, t0", [(5e8, 5e8 * 0.01), (20.0, 1.0)])
def test_t0_when_no_probe_worsens_is_a_hundredth_of_the_start(monkeypatch, tiny_scenario,
                                                              start, ev, score, t0):
    """With no worsening probe move to calibrate on, T0 is 1 % of the
    start's score, and at least 1."""
    from cellless import solver_maxrate

    monkeypatch.setattr(solver_maxrate, "objective", lambda solution, evaluator: score)
    rng = np.random.default_rng(0)
    assert solver_maxrate._calibrate_temperature(start, score, tiny_scenario, rng, ev) == t0


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
