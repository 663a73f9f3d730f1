"""Cluster-then-Match: per-step oracles and end-to-end behavior."""

import itertools
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from cellless.exposure import FrequencyMap
from cellless.radio_metrics import NOISE_DENSITY_W_HZ, Evaluator
from cellless.scenario import EndUser, Human, Position3D, builtin_scenario
from cellless.solution import validate
from cellless.solver_ctm import (CtmConfig, _assign,
                                 NoFeasibleSolutionError, beam_geometry,
                                 build_geometry, cluster_users, covering_arc,
                                 match_clusters, reduce_powers, solve_ctm,
                                 user_azimuth)

from conftest import make_poa, make_tiny_scenario


def users_at(points):
    return [EndUser(f"u{i}", Position3D(x, y, 1.5), 1e6)
            for i, (x, y) in enumerate(points)]


# -- step 1: clustering -------------------------------------------------------

def test_singleton_clusters_when_k_at_least_n():
    users = users_at([(0, 0), (5, 5), (9, 2)])
    c = cluster_users(users, 5, CtmConfig(seed=1))
    labels = {c.assignments[u.id] for u in users}
    assert len(labels) == 3
    assert sum(1 for cent in c.centroids if cent is None) == 2
    for u in users:
        cent = c.centroids[c.assignments[u.id]]
        assert cent == (u.position.x, u.position.y)


def test_duplicate_points_share_a_cluster():
    users = users_at([(1, 1), (1, 1), (4, 4)])
    c = cluster_users(users, 4, CtmConfig(seed=1))
    assert c.assignments["u0"] == c.assignments["u1"]
    assert c.assignments["u2"] != c.assignments["u0"]


def exhaustive_wcss(pts, k):
    """Minimum WCSS over every assignment of points to at most k groups."""
    n = len(pts)
    best = math.inf
    for labels in itertools.product(range(k), repeat=n):
        total = 0.0
        for j in range(k):
            member = pts[[i for i in range(n) if labels[i] == j]]
            if len(member):
                total += ((member - member.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def test_kmeans_matches_exhaustive_on_small_instances():
    rng = np.random.default_rng(2)
    hits = 0
    for _ in range(30):
        pts = rng.uniform(0.0, 10.0, (6, 2))
        users = users_at(pts)
        c = cluster_users(users, 2, CtmConfig(seed=3, kmeans_restarts=10))
        wcss = 0.0
        for j, cent in enumerate(c.centroids):
            for u in users:
                if c.assignments[u.id] == j:
                    wcss += (u.position.x - cent[0]) ** 2 + (u.position.y - cent[1]) ** 2
        if wcss <= exhaustive_wcss(pts, 2) + 1e-9:
            hits += 1
    assert hits >= 28


def test_cluster_users_argument_checks():
    with pytest.raises(ValueError):
        cluster_users(users_at([(0, 0)]), 0, CtmConfig())
    empty = cluster_users([], 3, CtmConfig())
    assert empty.assignments == {} and empty.centroids == (None, None, None)


# -- step 2: matching ---------------------------------------------------------

def brute_force_assignment(cost):
    k = cost.shape[0]
    best, best_perm = math.inf, None
    for perm in itertools.permutations(range(k)):
        total = sum(cost[i, perm[i]] for i in range(k))
        if total < best:
            best, best_perm = total, perm
    return best, best_perm


def test_match_is_distance_optimal(tiny_scenario):
    users = list(tiny_scenario.users)
    beams = tiny_scenario.all_beams
    clustering = cluster_users(users, len(beams), CtmConfig(seed=0))
    assignment = match_clusters(clustering, beams, tiny_scenario)
    assert sorted(assignment) == sorted(beams)
    assert sorted(assignment.values()) == list(range(len(beams)))

    height = float(np.mean([u.position.z for u in users]))
    cost = np.zeros((len(beams), len(beams)))
    for ci, cent in enumerate(clustering.centroids):
        if cent is None:
            continue
        for bi, beam in enumerate(beams):
            p = tiny_scenario.beam_owner(beam).position
            cost[ci, bi] = math.sqrt((cent[0] - p.x) ** 2 + (cent[1] - p.y) ** 2
                                     + (height - p.z) ** 2)
    best, _ = brute_force_assignment(cost)
    got = sum(cost[ci, beams.index(b)] for b, ci in assignment.items())
    assert got == pytest.approx(best, rel=1e-12)


@st.composite
def square_costs(draw):
    """Square cost matrices up to 12 x 12 with the ties the beam matching
    meets: all-zero rows (empty clusters) and repeated columns (the beams
    of one PoA), over floats or small integers."""
    n = draw(st.integers(0, 12))
    entry = draw(st.sampled_from([
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        st.integers(0, 3)]))
    cost = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)),
                    dtype=float).reshape(n, n)
    zero_rows = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cost[np.array(zero_rows, dtype=bool)] = 0.0
    if n and draw(st.booleans()):
        cost = cost[:, draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    return cost


@settings(deadline=None, max_examples=400)
@given(cost=square_costs())
def test_assign_equals_scipy_linear_sum_assignment(cost):
    """The same matching as scipy, ties included: on desk worlds the tie
    order decides which beam serves which users."""
    rows, cols = linear_sum_assignment(cost)
    assert np.array_equal(rows, np.arange(len(cost)))
    assert _assign(cost).tolist() == cols.tolist()


def test_assign_edge_sizes():
    assert _assign(np.zeros((0, 0))).tolist() == []
    assert _assign(np.array([[-2.5]])).tolist() == [0]
    assert _assign(np.zeros((5, 5))).tolist() == [0, 1, 2, 3, 4]


def test_match_requires_square_problem(tiny_scenario):
    clustering = cluster_users(list(tiny_scenario.users), 4, CtmConfig(seed=0))
    with pytest.raises(ValueError):
        match_clusters(clustering, tiny_scenario.all_beams[:3], tiny_scenario)


# -- step 3: widths and steering ----------------------------------------------

def arc_oracle(azimuths):
    """Minimal covering arc width by trying every point as the arc start."""
    best = 2.0 * math.pi
    for start in azimuths:
        offsets = [(a - start) % (2.0 * math.pi) for a in azimuths]
        best = min(best, max(offsets))
    return best


def test_covering_arc_known_cases():
    assert covering_arc([0.5])[1] == 0.0
    c, w = covering_arc([-0.2, 0.2])
    assert w == pytest.approx(0.4) and c == pytest.approx(0.0)
    # Wrap-around across +/- pi.
    c, w = covering_arc([math.pi - 0.1, -math.pi + 0.3])
    assert w == pytest.approx(0.4)
    assert c == pytest.approx(-math.pi + 0.1)  # center crosses the seam
    # Three-quarters circle: arc must avoid the empty quadrant.
    az = [0.0, math.pi / 2, math.pi, -math.pi / 2 - 0.5]
    _, w = covering_arc(az)
    assert w == pytest.approx(arc_oracle(az), abs=1e-12)


def test_covering_arc_against_oracle_random():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        az = rng.uniform(-math.pi, math.pi, n)
        _, w = covering_arc(az)
        assert w == pytest.approx(arc_oracle(list(az)), abs=1e-9)


def test_user_azimuth_matches_arccos_form():
    rng = np.random.default_rng(6)
    poa = Position3D(3.0, 4.0, 6.0)
    for _ in range(100):
        u = Position3D(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)), 1.5)
        dx, dy = u.x - poa.x, u.y - poa.y
        d2d = math.hypot(dx, dy)
        want = math.copysign(math.acos(dx / d2d), dy) if dy != 0 else \
            (0.0 if dx >= 0 else math.pi)
        assert user_azimuth(poa, u) == pytest.approx(want, abs=1e-12)
    assert user_azimuth(poa, Position3D(3.0, 4.0, 0.0)) == 0.0


BEAM_CASES = {
    # Two users either side of the x axis: azimuth 0, the arc's midpoint.
    "pair": ([Position3D(10.0, -2.0, 1.5), Position3D(10.0, 2.0, 1.5)], (10.0, 0.0)),
    # Tight cluster: the width is floored at the PoA minimum.
    "tight": ([Position3D(10.0, 0.0, 1.5), Position3D(10.0, 0.1, 1.5)], (10.0, 0.05)),
    # Spread cluster around the PoA: the minimal covering arc crosses +/- pi.
    "around": ([Position3D(math.cos(a) * 5, math.sin(a) * 5, 1.5)
                for a in np.linspace(-3.0, 3.0, 12)], (-1.0, 0.5)),
    "empty": ([], (0.0, 0.0)),
}


@pytest.mark.parametrize("case", list(BEAM_CASES))
def test_beam_geometry(case):
    """The width is the floored minimal covering arc, every user lies within
    half the arc of the azimuth, and the zenith points at the centroid at
    the users' mean height; a beam with no users cannot be steered."""
    poa = make_poa("p", 0.0, 0.0, z=6.0)
    positions, centroid = BEAM_CASES[case]
    if not positions:
        with pytest.raises(ValueError):
            beam_geometry(poa, positions, centroid)
        return
    phi, theta, width = beam_geometry(poa, positions, centroid)
    azimuths = [user_azimuth(poa.position, p) for p in positions]
    arc = arc_oracle(azimuths)
    assert width == pytest.approx(max(poa.min_beam_width, arc), abs=1e-12)
    assert -math.pi < phi <= math.pi
    assert max(abs(math.remainder(a - phi, 2.0 * math.pi)) for a in azimuths) == \
        pytest.approx(arc / 2.0, abs=1e-12)
    dz = float(np.mean([p.z for p in positions])) - poa.position.z
    d2d = math.hypot(centroid[0] - poa.position.x, centroid[1] - poa.position.y)
    assert theta == pytest.approx(math.atan2(d2d, dz), abs=1e-12)


# -- pipeline ------------------------------------------------------------------

def test_build_geometry_is_legal(tiny_scenario):
    sol = build_geometry(tiny_scenario, CtmConfig(seed=2))
    assert validate(sol, tiny_scenario) == []
    served = set()
    for b in sol.beams:
        served |= b.served_users
    assert served == {u.id for u in tiny_scenario.users}
    for p in tiny_scenario.poas:
        assert sol.tx_power[p.id] == p.max_tx_power_dbm


def test_reduce_powers_monotone_and_feasible(tiny_scenario):
    cfg = CtmConfig(seed=2, realizations_per_check=4, refinement_rounds=1)
    geo = build_geometry(tiny_scenario, cfg)
    ev = Evaluator(tiny_scenario, cfg.seed, cfg.realizations_per_check)
    out = reduce_powers(geo, ev, cfg)
    assert ev.metrics(out).feasible
    for pid in out.tx_power:
        assert out.tx_power[pid] <= geo.tx_power[pid]
    assert out.total_power_watts() < geo.total_power_watts()


def test_infeasible_at_max_power_raises():
    scenario = make_tiny_scenario(required_rate=1e12)
    with pytest.raises(NoFeasibleSolutionError):
        solve_ctm(scenario, CtmConfig(seed=1, realizations_per_check=2))


def test_infeasible_error_carries_the_max_power_verdict():
    """One desk user's floor out of reach: the error names exactly it."""
    scenario = builtin_scenario("inf-dh-desk", 1)
    target = scenario.users[3].id
    hard = replace(scenario, users=tuple(
        replace(u, required_rate=1e13) if u.id == target else u for u in scenario.users))
    cfg = CtmConfig(seed=1, realizations_per_check=4)
    with pytest.raises(NoFeasibleSolutionError) as info:
        solve_ctm(hard, cfg)
    err = info.value
    at_max = Evaluator(hard, cfg.seed, cfg.realizations_per_check).metrics(
        build_geometry(hard, cfg))
    assert err.violated == at_max.violated == [f"rate:{target}"]
    assert str(err) == ("no feasible solution at maximum transmit power; "
                        f"1 violated: rate:{target}")
    # Harness workers send it between processes.
    again = pickle.loads(pickle.dumps(err))
    assert again.violated == err.violated and str(again) == str(err)


def test_infeasible_error_message_quotes_the_first_ids():
    err = NoFeasibleSolutionError([f"rate:u{i}" for i in range(7)] + ["sar:h0"])
    assert str(err) == ("no feasible solution at maximum transmit power; "
                        "8 violated: rate:u0, rate:u1, rate:u2, rate:u3, rate:u4, ...")
    assert len(err.violated) == 8


def _reference_descent(solution, config, evaluator):
    """The descent with the earlier check, a full ``metrics()`` per trial
    power vector. Returns (solution, number of checks)."""
    checks = 0

    def feasible(sol):
        nonlocal checks
        checks += 1
        return evaluator.metrics(sol).feasible

    assert feasible(solution)
    current = solution
    active = set(current.active_poas())
    for round_idx in range(config.refinement_rounds + 1):
        delta = config.delta_db / (2 ** round_idx)
        changed = True
        while changed:
            changed = False
            for pid in sorted(active, key=lambda pid: (-current.tx_power[pid], pid)):
                while True:
                    trial = current.with_power(pid, current.tx_power[pid] - delta)
                    if not feasible(trial):
                        break
                    current, changed = trial, True
    return current, checks


@pytest.mark.parametrize("world, channel_seed, realizations", [
    pytest.param("inf-dh-desk", 1, 10, id="1"),
    pytest.param("inf-dh-desk", 2, 10, id="2"),
    pytest.param("inf-dh-desk", 3, 10, id="3"),
    pytest.param("umi-sc-desk", 1, 10, id="umi-1"),
    pytest.param("umi-sc-desk", 2, 10, id="umi-2"),
    pytest.param("inf-dh-desk", 1, 1, id="1-one-realization"),
    pytest.param("umi-sc-desk", 1, 1, id="umi-1-one-realization"),
])
def test_descent_matches_metrics_reference(monkeypatch, world, channel_seed, realizations):
    """On the desk worlds placed with seed 1, the descent returns the same
    dBm values as the reference after one full check of the max-power start
    and one check of the lowered PoA's users per reference trial."""
    scenario = builtin_scenario(world, 1)
    cfg = CtmConfig(seed=channel_seed, realizations_per_check=realizations)
    geometry = build_geometry(scenario, cfg)
    want, want_checks = _reference_descent(
        geometry, cfg, Evaluator(scenario, cfg.seed, cfg.realizations_per_check))

    full, trials = [], []
    metrics, unmet_floors = Evaluator.metrics, Evaluator.unmet_floors

    def counted_full(self, solution):
        full.append(dict(solution.tx_power))
        return metrics(self, solution)

    def counted_trial(self, stack, tx_power, user_ids):
        trials.append(dict(tx_power))
        return unmet_floors(self, stack, tx_power, user_ids)

    monkeypatch.setattr(Evaluator, "metrics", counted_full)
    monkeypatch.setattr(Evaluator, "unmet_floors", counted_trial)
    got = reduce_powers(geometry, Evaluator(scenario, cfg.seed, cfg.realizations_per_check),
                        cfg)
    assert got.tx_power == want.tx_power
    assert full == [geometry.tx_power]
    assert len(trials) == want_checks - 1
    assert got.tx_power != geometry.tx_power


@st.composite
def feasible_small_worlds(draw):
    """2-3 PoAs on one or two carriers, 1-4 users, 0-2 humans, CtM's
    geometry and a power for every PoA; each floor is set between half and
    all of the user's rate under those powers, and the SAR ceiling between
    one and two times the highest SAR, so the state is feasible and the
    tightest constraints are met exactly."""
    poas = tuple(make_poa(f"p{i}", draw(st.floats(1.0, 39.0)), draw(st.floats(1.0, 19.0)),
                          freq=draw(st.sampled_from([3e9, 5e9])), rows=4, cols=4)
                 for i in range(draw(st.integers(2, 3))))
    spot = st.builds(Position3D, st.floats(0.0, 40.0), st.floats(0.0, 20.0), st.just(1.5))
    users = tuple(EndUser(f"u{i}", draw(spot), 1e6) for i in range(draw(st.integers(1, 4))))
    humans = tuple(Human(f"h{i}", draw(spot), "ella") for i in range(draw(st.integers(0, 2))))
    scenario = replace(make_tiny_scenario(), poas=poas, users=users, humans=humans,
                       frequency_map=FrequencyMap({3e9: 2.45e9, 5e9: 5.2e9}))
    cfg = CtmConfig(seed=draw(st.integers(0, 3)), realizations_per_check=draw(st.integers(1, 3)))
    solution = replace(build_geometry(scenario, cfg),
                       tx_power={p.id: draw(st.floats(-30.0, 30.0)) for p in poas})
    start = Evaluator(scenario, cfg.seed, cfg.realizations_per_check).metrics(solution)
    scenario = replace(
        scenario,
        users=tuple(replace(u, required_rate=start.per_user_rate[u.id] * draw(st.floats(0.5, 1.0)))
                    for u in users),
        sar_limit=start.max_sar * draw(st.floats(1.0, 2.0)) if humans else 0.08)
    return Evaluator(scenario, cfg.seed, cfg.realizations_per_check), solution


@settings(deadline=None, max_examples=60)
@given(world=feasible_small_worlds(), data=st.data())
def test_lowering_one_poa_breaks_only_its_own_users_floors(world, data):
    """The descent's premise: from a feasible state, lowering one active PoA
    breaks no floor or ceiling outside that PoA's users, and their floors
    read from the users stack give the full verdict. Term by
    term: no other user's signal and none of that PoA's users' interference
    changes a bit, no interference rises, and the noise is the serving
    PoA's."""
    evaluator, solution = world
    stack = evaluator.stack(solution, humans=False)
    assert evaluator.metrics(solution).violated == []
    pid = data.draw(st.sampled_from(solution.active_poas()))
    lowered = solution.with_power(pid, solution.tx_power[pid] - data.draw(st.floats(0.0, 40.0)))
    own = sorted(uid for b in solution.beams_of(pid) for uid in b.served_users)
    after = evaluator.metrics(lowered).violated
    assert set(after) <= {f"rate:{uid}" for uid in own}
    assert evaluator.unmet_floors(stack, lowered.tx_power, own) == sorted(after)

    users = [u.id for u in evaluator.scenario.users]
    signal, interference, noise, _ = evaluator._terms(
        stack, evaluator.scaled(stack, solution.tx_power), users)
    signal_after, interference_after, noise_after, _ = evaluator._terms(
        stack, evaluator.scaled(stack, lowered.tx_power), users)
    mine = np.array([uid in own for uid in users])
    assert signal_after[~mine].tobytes() == signal[~mine].tobytes()
    assert interference_after[mine].tobytes() == interference[mine].tobytes()
    assert np.all(interference_after <= interference)
    serving = [evaluator.scenario.poa_by_id(solution.beam_for_user(uid).owner_poa).bandwidth
               for uid in users]
    assert noise_after.tolist() == noise.tolist() == [[NOISE_DENSITY_W_HZ * bw] for bw in serving]


def test_solve_ctm_deterministic(tiny_scenario):
    cfg = CtmConfig(seed=7, realizations_per_check=4, refinement_rounds=1)
    s1, m1 = solve_ctm(tiny_scenario, cfg)
    s2, m2 = solve_ctm(tiny_scenario, cfg)
    assert s1.tx_power == s2.tx_power
    assert m1.per_user_rate == m2.per_user_rate


def test_ctm_config_validation():
    with pytest.raises(ValueError):
        CtmConfig(delta_db=0.0)
    with pytest.raises(ValueError):
        CtmConfig(refinement_rounds=-1)
    with pytest.raises(ValueError):
        CtmConfig(kmeans_restarts=0)
    for delta in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            CtmConfig(delta_db=delta)


def test_nan_rate_floors_raise_instead_of_descending_forever():
    """A NaN floor is never met, so a Python-built world with NaN floors is
    infeasible at maximum power. Run in a fresh interpreter, so a descent
    that never stops fails on the timeout instead of hanging the suite."""
    code = (
        "import math; from dataclasses import replace; "
        "from cellless.scenario import builtin_scenario; "
        "from cellless.solver_ctm import CtmConfig, NoFeasibleSolutionError, solve_ctm; "
        "s = builtin_scenario('inf-dh-desk', 1); "
        "s = replace(s, users=tuple(replace(u, required_rate=math.nan) for u in s.users))\n"
        "try: solve_ctm(s, CtmConfig(seed=1, realizations_per_check=2))\n"
        "except NoFeasibleSolutionError as e: print(len(e.violated))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "20"   # every user's floor
