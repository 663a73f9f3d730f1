"""Cluster-then-Match: per-step oracles and end-to-end behavior."""

import hashlib
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from cellless import solver_ctm
from cellless.channel import dbm_to_watts, departure_angles, direct_paths
from cellless.exposure import FrequencyMap
from cellless.radio_metrics import NOISE_DENSITY_W_HZ, ROUND_UP_DB, Evaluator, _least_watts
from cellless.scenario import (EndUser, Human, Position3D, builtin_scenario, builtin_template,
                               generate_placements)
from cellless.solution import BeamConfig, too_close, validate
from cellless.solver_ctm import (CtmConfig, _assign,
                                 NoFeasibleSolutionError, beam_geometry,
                                 build_geometry, cluster_users, covering_arc,
                                 geometry_of, match_clusters, reduce_powers, solve_ctm)

from conftest import make_poa, make_tiny_scenario, nearest_poa, serving_beam, too_close_world


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
        c = cluster_users(users, 2, CtmConfig(seed=3))
        wcss = 0.0
        for j, cent in enumerate(c.centroids):
            for u in users:
                if c.assignments[u.id] == j:
                    wcss += (u.position.x - cent[0]) ** 2 + (u.position.y - cent[1]) ** 2
        if wcss <= exhaustive_wcss(pts, 2) + 1e-9:
            hits += 1
    assert hits >= 28


def _frozen_kmeans_once(pts, k, rng):
    """``_kmeans_once`` as it was when each centroid was recomputed by a
    loop over the clusters."""
    n = len(pts)
    centroids = np.empty((k, 2))
    centroids[0] = pts[rng.integers(n)]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = pts[rng.integers(n)]
            continue
        centroids[j] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((pts - centroids[j]) ** 2).sum(axis=1))
    labels = None
    for _ in range(solver_ctm.KMEANS_MAX_ITERS):
        dist = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                centroids[j] = pts[mask].mean(axis=0)
    dist = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = dist.argmin(axis=1)
    wcss = float(dist[np.arange(n), labels].sum())
    return labels, centroids, wcss


def test_kmeans_once_equals_the_frozen_cluster_loop():
    """Labels, centroids and WCSS of one k-means run are the frozen loop
    version's byte for byte, over seeded point sets in general position and
    drawn from a few distinct points, where clusters end up empty."""
    rng = np.random.default_rng(11)
    empty_runs = 0
    for case in range(300):
        n = int(rng.integers(2, 120))
        k = int(rng.integers(1, min(n, 41)))
        pts = rng.uniform(-60.0, 60.0, (n, 2))
        if case % 2:
            pts = pts[rng.integers(0, int(rng.integers(1, 6)), n)]
        got = solver_ctm._kmeans_once(pts, k, np.random.default_rng(case))
        want = _frozen_kmeans_once(pts, k, np.random.default_rng(case))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()
        empty_runs += len(np.unique(got[0])) < k
    assert empty_runs >= 50


def test_cluster_users_argument_checks():
    with pytest.raises(ValueError):
        cluster_users(users_at([(0, 0)]), 0, CtmConfig())
    empty = cluster_users([], 3, CtmConfig())
    assert empty.assignments == {} and empty.centroids == (None, None, None)


# -- step 2: matching ---------------------------------------------------------

def brute_force_assignment(cost):
    """Least total cost over every matching of the r rows to distinct
    columns of an (r, k) matrix, r <= k."""
    r, k = cost.shape
    perms = np.array(list(itertools.permutations(range(k), r)), dtype=int)
    return cost[np.arange(r), perms].sum(axis=1).min()


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
    best = brute_force_assignment(cost)
    got = sum(cost[ci, beams.index(b)] for b, ci in assignment.items())
    assert got == pytest.approx(best, rel=1e-12)


@st.composite
def tied_costs(draw):
    """Rectangular integer cost matrices, up to 6 rows and up to 3 more
    columns than rows, with the ties the beam matching meets: all-zero
    rows and repeated columns (the beams of one PoA)."""
    r = draw(st.integers(0, 6))
    k = draw(st.integers(r, r + 3))
    cost = np.array(draw(st.lists(st.integers(0, 5), min_size=r * k, max_size=r * k)),
                    dtype=float).reshape(r, k)
    zero_rows = draw(st.lists(st.booleans(), min_size=r, max_size=r))
    cost[np.array(zero_rows, dtype=bool)] = 0.0
    if k and draw(st.booleans()):
        cost = cost[:, draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))]
    return cost


@settings(deadline=None, max_examples=200)
@given(cost=tied_costs())
def test_assign_is_optimal_with_ties(cost):
    cols = _assign(cost)
    assert len(set(cols.tolist())) == len(cost) == len(cols)
    assert cost[np.arange(len(cost)), cols].sum() == brute_force_assignment(cost)


def test_assign_is_optimal_on_seeded_costs():
    """A fixed sweep of the sizes the property draws least often: full
    5-row integer matrices with up to 3 spare columns."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        cost = rng.integers(0, 6, (5, int(rng.integers(5, 9)))).astype(float)
        cols = _assign(cost)
        assert len(set(cols.tolist())) == 5
        assert cost[np.arange(5), cols].sum() == brute_force_assignment(cost)


def test_assign_edge_sizes():
    assert _assign(np.zeros((0, 0))).tolist() == []
    assert _assign(np.zeros((0, 3))).tolist() == []
    assert _assign(np.array([[-2.5]])).tolist() == [0]
    assert _assign(np.zeros((1, 3))).tolist() in ([0], [1], [2])
    assert _assign(np.array([[2.0, 0.5, 1.0]])).tolist() == [1]
    assert sorted(_assign(np.zeros((5, 5))).tolist()) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        _assign(np.zeros((2, 1)))


def _reversed_assign(cost):
    """An exact solver that breaks ties on the other side: ``_assign`` on
    the columns in reverse order."""
    return cost.shape[1] - 1 - _assign(cost[:, ::-1])


@pytest.mark.parametrize("name,seed", [("tiny", 0)] + [(name, seed) for name in
                                                      ("inf-dh-desk", "umi-sc-desk")
                                                      for seed in (1, 2, 3)])
def test_match_labels_do_not_depend_on_beam_order_or_solver(name, seed, monkeypatch):
    """Each PoA's beams take its clusters in ascending index order, then
    the empty clusters, PoA by PoA; so neither the order of a PoA's beams
    in the argument nor the solver's tie-breaking changes the labels."""
    scenario = make_tiny_scenario() if name == "tiny" else builtin_scenario(name, seed)
    beams = scenario.all_beams
    clustering = cluster_users(list(scenario.users), len(beams), CtmConfig(seed=seed))
    assignment = match_clusters(clustering, beams, scenario)

    rng = np.random.default_rng(seed)
    for order in ([b for p in scenario.poas for b in reversed(p.beams)],
                  [b for p in scenario.poas for b in rng.permutation(p.beams).tolist()]):
        assert match_clusters(clustering, order, scenario) == assignment
    monkeypatch.setattr(solver_ctm, "_assign", _reversed_assign)
    assert match_clusters(clustering, beams, scenario) == assignment

    empty = []
    for poa in scenario.poas:
        held = [assignment[b] for b in poa.beams]
        filled = [c for c in held if clustering.centroids[c] is not None]
        assert held[:len(filled)] == sorted(filled)
        empty += held[len(filled):]
    assert empty == sorted(empty)
    assert all(clustering.centroids[c] is None for c in empty)


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


def _azimuth(poa_pos, user_pos):
    """The azimuth of the direction from one point to another, by
    ``channel.departure_angles``, the rule of the links and of CtM's beams."""
    return float(departure_angles(poa_pos.as_tuple(), user_pos.as_tuple())[1])


def test_user_azimuth_matches_arccos_form():
    rng = np.random.default_rng(6)
    poa = Position3D(3.0, 4.0, 6.0)
    for _ in range(100):
        u = Position3D(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)), 1.5)
        dx, dy = u.x - poa.x, u.y - poa.y
        d2d = math.hypot(dx, dy)
        want = math.copysign(math.acos(dx / d2d), dy) if dy != 0 else \
            (0.0 if dx >= 0 else math.pi)
        assert _azimuth(poa, u) == pytest.approx(want, abs=1e-12)
    assert _azimuth(poa, Position3D(3.0, 4.0, 0.0)) == 0.0


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
    azimuths = [_azimuth(poa.position, p) for p in positions]
    arc = arc_oracle(azimuths)
    assert width == pytest.approx(max(poa.min_beam_width, arc), abs=1e-12)
    assert -math.pi < phi <= math.pi
    assert max(abs(math.remainder(a - phi, 2.0 * math.pi)) for a in azimuths) == \
        pytest.approx(arc / 2.0, abs=1e-12)
    dz = float(np.mean([p.z for p in positions])) - poa.position.z
    d2d = math.hypot(centroid[0] - poa.position.x, centroid[1] - poa.position.y)
    assert theta == pytest.approx(math.atan2(d2d, dz), abs=1e-12)


@pytest.mark.parametrize("world", ["inf-dh-desk", "umi-sc-desk", "inf-dh-default",
                                   "umi-sc-default"])
def test_a_beam_serving_one_user_steers_along_its_link(world):
    """Seeds 0-29: every active beam of CtM's geometry that serves one user
    has, bit for bit, the azimuth of that user's direct path from the
    beam's PoA, the links' own angle rule."""
    single = 0
    for seed in range(30):
        scenario = builtin_scenario(world, seed)
        for beam in build_geometry(scenario, CtmConfig(seed=seed)).beams:
            if len(beam.served_users) != 1:
                continue
            poa = scenario.poa_by_id(beam.owner_poa)
            (user,) = beam.served_users
            link = direct_paths(poa.position.as_tuple(), poa.frequency,
                                scenario.user_by_id(user).position.as_tuple(),
                                scenario.channel_params)
            assert np.float64(beam.azimuth).tobytes() == np.float64(link.azimuth).tobytes()
            single += 1
    assert single >= 30


@st.composite
def grouped_small_worlds(draw):
    """2-3 PoAs with 1-3 beams each, 1-5 users at 0.9 or 1.5 m, a minimum
    serving distance of 0-8 m, and a grouping of the users: each user in
    exactly one group, on a drawn beam of a PoA not ``too_close`` to it,
    each group steered to a drawn centroid. Returns (scenario, groups,
    seed); ``groups`` maps a beam id to (user ids, centroid)."""
    spot = st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 20.0))
    poas = tuple(make_poa(f"p{i}", *draw(spot), n_beams=draw(st.integers(1, 3)), rows=4, cols=4)
                 for i in range(draw(st.integers(2, 3))))
    users = tuple(EndUser(f"u{i}", Position3D(*draw(spot), draw(st.sampled_from([0.9, 1.5]))),
                          1e6) for i in range(draw(st.integers(1, 5))))
    scenario = replace(make_tiny_scenario(), poas=poas, users=users, humans=(),
                       min_poa_user_distance=draw(st.sampled_from([0.0, 4.0, 8.0])))
    members = {}
    for user in users:
        beams = [b for p in poas if too_close(p, user, scenario) is None for b in p.beams]
        assume(beams)
        members.setdefault(draw(st.sampled_from(beams)), []).append(user.id)
    groups = {b: (draw(st.permutations(us)), draw(spot)) for b, us in members.items()}
    return scenario, groups, draw(st.integers(0, 3))


@settings(deadline=None, max_examples=100)
@given(world=grouped_small_worlds(), data=st.data())
def test_geometry_of_is_the_one_rule_from_an_association_to_beams(world, data):
    """``geometry_of`` lists every beam in ``scenario.all_beams`` order at
    maximum power, and the state validates. A beam with a group is
    ``beam_geometry``'s steering of its users, sorted, toward its centroid;
    every other beam is idle. Shuffling a group's users changes nothing,
    and relabelling one PoA's beams permutes the ``BeamConfig``s and keeps
    the power vector. On CtM's own groups it is ``build_geometry``."""
    scenario, groups, seed = world
    got = geometry_of(scenario, groups)
    assert validate(got, scenario) == []
    assert [b.beam_id for b in got.beams] == list(scenario.all_beams)
    assert got.tx_power == {p.id: p.max_tx_power_dbm for p in scenario.poas}
    for beam in got.beams:
        poa = scenario.beam_owner(beam.beam_id)
        if beam.beam_id in groups:
            users, centroid = sorted(groups[beam.beam_id][0]), groups[beam.beam_id][1]
            steering = beam_geometry(poa, [scenario.user_by_id(u).position for u in users],
                                     centroid)
        else:
            users, steering = [], (0.0, math.pi / 2.0, poa.min_beam_width)
        assert beam == BeamConfig(beam.beam_id, poa.id, *steering, frozenset(users))

    shuffled = {b: (data.draw(st.permutations(us)), c) for b, (us, c) in groups.items()}
    assert geometry_of(scenario, shuffled) == got

    poa = data.draw(st.sampled_from(scenario.poas))
    relabel = dict(zip(poa.beams, data.draw(st.permutations(poa.beams))))
    moved = geometry_of(scenario, {relabel.get(b, b): g for b, g in groups.items()})
    assert moved.tx_power == got.tx_power
    old, back = {b.beam_id: b for b in got.beams}, {n: o for o, n in relabel.items()}
    assert moved.beams == tuple(replace(old[back.get(b, b)], beam_id=b) for b in scenario.all_beams)

    beams = scenario.all_beams
    clustering = cluster_users(list(scenario.users), len(beams), CtmConfig(seed=seed))
    assignment = match_clusters(clustering, beams, scenario)
    own = {b: (clustering.members(c), clustering.centroids[c])
           for b, c in assignment.items() if clustering.centroids[c] is not None}
    assert geometry_of(scenario, own) == build_geometry(scenario, CtmConfig(seed=seed))


# sha256 (first 16 hex digits), per built-in, of CtM's geometry
# ``build_geometry(builtin_scenario(world, s), CtmConfig(seed=s))`` for
# s = 0-29: each beam in order adds its id and owner, the float64 bytes of
# its azimuth, zenith and width, and its served users sorted (a frozenset's
# own order follows PYTHONHASHSEED). Computed with cellless 0.7.2 on numpy
# 2.4.6; float bytes can differ on other numpy versions, so the
# numpy-floor CI job does not run this test.
_PINNED_GEOMETRY = {
    "inf-dh-desk": "a10adc5c366894ac",
    "umi-sc-desk": "2051e13b79eb4c5f",
    "inf-dh-default": "c9af7250d2abffcd",
    "umi-sc-default": "e9c8530e6576a5f7",
}


@pytest.mark.parametrize("world", sorted(_PINNED_GEOMETRY))
def test_ctm_geometry_is_pinned_on_every_builtin(world):
    """CtM's beams on each built-in, seeds 0-29, keep the bits of 0.7.2."""
    digest = hashlib.sha256()
    for seed in range(30):
        for b in build_geometry(builtin_scenario(world, seed), CtmConfig(seed=seed)).beams:
            digest.update(f"{b.beam_id}\0{b.owner_poa}\0".encode())
            digest.update(np.array([b.azimuth, b.zenith, b.width], dtype=float).tobytes())
            digest.update("\0".join(sorted(b.served_users)).encode() + b"\n")
    assert digest.hexdigest()[:16] == _PINNED_GEOMETRY[world]


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
    cfg = CtmConfig(seed=2)
    geo = build_geometry(tiny_scenario, cfg)
    ev = Evaluator(tiny_scenario, cfg.seed, 4)
    out, bundle = reduce_powers(geo, ev)
    assert bundle.feasible
    for pid in out.tx_power:
        assert out.tx_power[pid] <= geo.tx_power[pid]
    assert out.total_power_watts() < geo.total_power_watts()


def test_infeasible_at_max_power_raises():
    scenario = make_tiny_scenario(required_rate=1e12)
    with pytest.raises(NoFeasibleSolutionError):
        solve_ctm(Evaluator(scenario, 1, 2))


def test_infeasible_error_carries_the_max_power_verdict():
    """One desk user's floor out of reach: the error names exactly it, and
    its PoA as the one that blocks."""
    scenario = builtin_scenario("inf-dh-desk", 1)
    target = scenario.users[3].id
    hard = replace(scenario, users=tuple(
        replace(u, required_rate=1e13) if u.id == target else u for u in scenario.users))
    with pytest.raises(NoFeasibleSolutionError) as info:
        solve_ctm(Evaluator(hard, 1, 4))
    err = info.value
    geometry = build_geometry(hard, CtmConfig(seed=1))
    at_max = Evaluator(hard, 1, 4).metrics(geometry)
    owner = serving_beam(geometry, target).owner_poa
    assert err.violated == at_max.violated == [f"rate:{target}"]
    assert err.blocking == {owner: target}
    assert str(err) == (f"no feasible solution: {owner} cannot meet {target}'s floor; "
                        f"1 violated at maximum power: rate:{target}")
    # Harness workers send it between processes.
    again = pickle.loads(pickle.dumps(err))
    assert (again.violated, again.blocking, str(again)) == (err.violated, err.blocking, str(err))


@pytest.mark.parametrize("world, seed, blocking", [
    ("umi-sc-desk", 0, {"poa8": "user17"}),
    ("inf-dh-default", 1, {"poa7": "user93"}),
])
def test_an_infeasible_world_names_the_poa_that_blocks(world, seed, blocking):
    """A world whose least power vector crosses a PoA's maximum raises with
    that PoA and its binding user, and with the verdict at maximum power,
    which misses the binding user's floor."""
    scenario = builtin_scenario(world, seed)
    with pytest.raises(NoFeasibleSolutionError) as info:
        solve_ctm(Evaluator(scenario, seed, 10))
    err = info.value
    at_max = Evaluator(scenario, seed, 10).metrics(build_geometry(scenario, CtmConfig(seed=seed)))
    assert err.blocking == blocking and err.violated == at_max.violated
    assert {f"rate:{uid}" for uid in blocking.values()} <= set(err.violated)


def test_a_least_vector_over_a_sar_ceiling_is_refused():
    """SAR rises in every power, so a least power vector that meets every
    floor but breaks a SAR ceiling shows that no vector meets both. On
    inf-dh-desk seed 1, with the ceiling at the least vector's largest SAR
    the world solves with the same powers; at half of it ``solve_ctm``
    raises with no blocking PoA, and at maximum power every floor is met
    and every human breaks the ceiling."""
    scenario = builtin_scenario("inf-dh-desk", 1)
    solved, bundle = solve_ctm(Evaluator(scenario, 1, 10))
    at_ceiling = replace(scenario, sar_limit=bundle.max_sar)
    again, again_bundle = solve_ctm(Evaluator(at_ceiling, 1, 10))
    assert again == solved and again_bundle.feasible
    with pytest.raises(NoFeasibleSolutionError) as info:
        solve_ctm(Evaluator(replace(scenario, sar_limit=bundle.max_sar / 2), 1, 10))
    err = info.value
    assert err.blocking == {} and "the least power vector breaks a SAR ceiling" in str(err)
    assert err.violated == [f"sar:{h.id}" for h in scenario.humans] and len(err.violated) == 40


def test_infeasible_error_message_quotes_the_first_ids():
    err = NoFeasibleSolutionError([f"rate:u{i}" for i in range(7)] + ["sar:h0"],
                                  {"p0": "u0", "p1": "u3"})
    assert str(err) == ("no feasible solution: p0 cannot meet u0's floor, p1 cannot meet "
                        "u3's floor; 8 violated at maximum power: rate:u0, rate:u1, rate:u2, "
                        "rate:u3, rate:u4, ...")
    assert len(err.violated) == 8
    ceiling = NoFeasibleSolutionError(["sar:h0"], {})
    assert str(ceiling) == ("no feasible solution: the least power vector breaks a SAR "
                            "ceiling; 1 violated at maximum power: sar:h0")


_STEP_DB = 1e-3   # the reference descent's tolerance


def _reference_descent(solution, evaluator):
    """The oracle of the least power vector: from a feasible start, each
    sweep takes the active PoAs in descending power, then id, and lowers
    each by doubling steps of ``_STEP_DB`` until a trial misses a floor
    (``Evaluator.unmet_floors``), then bisects back to ``_STEP_DB``. Sweeps
    repeat until none lowers a PoA, so no active PoA can go ``_STEP_DB``
    lower."""
    def meets(sol):
        return not evaluator.unmet_floors(sol)

    assert meets(solution)
    current, moved = solution, True
    while moved:
        moved = False
        for pid in sorted(current.active_poas(), key=lambda pid: (-current.tx_power[pid], pid)):
            dbm, step = current.tx_power[pid], _STEP_DB
            while meets(current.with_power(pid, dbm - step)):
                dbm, step = dbm - step, 2.0 * step
            while step > _STEP_DB:
                step /= 2.0
                if meets(current.with_power(pid, dbm - step)):
                    dbm -= step
            if dbm != current.tx_power[pid]:
                current, moved = current.with_power(pid, dbm), True
    return current


@pytest.mark.parametrize("world, placement, channel_seed", [
    (world, placement, seed) for world in ("inf-dh-desk", "umi-sc-desk")
    for placement in (1, 2, 3) for seed in range(6)]
    + [("inf-dh-desk", 4, 4), ("inf-dh-desk", 5, 5)])
def test_least_powers_are_the_descent_to_within_the_round_up(world, placement, channel_seed):
    """On the desk worlds, the least vector is at most the reference descent
    plus the round-up on every PoA, and its total power is within 0.05 %
    of the descent's. ``solve_ctm`` returns that vector's ``tx_power`` and
    the ``per_user_rate`` and ``per_human_sar`` of ``metrics`` on it, byte
    for byte."""
    scenario = builtin_scenario(world, placement)
    evaluator = Evaluator(scenario, channel_seed, 10)
    geometry = build_geometry(scenario, CtmConfig(seed=channel_seed))
    want = _reference_descent(geometry, evaluator)
    got, _ = reduce_powers(geometry, evaluator)
    assert got.active_poas() == want.active_poas()
    assert all(got.tx_power[pid] <= want.tx_power[pid] + ROUND_UP_DB
               for pid in got.active_poas())
    total = want.total_power_watts()
    assert abs(got.total_power_watts() - total) <= 5e-4 * total

    def raw(values):
        return np.array(list(values), dtype=float).tobytes()

    solved, bundle = solve_ctm(evaluator)
    assert list(solved.tx_power) == list(got.tx_power)
    assert raw(solved.tx_power.values()) == raw(got.tx_power.values())
    got_bundle = evaluator.metrics(got)
    for field in ("per_user_rate", "per_human_sar"):
        mine, theirs = getattr(bundle, field), getattr(got_bundle, field)
        assert list(mine) == list(theirs) and raw(mine.values()) == raw(theirs.values())


@pytest.mark.parametrize("world, channel_seed, realizations", [
    pytest.param("inf-dh-desk", 1, 10, id="1"),
    pytest.param("inf-dh-desk", 2, 10, id="2"),
    pytest.param("inf-dh-desk", 3, 10, id="3"),
    pytest.param("umi-sc-desk", 1, 10, id="umi-1"),
    pytest.param("umi-sc-desk", 2, 10, id="umi-2"),
    pytest.param("inf-dh-desk", 1, 1, id="1-one-realization"),
    pytest.param("umi-sc-desk", 1, 1, id="umi-1-one-realization"),
])
def test_reduce_powers_confirms_the_least_vector_with_one_verdict(monkeypatch, world,
                                                                  channel_seed, realizations):
    """On the desk worlds placed with seed 1, ``reduce_powers`` returns the
    solution with ``least_powers``' vector on its active PoAs, lower than
    the max-power start, and the verdict of its one ``metrics`` call: of
    that vector. ``solve_ctm`` returns that pair, after that one call."""
    scenario = builtin_scenario(world, 1)
    geometry = build_geometry(scenario, CtmConfig(seed=channel_seed))
    tx_power, _, blocking = Evaluator(scenario, channel_seed, realizations).least_powers(geometry)
    assert not blocking

    full, verdicts = [], []
    metrics = Evaluator.metrics

    def counted_full(self, solution):
        full.append(dict(solution.tx_power))
        verdicts.append(metrics(self, solution))
        return verdicts[-1]

    monkeypatch.setattr(Evaluator, "metrics", counted_full)
    got, bundle = reduce_powers(geometry, Evaluator(scenario, channel_seed, realizations))
    assert got.tx_power == {**geometry.tx_power, **tx_power}
    assert full == [got.tx_power] and verdicts == [bundle] and bundle.feasible
    assert got.total_power_watts() < geometry.total_power_watts()

    full.clear()
    verdicts.clear()
    solved, closing = solve_ctm(Evaluator(scenario, channel_seed, realizations))
    assert solved == got and full == [got.tx_power] and verdicts[0] is closing


@pytest.mark.parametrize("template, users", [
    ("inf-dh-desk", 40), ("umi-sc-desk", 25), ("umi-sc-desk", 30)])
def test_regression_worlds_solve(template, users):
    """Three worlds, placed and drawn with seed 3 with two humans per user,
    that miss floors with every PoA at its maximum: lowering the
    interferers meets them, so each solves."""
    world = replace(builtin_template(template), n_users=users, n_humans=2 * users)
    scenario = generate_placements(world, 3)
    evaluator = Evaluator(scenario, 3, 10)
    assert not evaluator.metrics(build_geometry(scenario, CtmConfig(seed=3))).feasible
    _, bundle = solve_ctm(evaluator)
    assert bundle.feasible


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
    seed, realizations = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    solution = replace(build_geometry(scenario, CtmConfig(seed=seed)),
                       tx_power={p.id: draw(st.floats(-30.0, 30.0)) for p in poas})
    start = Evaluator(scenario, seed, realizations).metrics(solution)
    scenario = replace(
        scenario,
        users=tuple(replace(u, required_rate=start.per_user_rate[u.id] * draw(st.floats(0.5, 1.0)))
                    for u in users),
        sar_limit=start.max_sar * draw(st.floats(1.0, 2.0)) if humans else 0.08)
    return Evaluator(scenario, seed, realizations), solution


def _requirements(evaluator, solution):
    """Each active PoA's requirement [W] on the solution's beams at its
    powers: the most watts any of its users needs for its floor
    (``_least_watts``) under the interference of the solution's powers."""
    stack = evaluator.stack(solution)
    pids = [p.id for p in evaluator.scenario.poas]
    unit = evaluator._terms(stack, evaluator._watts(stack, dict.fromkeys(pids, 30.0)))[0]
    _, interference, noise, bandwidth = evaluator._terms(
        stack, evaluator._watts(stack, solution.tx_power))
    floors = np.array([u.required_rate for u in evaluator.scenario.users])
    need = _least_watts(bandwidth, unit, noise + interference, floors,
                        [u.id for u in evaluator.scenario.users])
    owner = [pids[p] for p in stack.poa_of_beam[stack.serving].tolist()]
    return {pid: max(n for n, o in zip(need.tolist(), owner) if o == pid)
            for pid in solution.active_poas()}


@settings(deadline=None, max_examples=60)
@given(world=feasible_small_worlds())
def test_least_powers_meet_every_floor_and_are_a_fixed_point(world):
    """From any feasible state, ``reduce_powers`` returns a state that
    passes ``metrics``, with no PoA above its power in the start. Its
    vector is ``least_powers``' and a fixed point: each active PoA's
    requirement there lies between its watts less the round-up and its
    watts."""
    evaluator, solution = world
    solved, bundle = reduce_powers(solution, evaluator)
    assert bundle.feasible
    assert all(solved.tx_power[pid] <= solution.tx_power[pid] for pid in solution.tx_power)
    tx_power, _, blocking = evaluator.least_powers(solution)
    assert not blocking and sorted(tx_power) == solution.active_poas()
    assert solved.tx_power == {**solution.tx_power, **tx_power}
    for pid, watts in _requirements(evaluator, solved).items():
        assert dbm_to_watts(solved.tx_power[pid] - ROUND_UP_DB) * (1 - 1e-9) <= watts
        assert watts <= dbm_to_watts(solved.tx_power[pid]) * (1 + 1e-9)


@settings(deadline=None, max_examples=60)
@given(world=feasible_small_worlds(), data=st.data())
def test_lowering_a_least_power_breaks_its_binding_user(world, data):
    """Lowering any active PoA of the least vector by more than the
    round-up misses its binding user's floor: the vector is least to
    within the round-up, PoA by PoA."""
    evaluator, solution = world
    tx_power, binding, _ = evaluator.least_powers(solution)
    solved = replace(solution, tx_power={**solution.tx_power, **tx_power})
    pid = data.draw(st.sampled_from(solution.active_poas()))
    by = data.draw(st.one_of(st.just(1.01 * ROUND_UP_DB), st.floats(1.01 * ROUND_UP_DB, 40.0)))
    event(f"lowered by more than 1e-3 dB: {by > 1e-3}")
    lowered = solved.with_power(pid, solved.tx_power[pid] - by)
    assert f"rate:{binding[pid]}" in evaluator.unmet_floors(lowered)


@settings(deadline=None, max_examples=60)
@given(world=feasible_small_worlds(), data=st.data())
def test_a_proof_of_infeasibility_agrees_with_metrics_at_maximum_power(world, data):
    """With floors raised up to a hundredfold, or one floor NaN, the least
    vector either meets every floor or proves that none up to the maxima
    does; a proof names PoAs whose binding users miss their floors with
    every PoA at its maximum, and a NaN floor always blocks its PoA."""
    evaluator, solution = world
    scale = data.draw(st.floats(1.0, 100.0))
    evaluator._rate_floor = {uid: floor * scale for uid, floor in evaluator._rate_floor.items()}
    nan = data.draw(st.none() | st.sampled_from([u.id for u in evaluator.scenario.users]))
    if nan is not None:
        evaluator._rate_floor[nan] = math.nan
    tx_power, binding, blocking = evaluator.least_powers(solution)
    event(f"proven infeasible: {bool(blocking)}")
    if not blocking:
        solved = replace(solution, tx_power={**solution.tx_power, **tx_power})
        assert evaluator.unmet_floors(solved) == [] and nan is None
        return
    at_max = solution
    for poa in evaluator.scenario.poas:
        at_max = at_max.with_power(poa.id, poa.max_tx_power_dbm)
    missed = evaluator.unmet_floors(at_max)
    assert tx_power == {} and set(blocking.items()) <= set(binding.items())
    assert {f"rate:{uid}" for uid in blocking.values()} <= set(missed)
    if nan is not None:
        assert serving_beam(solution, nan).owner_poa in blocking


def _assert_least_powers_read_only_the_beams(evaluator, solution):
    """The feasible solution's ``least_powers`` equal, bit for bit, those of
    its beams with every PoA at its maximum, each power capped at the
    solution's own, with the same binding and blocking PoAs: its powers
    cap the answer and steer nothing."""
    assert evaluator.unmet_floors(solution) == []
    at_max = replace(solution, tx_power={p.id: p.max_tx_power_dbm
                                         for p in evaluator.scenario.poas})
    tx_power, binding, blocking = evaluator.least_powers(solution)
    top_power, top_binding, top_blocking = evaluator.least_powers(at_max)
    capped = {pid: min(dbm, solution.tx_power[pid]) for pid, dbm in top_power.items()}
    assert (binding, blocking) == (top_binding, top_blocking)
    assert list(tx_power) == list(capped)
    assert (np.array(list(tx_power.values())).tobytes()
            == np.array(list(capped.values())).tobytes())


@settings(deadline=None, max_examples=60)
@given(world=feasible_small_worlds())
def test_least_powers_depend_on_the_beams_alone(world):
    """From any feasible state, the least vector is the one of its beams at
    maximum power, capped at the state's powers."""
    _assert_least_powers_read_only_the_beams(*world)


@pytest.mark.parametrize("world, seed", [(world, seed) for world in ("inf-dh-desk", "umi-sc-desk")
                                         for seed in range(8)])
def test_least_powers_depend_on_the_desk_beams_alone(world, seed):
    """On CtM's geometry of a desk world (every PoA at its maximum), starts
    0.5 and 3 dB above the least vector, capped at the maxima, give the
    least vector of the beams at maximum power, capped at the start. A
    world proven infeasible has no start to try."""
    scenario = builtin_scenario(world, seed)
    evaluator = Evaluator(scenario, seed, 10)
    geometry = build_geometry(scenario, CtmConfig(seed=seed))
    least, _, blocking = evaluator.least_powers(geometry)
    if blocking:
        return
    for by in (0.5, 3.0):
        start = {pid: min(dbm + by, geometry.tx_power[pid]) for pid, dbm in least.items()}
        _assert_least_powers_read_only_the_beams(
            evaluator, replace(geometry, tx_power={**geometry.tx_power, **start}))


@pytest.mark.parametrize("start_dbm", [None, -40.0])
def test_a_search_past_its_step_bound_keeps_feasible_powers_or_raises(monkeypatch, start_dbm):
    """Past ``_MOST_STEPS`` steps, a search keeps the solution's powers
    when they meet every floor (here every PoA at its maximum), and else
    (every PoA at -40 dBm misses floors) raises ``RuntimeError``, which
    proves nothing."""
    import cellless.radio_metrics as radio_metrics

    scenario = builtin_scenario("inf-dh-desk", 1)
    geometry = build_geometry(scenario, CtmConfig(seed=1))
    if start_dbm is not None:
        geometry = replace(geometry, tx_power=dict.fromkeys(geometry.tx_power, start_dbm))
    evaluator = Evaluator(scenario, 1, 4)
    least, _ = reduce_powers(geometry, evaluator)
    monkeypatch.setattr(radio_metrics, "_MOST_STEPS", 1)
    if start_dbm is not None:
        assert not evaluator.metrics(geometry).feasible
        with pytest.raises(RuntimeError, match="no least power vector in 1 steps"):
            reduce_powers(geometry, evaluator)
        return
    solved, bundle = reduce_powers(geometry, evaluator)
    assert solved.tx_power == geometry.tx_power and bundle.feasible
    assert solved.total_power_watts() > least.total_power_watts()


@pytest.mark.parametrize("field, value", [("bandwidth", 1e300), ("required_rate", 1e-18)],
                         ids=["bandwidth-1e300", "floor-1e-18"])
def test_a_least_watts_search_that_does_not_settle_raises_naming_the_user(field, value):
    """A user's Newton steps toward its least watts are bounded: on an
    inf-dh-desk world whose first PoA has a bandwidth of 1e300 Hz, or whose
    first user has a floor of 1e-18 bit/s, where they used to climb without
    end, ``least_powers`` raises ``RuntimeError`` within seconds, naming a
    user of the edited PoA, or the edited user, and its serving PoA."""
    world = builtin_scenario("inf-dh-desk", 1)
    part = "poas" if field == "bandwidth" else "users"
    edited = getattr(world, part)
    world = replace(world, **{part: (replace(edited[0], **{field: value}),) + edited[1:]})
    geometry = build_geometry(world, CtmConfig(seed=1))
    evaluator = Evaluator(world, 1, 2)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="Newton steps") as info:
        evaluator.least_powers(geometry)
    assert time.perf_counter() - start < 10.0
    user, poa = re.fullmatch(r"the least watts of user '(\w+)' of PoA '(\w+)' not found in "
                             r"\d+ Newton steps", str(info.value)).groups()
    assert serving_beam(geometry, user).owner_poa == poa
    assert (poa if part == "poas" else user) == edited[0].id


@pytest.mark.parametrize("world, seed", [(world, seed) for world in ("inf-dh-desk", "umi-sc-desk")
                                         for seed in range(3)])
def test_least_watts_settles_within_the_steps_the_bound_is_set_above(monkeypatch, world, seed):
    """On CtM's geometry of a desk world with 10 realizations, each user's
    least watts settles in at most 9 Newton steps, the count the bound
    ``_MOST_ROOT_STEPS`` is set well above: ``least_powers`` with the bound
    cut to 9 returns what it returns with the full bound."""
    import cellless.radio_metrics as radio_metrics

    scenario = builtin_scenario(world, seed)
    evaluator = Evaluator(scenario, seed, 10)
    geometry = build_geometry(scenario, CtmConfig(seed=seed))
    full = evaluator.least_powers(geometry)
    monkeypatch.setattr(radio_metrics, "_MOST_ROOT_STEPS", 9)
    assert evaluator.least_powers(geometry) == full


@settings(deadline=None, max_examples=60)
@given(world=feasible_small_worlds(), data=st.data())
def test_lowering_one_poa_breaks_only_its_own_users_floors(world, data):
    """The power step's premise: from a feasible state, lowering one active PoA
    breaks no floor or ceiling outside that PoA's users, and the floors
    read from the users stack give the full verdict. Term by
    term: no other user's signal and none of that PoA's users' interference
    changes a bit, no interference rises, and the noise is the serving
    PoA's."""
    evaluator, solution = world
    stack = evaluator.stack(solution)
    assert evaluator.metrics(solution).violated == []
    pid = data.draw(st.sampled_from(solution.active_poas()))
    lowered = solution.with_power(pid, solution.tx_power[pid] - data.draw(st.floats(0.0, 40.0)))
    own = sorted(uid for b in solution.beams if b.owner_poa == pid for uid in b.served_users)
    after = evaluator.metrics(lowered).violated
    assert set(after) <= {f"rate:{uid}" for uid in own}
    assert evaluator.unmet_floors(lowered) == after

    users = [u.id for u in evaluator.scenario.users]
    signal, interference, noise, _ = evaluator._terms(
        stack, evaluator._watts(stack, solution.tx_power))
    signal_after, interference_after, noise_after, _ = evaluator._terms(
        stack, evaluator._watts(stack, lowered.tx_power))
    mine = np.array([uid in own for uid in users])
    assert signal_after[~mine].tobytes() == signal[~mine].tobytes()
    assert interference_after[mine].tobytes() == interference[mine].tobytes()
    assert np.all(interference_after <= interference)
    serving = [evaluator.scenario.poa_by_id(serving_beam(solution, uid).owner_poa).bandwidth
               for uid in users]
    assert noise_after.tolist() == noise.tolist() == [[NOISE_DENSITY_W_HZ * bw] for bw in serving]


def test_solve_ctm_deterministic(tiny_scenario):
    """Deterministic on two Evaluators of one world, on the geometry of
    ``CtmConfig(seed=evaluator.seed)``."""
    s1, m1 = solve_ctm(Evaluator(tiny_scenario, 7, 4))
    s2, m2 = solve_ctm(Evaluator(tiny_scenario, 7, 4))
    assert s1 == s2 and repr(m1) == repr(m2)
    assert s1.beams == build_geometry(tiny_scenario, CtmConfig(seed=7)).beams


# sha256 (first 16 hex digits) of the float64 bytes of a CtM solve's
# per_user_rate and per_poa_power values and of its unlinked humans'
# per_human_sar values, in scenario order, at 10 realizations with the
# world's placement seed as channel and k-means seed. Computed with
# cellless 0.7.2 on numpy 2.4.6; float bytes can differ on other numpy
# versions, so the numpy-floor CI job does not run this test.
_PINNED_CTM = {
    ("inf-dh-desk", 1): ("61395dd222dcf9e2", "1b7102cb8a856c53", "57fcec85bb834e6f"),
    ("inf-dh-desk", 2): ("6fb1e1e4e17b295e", "b1eeb9992a0246a6", "aabc920c3bd70b50"),
    ("inf-dh-desk", 3): ("7a19f8ca5f36710b", "3f11b34a65a2a4c4", "ae72fdb9c0b9e645"),
    ("umi-sc-desk", 1): ("0c81d0eb926b72bc", "9c17f1f5ef14db37", "86eef562fbab130e"),
    ("umi-sc-desk", 2): ("09b73986ed6455a1", "0a6de982241e5cbf", "0373a1a042524189"),
    ("umi-sc-desk", 3): ("a5123583d388f00c", "42b7ffba31c8b715", "45b9b0d1d4ab3315"),
}


@pytest.mark.parametrize("world, seed", sorted(_PINNED_CTM))
def test_ctm_rates_powers_and_unlinked_sars_are_pinned(world, seed):
    """A CtM solve's rates, powers and unlinked humans' SARs keep the bits
    of the least power vector that 0.7.2 returns, searched up from 0 W."""
    scenario = builtin_scenario(world, seed)
    _, bundle = solve_ctm(Evaluator(scenario, seed, 10))
    unlinked = [h.id for h in scenario.humans if h.linked_user is None]
    assert unlinked and bundle.feasible

    def digest(values):
        return hashlib.sha256(np.array(values, dtype=float).tobytes()).hexdigest()[:16]

    assert (digest(list(bundle.per_user_rate.values())),
            digest(list(bundle.per_poa_power.values())),
            digest([bundle.per_human_sar[hid] for hid in unlinked])) == _PINNED_CTM[world, seed]


@pytest.mark.parametrize("field", ["scenario", "seed", "n_realizations"])
def test_solve_ctm_solves_the_evaluators_channels(tiny_scenario, field):
    """An Evaluator of another scenario, seed or realization count is
    solved on: the verdict is a fresh Evaluator's of that world, the floors
    hold there, the k-means geometry is ``CtmConfig(seed=evaluator.seed)``'s,
    and the powers follow the Evaluator's channels."""
    base = dict(scenario=tiny_scenario, seed=7, n_realizations=4)
    args = dict(base)
    args[field] = {"scenario": make_tiny_scenario(required_rate=20e6), "seed": 8,
                   "n_realizations": 3}[field]
    _, base_bundle = solve_ctm(Evaluator(**base))
    solution, bundle = solve_ctm(Evaluator(**args))
    assert repr(bundle) == repr(Evaluator(**args).metrics(solution))
    assert bundle.feasible and Evaluator(**args).unmet_floors(solution) == []
    geometry = build_geometry(args["scenario"], CtmConfig(seed=args["seed"]))
    assert solution.beams == geometry.beams
    assert repr(bundle) != repr(base_bundle)


def test_solve_ctm_stacks_its_beams_once(monkeypatch):
    """The least power vector, its confirming verdict and the closing
    verdict read one ``GainStack``: solve_ctm builds it and the Evaluator's
    stack of no beams, and no other."""
    import cellless.radio_metrics as radio_metrics

    stacks, stack = [], radio_metrics.GainStack
    monkeypatch.setattr(radio_metrics, "GainStack",
                        lambda *fields: stacks.append(stack(*fields)) or stacks[-1])
    scenario = builtin_scenario("inf-dh-desk", 1)
    solution, bundle = solve_ctm(Evaluator(scenario, 1, 2))
    assert bundle.feasible and len(stacks) == 2
    assert set(stacks[0].beams) == {None}
    assert sorted(map(id, stacks[1].beams)) == sorted(map(id, solution.beams))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_ctm_serves_no_user_too_close(seed):
    """CtM's matching keeps the minimum serving distance: on a world with a
    user 1 m from its nearest PoA, which the matching gives that PoA once
    the distance is 0 m, the geometry and the solve are legal (or the solve
    proves that no power vector is feasible)."""
    world = too_close_world(seed)
    user, near = world.users[0].id, nearest_poa(world, world.users[0])
    unbarred = build_geometry(replace(world, min_poa_user_distance=0.0), CtmConfig(seed=seed))
    assert serving_beam(unbarred, user).owner_poa == near.id
    geometry = build_geometry(world, CtmConfig(seed=seed))
    assert validate(geometry, world) == [] and serving_beam(geometry, user).owner_poa != near.id
    try:
        solution, bundle = solve_ctm(Evaluator(world, seed, 2))
    except NoFeasibleSolutionError:
        return
    assert validate(solution, world) == [] and bundle.feasible


@pytest.mark.parametrize("field", ["delta_db", "refinement_rounds", "kmeans_restarts"])
def test_ctm_config_has_no_removed_knobs(field):
    """The power step solves for the least power vector and k-means keeps
    the best of ``KMEANS_RESTARTS`` runs, so CtmConfig takes no step size,
    refinement count or restart count."""
    with pytest.raises(TypeError, match=field):
        CtmConfig(**{field: 1})


def test_nan_rate_floors_raise_instead_of_descending_forever():
    """A NaN floor is never met, so a world with NaN floors is infeasible at
    maximum power, and the least power vector blocks on it without a numpy
    warning. ``EndUser`` refuses a NaN floor, so the floors are set past its
    check. Run in a fresh interpreter, so a power step that never stops
    fails on the timeout instead of hanging the suite."""
    code = (
        "import math; "
        "from cellless.scenario import builtin_scenario; "
        "from cellless.radio_metrics import Evaluator; "
        "from cellless.solver_ctm import NoFeasibleSolutionError, solve_ctm; "
        "s = builtin_scenario('inf-dh-desk', 1); "
        "[object.__setattr__(u, 'required_rate', math.nan) for u in s.users]\n"
        "try: solve_ctm(Evaluator(s, 1, 2))\n"
        "except NoFeasibleSolutionError as e: print(len(e.violated))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "20"   # every user's floor
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
