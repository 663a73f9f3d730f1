"""Cluster-then-Match: k-means clustering, Hungarian beam matching, the
beams of that association (``geometry_of``), and the least power vector
that meets every floor on the matched beams (``Evaluator.least_powers``),
or the proof that none up to the PoAs' maxima does.

The matching decides which PoA serves each non-empty cluster; one fixed
rule in ``match_clusters`` then decides which of that PoA's beams does, so
the result does not depend on how an assignment solver breaks ties.
``geometry_of`` turns any association, CtM's or another scheme's, into
beams by one steering and width rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import departure_angles
from .radio_metrics import Evaluator
from .scenario import _AT_LEAST_ONE, _NON_NEGATIVE, Scenario, _check_fields, _ranged
from .solution import BeamConfig, SolutionState, too_close

KMEANS_RESTARTS = 10     # k-means++ starts; the one with the least WCSS is kept
KMEANS_MAX_ITERS = 100   # Lloyd iterations per restart unless labels settle first


class NoFeasibleSolutionError(RuntimeError):
    """No power vector up to the PoAs' maxima meets every rate floor and
    SAR ceiling on the solution's beams.

    ``blocking`` maps each PoA whose power requirement crossed its maximum
    (``Evaluator.least_powers``' proof) to its binding user; it is empty
    when the least power vector meets every floor but breaks a SAR
    ceiling. ``violated`` lists the rate
    floors and SAR ceilings (``rate:<user>``, ``sar:<human>``) that every
    PoA at its maximum misses.
    """

    SHOWN = 5   # ids quoted in the message

    def __init__(self, violated, blocking):
        self.violated, self.blocking = list(violated), dict(blocking)
        shown = ", ".join(self.violated[:self.SHOWN])
        if len(self.violated) > self.SHOWN:
            shown += ", ..."
        why = (", ".join(f"{pid} cannot meet {uid}'s floor" for pid, uid in self.blocking.items())
               or "the least power vector breaks a SAR ceiling")
        super().__init__(f"no feasible solution: {why}; "
                         f"{len(self.violated)} violated at maximum power: {shown}")

    def __reduce__(self):
        return type(self), (self.violated, self.blocking)


@dataclass(frozen=True)
class CtmConfig:
    # read by no solver; perfbench/run.py:181 writes it
    realizations_per_check: int = _ranged(10, _AT_LEAST_ONE)
    seed: int = _ranged(0, _NON_NEGATIVE)   # seeds the k-means restarts

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class Clustering:
    assignments: dict          # user id -> cluster index
    centroids: tuple           # (x, y) per cluster, or None when empty

    def members(self, k):
        return sorted(u for u, c in self.assignments.items() if c == k)


# ---------------------------------------------------------------------------
# Step 1: clustering

def _kmeans_once(pts, k, rng):
    n = len(pts)
    # k-means++ seeding
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
    for _ in range(KMEANS_MAX_ITERS):
        dist = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # Each cluster's points added in index order, then divided by their
        # count, as ``pts[labels == j].mean(axis=0)`` does; an empty cluster
        # keeps its centroid.
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=w, minlength=k) for w in pts.T], axis=1)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
    dist = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = dist.argmin(axis=1)
    wcss = float(dist[np.arange(n), labels].sum())
    return labels, centroids, wcss


def cluster_users(users, k: int, config: CtmConfig) -> Clustering:
    """Best of ``KMEANS_RESTARTS`` k-means runs on user (x, y) positions,
    seeded by ``config.seed``.

    When k exceeds the number of users the surplus clusters stay empty
    (their beams end up disabled).
    """
    if k < 1:
        raise ValueError("need at least one cluster")
    if not users:
        return Clustering({}, tuple(None for _ in range(k)))
    pts = np.array([[u.position.x, u.position.y] for u in users])
    n = len(users)
    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 0x6B6D]))

    if k >= n:
        # Distinct points get singleton clusters; duplicates share one,
        # surplus clusters stay empty.
        uniq, labels = np.unique(pts, axis=0, return_inverse=True)
        centroids = [tuple(uniq[j]) for j in range(len(uniq))] + [None] * (k - len(uniq))
        assignments = {u.id: int(labels[i]) for i, u in enumerate(users)}
        return Clustering(assignments, tuple(centroids))

    best = None
    for _ in range(KMEANS_RESTARTS):
        labels, centroids, wcss = _kmeans_once(pts, k, rng)
        if best is None or wcss < best[2] - 1e-12:
            best = (labels, centroids, wcss)
    labels, centroids, _ = best
    assignments = {u.id: int(labels[i]) for i, u in enumerate(users)}
    cent = tuple(
        tuple(centroids[j]) if (labels == j).any() else None for j in range(k)
    )
    return Clustering(assignments, cent)


# ---------------------------------------------------------------------------
# Step 2: matching

def _assign(cost):
    """Minimum-cost matching of every row of an (r, k) matrix of finite
    costs, r <= k, to distinct columns: the column matched to each row.

    The Hungarian method in its potentials form (Kuhn, Naval Res. Logist.
    Q. 1955; Jonker & Volgenant, Computing 1987): each row in turn grows a
    shortest augmenting path in reduced costs from a virtual root column to
    a free column, and the path's edges then flip. Ties are broken however
    ``argmin`` breaks them; callers must not depend on which of several
    optimal matchings is returned.
    """
    cost = np.asarray(cost, dtype=float)
    r, k = cost.shape
    if r > k:
        raise ValueError(f"cannot match {r} rows to {k} columns")
    u, v = np.zeros(r), np.zeros(k + 1)
    row4col = np.full(k + 1, -1)        # column k is the root of every search
    for row in range(r):
        row4col[k], j = row, k
        shortest, way = np.full(k, math.inf), np.full(k, k)
        seen = np.zeros(k + 1, dtype=bool)
        while row4col[j] != -1:
            seen[j] = True
            i = row4col[j]
            reduced = cost[i] - u[i] - v[:k]
            lower = ~seen[:k] & (reduced < shortest)
            shortest[lower], way[lower] = reduced[lower], j
            j = int(np.argmin(np.where(seen[:k], math.inf, shortest)))
            delta = shortest[j]
            u[row4col[seen]] += delta
            v[seen] -= delta
            shortest[~seen[:k]] -= delta
        while j != k:                   # flip the path back to the root
            row4col[j], j = row4col[way[j]], way[j]
    col4row = np.empty(r, dtype=int)
    matched = np.flatnonzero(row4col[:k] != -1)
    col4row[row4col[matched]] = matched
    return col4row


def match_clusters(clustering: Clustering, beams, scenario: Scenario) -> dict:
    """Minimum-distance one-to-one beam-to-cluster assignment.

    The cost of a beam for a non-empty cluster is the 3-D distance
    (``departure_angles``) from the beam's PoA to the cluster centroid at
    one height for every cluster: the mean height of all the clustered
    users (1.5 m with none). ``beam_geometry`` instead steers each beam to
    its own users' mean height, so on a world whose users stand at
    different heights (umi-sc: 0.9 and 1.5 m) the two heights differ.

    Only the non-empty clusters are matched (``_assign``): an empty one
    costs nothing to any beam, so leaving it out cannot change the
    optimum. A PoA ``too_close`` to a member of a cluster may not serve
    it: that pair costs more than all pairs' costs added up, so the
    matching uses no such pair whenever one without any exists.

    A PoA's beams share its position, panel and power, so the matching
    only decides how many and which clusters each PoA gets. Each PoA then
    hands the clusters it won to its listed beams in ``poa.beams`` order,
    lowest cluster index first, and its remaining beams take the empty
    clusters in the same order, PoA by PoA. The result does not depend on
    the order of ``beams`` or on which of a PoA's tied columns the solver
    picked. One tie stays the solver's: two PoAs at exactly equal distance
    from one centroid.
    """
    k = len(clustering.centroids)
    if len(beams) != k:
        raise ValueError(f"need exactly {k} beams for {k} clusters, got {len(beams)}")
    users = [scenario.user_by_id(u) for u in clustering.assignments]
    user_height = float(np.mean([u.position.z for u in users])) if users else 1.5
    owners = [scenario.beam_owner(b) for b in beams]
    filled = [ci for ci, c in enumerate(clustering.centroids) if c is not None]
    centroids = np.array([(*clustering.centroids[ci], user_height) for ci in filled])
    cost = departure_angles([p.position.as_tuple() for p in owners], centroids.reshape(-1, 1, 3))[2]
    barred = np.zeros((len(filled), len(scenario.poas)), dtype=bool)  # cluster, PoA
    for user, c in zip(users, clustering.assignments.values()):
        barred[filled.index(c)] |= [too_close(p, user, scenario) is not None for p in scenario.poas]
    cost[barred[:, [scenario.index.owners[b] for b in beams]]] = cost.sum() + 1.0
    listed = set(beams)
    free = {p.id: iter([b for b in p.beams if b in listed]) for p in scenario.poas}
    assignment = {next(free[owners[bi].id]): ci for ci, bi in zip(filled, _assign(cost).tolist())}
    empty = iter(ci for ci, c in enumerate(clustering.centroids) if c is None)
    for beams_left in free.values():
        assignment.update((b, next(empty)) for b in beams_left)
    return assignment


# ---------------------------------------------------------------------------
# Step 3: widths, steering, powers

def covering_arc(azimuths):
    """Smallest circular arc containing all azimuths: (center, width)."""
    az = np.sort(np.asarray(azimuths, dtype=float))
    if az.size == 1:
        return float(az[0]), 0.0
    gaps = np.diff(az, append=az[0] + 2.0 * math.pi)
    i = int(np.argmax(gaps))
    width = 2.0 * math.pi - float(gaps[i])
    start = float(az[(i + 1) % az.size])
    center = start + width / 2.0
    center = math.remainder(center, 2.0 * math.pi)
    if center <= -math.pi:
        center += 2.0 * math.pi
    return center, width


def beam_geometry(poa, served_positions, centroid):
    """(azimuth, zenith, width) of the beam serving ``served_positions``.

    The azimuths of the users' links from the PoA (``departure_angles``)
    have a minimal covering arc (which handles the wrap-around across
    +/-pi); it gives the azimuth, its circular midpoint, and the width,
    floored at the PoA minimum. The zenith points toward the centroid at
    the users' mean height.
    """
    if not served_positions:
        raise ValueError("cannot steer a beam with no served users")
    origin = poa.position.as_tuple()
    azimuths = departure_angles(origin, [p.as_tuple() for p in served_positions])[1]
    phi, width = covering_arc(azimuths)
    cz = float(np.mean([pos.z for pos in served_positions]))
    theta = float(departure_angles(origin, (centroid[0], centroid[1], cz))[0])
    return phi, theta, max(poa.min_beam_width, width)


def geometry_of(scenario: Scenario, groups) -> SolutionState:
    """Every beam of ``scenario.all_beams``, in that order, with every PoA
    at its maximum power: the one rule from an association to beams.

    ``groups`` maps a beam id to (user ids, centroid (x, y)). A beam with a
    group serves its users, sorted, and ``beam_geometry`` steers it; every
    other beam is idle: azimuth 0, zenith pi/2, its PoA's minimum width and
    no users.
    """
    beam_configs = []
    for beam_id in scenario.all_beams:
        poa = scenario.beam_owner(beam_id)
        users, centroid = groups.get(beam_id, ((), None))
        users = sorted(users)
        steering = (beam_geometry(poa, [scenario.user_by_id(u).position for u in users], centroid)
                    if users else (0.0, math.pi / 2.0, poa.min_beam_width))
        beam_configs.append(BeamConfig(beam_id, poa.id, *steering, frozenset(users)))
    tx_power = {p.id: p.max_tx_power_dbm for p in scenario.poas}
    return SolutionState(beams=tuple(beam_configs), tx_power=tx_power)


def build_geometry(scenario: Scenario, config: CtmConfig) -> SolutionState:
    """CtM steps 1-2 (``cluster_users``, then ``match_clusters``) and the
    beams of that association (``geometry_of``): all PoAs at max power."""
    beams = scenario.all_beams
    clustering = cluster_users(list(scenario.users), len(beams), config)
    assignment = match_clusters(clustering, beams, scenario)
    return geometry_of(scenario, {b: (clustering.members(c), clustering.centroids[c])
                                  for b, c in assignment.items()})


def reduce_powers(solution: SolutionState, evaluator: Evaluator):
    """The solution's beams at their least power vector on the evaluator's
    channel realizations (``Evaluator.least_powers``: each active PoA at
    most ``ROUND_UP_DB`` above the least dBm at which its users meet their
    floors, capped at its maximum and, when the solution's powers meet
    every floor, at its power there), confirmed by one
    ``Evaluator.metrics``; returns (SolutionState, MetricsBundle), that
    state and its confirming verdict. A PoA without an active beam keeps
    its power.

    Raises ``NoFeasibleSolutionError`` when ``least_powers`` proves that no
    vector up to the maxima meets every floor, or when the least vector
    breaks a SAR ceiling: SAR rises in every power, and every vector that
    meets the floors is at least that vector less the round-up. Its
    ``violated`` is the verdict with every PoA at its maximum. A least
    vector that misses a floor in ``metrics``, which proves nothing,
    raises ``RuntimeError``.
    """
    tx_power, _, blocking = evaluator.least_powers(solution)
    if not blocking:
        solved = replace(solution, tx_power={**solution.tx_power, **tx_power})
        bundle = evaluator.metrics(solved)
        if bundle.feasible:
            return solved, bundle
        if any(v.startswith("rate:") for v in bundle.violated):
            raise RuntimeError(f"the least power vector misses {', '.join(bundle.violated)}")
    at_max = replace(solution, tx_power={p.id: p.max_tx_power_dbm
                                         for p in evaluator.scenario.poas})
    raise NoFeasibleSolutionError(evaluator.metrics(at_max).violated, blocking)


def solve_ctm(evaluator: Evaluator):
    """Solve ``evaluator.scenario`` on ``evaluator``'s channel realizations;
    returns (SolutionState, MetricsBundle).

    The geometry is ``build_geometry``'s with
    ``CtmConfig(seed=evaluator.seed)``, so the Evaluator's seed seeds the
    k-means restarts. Every verdict is read on ``evaluator``, which is left
    holding the solved beams' tables and stack, so a dump of the solution
    then reads them. The beams are stacked once, for the least power
    vector and its one verdict: ``reduce_powers``' confirming verdict is
    the bundle returned.

    Raises NoFeasibleSolutionError when no power vector up to the PoAs'
    maxima meets every rate floor and exposure ceiling.
    """
    scenario = evaluator.scenario
    geometry = build_geometry(scenario, CtmConfig(seed=evaluator.seed))
    if not any(b.active for b in geometry.beams):
        off = replace(geometry, tx_power={p.id: -math.inf for p in scenario.poas})
        return off, evaluator.metrics(off)
    return reduce_powers(geometry, evaluator)
