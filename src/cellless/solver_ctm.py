"""Cluster-then-Match: k-means clustering, Hungarian beam matching, and
delta-stepped power descent with bisection refinement.

The matching is solved by ``_assign``, Crouse's shortest augmenting path
method transcribed from scipy's ``linear_sum_assignment``; the package
does not import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .radio_metrics import Evaluator, MetricsBundle, _integer
from .scenario import Scenario
from .solution import BeamConfig, SolutionState

KMEANS_MAX_ITERS = 100   # Lloyd iterations per restart unless labels settle first


class NoFeasibleSolutionError(RuntimeError):
    """The all-max-power starting solution is already infeasible.

    ``violated`` lists the rate floors and SAR ceilings (``rate:<user>``,
    ``sar:<human>``) that it misses.
    """

    SHOWN = 5   # ids quoted in the message

    def __init__(self, violated):
        self.violated = list(violated)
        shown = ", ".join(self.violated[:self.SHOWN])
        if len(self.violated) > self.SHOWN:
            shown += ", ..."
        super().__init__(f"no feasible solution at maximum transmit power; "
                         f"{len(self.violated)} violated: {shown}")

    def __reduce__(self):
        return type(self), (self.violated,)


@dataclass(frozen=True)
class CtmConfig:
    delta_db: float = 1.0
    refinement_rounds: int = 3
    kmeans_restarts: int = 10
    realizations_per_check: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("refinement_rounds", "kmeans_restarts", "realizations_per_check", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 0 < self.delta_db < math.inf:
            raise ValueError("delta_db must be positive and finite")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be non-negative")
        if self.kmeans_restarts < 1:
            raise ValueError("kmeans_restarts must be >= 1")
        if self.realizations_per_check < 1:
            raise ValueError("realizations_per_check must be >= 1")


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
        for j in range(k):
            mask = labels == j
            if mask.any():
                centroids[j] = pts[mask].mean(axis=0)
    dist = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = dist.argmin(axis=1)
    wcss = float(dist[np.arange(n), labels].sum())
    return labels, centroids, wcss


def cluster_users(users, k: int, config: CtmConfig) -> Clustering:
    """Best-of-restarts k-means on user (x, y) positions.

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
    for _ in range(config.kmeans_restarts):
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
    """Minimum-cost perfect matching on a square matrix of finite costs:
    the column matched to each row.

    Crouse's shortest augmenting path method (D. F. Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 2016),
    transcribed from scipy's ``rectangular_lsap.cpp`` so that it returns
    the same matching as ``scipy.optimize.linear_sum_assignment``, ties
    included: the columns left to scan start in reverse order and lose
    their picked entry by swap-remove, path costs fall only on a strict
    ``<``, the cheapest pick prefers an unmatched column on equal cost,
    and every sum is taken in scipy's order. Equal-cost beams of one PoA
    and empty clusters make such ties the rule, and they decide which beam
    serves which users.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    u, v = np.zeros(n), np.zeros(n)
    path = np.full(n, -1)
    col4row, row4col = np.full(n, -1), np.full(n, -1)
    for cur_row in range(n):
        # Shortest augmenting path from cur_row to an unmatched column.
        shortest = np.full(n, math.inf)
        remaining = np.arange(n - 1, -1, -1)
        rows_seen, cols_seen = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        min_val, i = 0.0, cur_row
        while True:
            rows_seen[i] = True
            r = min_val + cost[i, remaining] - u[i] - v[remaining]
            lower = r < shortest[remaining]
            path[remaining[lower]] = i
            shortest[remaining[lower]] = r[lower]
            scanned = shortest[remaining]
            lowest = scanned.min()
            # scipy's scan keeps the first lowest entry, then moves on to
            # each later tied entry whose column is unmatched.
            tied = np.flatnonzero(scanned == lowest)
            free = tied[row4col[remaining[tied]] == -1]
            index = free[-1] if free.size else tied[0]
            min_val = lowest
            j = remaining[index]
            cols_seen[j] = True
            if row4col[j] == -1:
                break                     # j is the sink: an unmatched column
            i = row4col[j]
            remaining[index] = remaining[-1]
            remaining = remaining[:-1]

        # Dual update, then flip the matched and unmatched edges of the
        # path from the sink back to cur_row.
        u[cur_row] += min_val
        rows_seen[cur_row] = False
        u[rows_seen] += min_val - shortest[col4row[rows_seen]]
        v[cols_seen] -= min_val - shortest[cols_seen]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def match_clusters(clustering: Clustering, beams, scenario: Scenario,
                   user_height: float | None = None) -> dict:
    """Optimal one-to-one beam-to-cluster assignment (Hungarian).

    Cost is the 3-D Euclidean distance from the beam's PoA to the cluster
    centroid at user height; empty clusters cost nothing to any beam.
    """
    k = len(clustering.centroids)
    if len(beams) != k:
        raise ValueError(f"need exactly {k} beams for {k} clusters, got {len(beams)}")
    if user_height is None:
        heights = [scenario.user_by_id(u).position.z for u in clustering.assignments]
        user_height = float(np.mean(heights)) if heights else 1.5
    cost = np.zeros((k, len(beams)))
    for ci, centroid in enumerate(clustering.centroids):
        if centroid is None:
            continue
        for bi, beam_id in enumerate(beams):
            p = scenario.beam_owner(beam_id).position
            cost[ci, bi] = math.sqrt(
                (centroid[0] - p.x) ** 2 + (centroid[1] - p.y) ** 2
                + (user_height - p.z) ** 2)
    return {beams[bi]: ci for ci, bi in enumerate(_assign(cost).tolist())}


# ---------------------------------------------------------------------------
# Step 3: widths, steering, powers

def user_azimuth(poa_pos, user_pos) -> float:
    """Azimuth of the user as seen from the PoA, in (-pi, pi].

    Equal to sgn(dy) * arccos(dx / d2d) wherever that is defined; the
    coincident (x, y) case maps to 0.
    """
    dx = user_pos.x - poa_pos.x
    dy = user_pos.y - poa_pos.y
    if dx == 0.0 and dy == 0.0:
        return 0.0
    return math.atan2(dy, dx)


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

    The user azimuths' minimal covering arc (which handles the wrap-around
    across +/-pi) gives the azimuth, its circular midpoint, and the width,
    floored at the PoA minimum; the zenith points toward the centroid at
    the users' mean height.
    """
    if not served_positions:
        raise ValueError("cannot steer a beam with no served users")
    phi, width = covering_arc([user_azimuth(poa.position, pos) for pos in served_positions])
    cz = float(np.mean([pos.z for pos in served_positions]))
    dx = centroid[0] - poa.position.x
    dy = centroid[1] - poa.position.y
    dz = cz - poa.position.z
    d3d = math.sqrt(dx * dx + dy * dy + dz * dz)
    theta = math.acos(max(-1.0, min(1.0, dz / d3d))) if d3d > 0 else 0.0
    return phi, theta, max(poa.min_beam_width, width)


def build_geometry(scenario: Scenario, config: CtmConfig) -> SolutionState:
    """CtM steps 1-2 plus width/steering: all PoAs at max power."""
    beams = scenario.all_beams
    clustering = cluster_users(list(scenario.users), len(beams), config)
    assignment = match_clusters(clustering, beams, scenario)
    beam_configs = []
    for beam_id in beams:
        poa = scenario.beam_owner(beam_id)
        cluster_idx = assignment[beam_id]
        members = clustering.members(cluster_idx)
        if not members or clustering.centroids[cluster_idx] is None:
            beam_configs.append(BeamConfig(beam_id, poa.id, 0.0, math.pi / 2.0,
                                           poa.min_beam_width, frozenset()))
            continue
        positions = [scenario.user_by_id(u).position for u in members]
        centroid = clustering.centroids[cluster_idx]
        phi, theta, width = beam_geometry(poa, positions, centroid)
        beam_configs.append(BeamConfig(beam_id, poa.id, phi, theta, width,
                                       frozenset(members)))
    tx_power = {p.id: p.max_tx_power_dbm for p in scenario.poas}
    return SolutionState(beams=tuple(beam_configs), tx_power=tx_power)


def reduce_powers(solution: SolutionState, evaluator: Evaluator,
                  config: CtmConfig) -> SolutionState:
    """Per-PoA power descent: delta steps while feasible, then halved deltas.

    Feasibility is checked on the evaluator's channel realizations for the
    whole descent, making it a deterministic, monotone process. Each round sweeps
    the PoAs (descending power, then id) until a full sweep makes no
    reduction, so at the final delta no single PoA can take another step.
    The beams never change, so their gains are stacked once.

    The max-power start gets the full verdict, one ``Evaluator.metrics``
    call; it fills the human columns, which only that verdict and the
    closing ``metrics`` read. A trial step then lowers one PoA ``p`` from
    a feasible state, and only ``p``'s own users can lose their floor: one
    PoA's beams do not interfere with each other, so ``p``'s power is in
    no other user's signal and only in co-channel users' interference; and
    interference and SAR are monotone in every power (rounding included),
    so neither rises when ``p`` falls. The trial's full verdict is
    therefore the rate floors of ``p``'s users, read from the users-only
    stack (``Evaluator.unmet_floors``), and by induction every trial
    starts from a feasible state.
    """
    violated = evaluator.metrics(solution).violated
    if violated:
        raise NoFeasibleSolutionError(violated)

    stack = evaluator.stack(solution, humans=False)
    served = {pid: sorted(uid for b in solution.beams_of(pid) for uid in b.served_users)
              for pid in solution.active_poas()}

    def floors_met(pid, sol):
        return not evaluator.unmet_floors(stack, sol.tx_power, served[pid])

    current = solution
    active = set(current.active_poas())
    for round_idx in range(config.refinement_rounds + 1):
        delta = config.delta_db / (2 ** round_idx)
        changed = True
        while changed:
            changed = False
            order = sorted(active, key=lambda pid: (-current.tx_power[pid], pid))
            for pid in order:
                while True:
                    trial = current.with_power(pid, current.tx_power[pid] - delta)
                    if floors_met(pid, trial):
                        current = trial
                        changed = True
                    else:
                        break
    return current


def solve_ctm(scenario: Scenario, config: CtmConfig | None = None):
    """Full pipeline; returns (SolutionState, MetricsBundle).

    Raises NoFeasibleSolutionError when even maximum power cannot satisfy
    every rate floor and exposure ceiling.
    """
    config = config or CtmConfig()
    geometry = build_geometry(scenario, config)
    evaluator = Evaluator(scenario, config.seed, config.realizations_per_check)
    if not any(b.active for b in geometry.beams):
        off = replace(geometry, tx_power={p.id: -math.inf for p in scenario.poas})
        return off, evaluator.metrics(off)
    solved = reduce_powers(geometry, evaluator, config)
    return solved, evaluator.metrics(solved)
