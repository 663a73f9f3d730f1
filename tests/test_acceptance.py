"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
verdict lines for passing criteria as they are printed).
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cellless.antenna import (ISOTROPIC, THREEGPP_8DBI, PanelGeometry,
                              SteeringDirection, element_gain_db, panel_field)
from cellless.channel import (ChannelParams, LosModel, PathlossCoeffs, dbm_to_watts,
                              direct_paths, link_seed_words, link_terms, sample_link,
                              seeded_rngs, steered_energy)
from cellless.exposure import FrequencyMap, PhantomProfile, sar_wb
from cellless.harness import ExperimentSpec, run_experiment
from cellless.radio_metrics import Evaluator, evaluate
from cellless.scenario import (Position3D, Scenario, builtin_scenario,
                               builtin_template, generate_placements)
from cellless.scenario import EndUser, PoA
from cellless.solver_ctm import (Clustering, CtmConfig,
                                 NoFeasibleSolutionError, beam_geometry,
                                 cluster_users, match_clusters, solve_ctm)
from cellless.solver_maxrate import AnnealConfig, solve_maxrate

from conftest import make_tiny_scenario, serve_all_solution

SEEDS = tuple(range(1, 11))
CTM_CFG = CtmConfig(realizations_per_check=10)
SA_CFG = AnnealConfig(iterations=40, moves_per_temp=10,
                      realizations_per_check=10)


def verdict(num, name, ok):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} ({name}) failed"


# ---------------------------------------------------------------------------
# Shared solver runs (criteria 1, 2, 3, 6)

@pytest.fixture(scope="module")
def inf_runs():
    t0 = time.perf_counter()
    out = []
    for seed in SEEDS:
        scenario = builtin_scenario("inf-dh-desk", seed)
        cfg = replace(CTM_CFG, seed=seed)
        ctm_sol, ctm_m = solve_ctm(scenario, cfg)
        sa_sol, sa_m = solve_maxrate(scenario, replace(SA_CFG, seed=seed))
        out.append(dict(seed=seed, scenario=scenario, cfg=cfg,
                        ctm=(ctm_sol, ctm_m), maxrate=(sa_sol, sa_m)))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def umi_runs():
    out = []
    for seed in SEEDS:
        scenario = builtin_scenario("umi-sc-desk", seed)
        cfg = replace(CTM_CFG, seed=seed)
        sol, m = solve_ctm(scenario, cfg)
        out.append(dict(seed=seed, scenario=scenario, cfg=cfg, ctm=(sol, m)))
    return out


def test_criterion_01_power_reduction(inf_runs):
    runs, elapsed = inf_runs
    ctm_power = np.median([r["ctm"][1].total_power for r in runs])
    sa_power = np.median([r["maxrate"][1].total_power for r in runs])
    ok = ctm_power <= 0.5 * sa_power and elapsed <= 600.0
    print(f"  ctm median {ctm_power:.3g} W vs maxrate median {sa_power:.3g} W,"
          f" batch time {elapsed:.0f} s")
    verdict(1, "power-reduction", ok)


def test_criterion_02_feasibility_reverified(inf_runs, umi_runs):
    ok = True
    for r in inf_runs[0] + umi_runs:
        sol, m = r["ctm"]
        ok = ok and m.feasible
        fresh = evaluate(sol, r["scenario"], seed=r["seed"], n_realizations=10)
        ok = ok and fresh.feasible
        ok = ok and all(v >= 100e6 for v in fresh.per_user_rate.values())
        ok = ok and all(v <= 0.08 for v in fresh.per_human_sar.values())
        ok = ok and fresh.per_user_rate == m.per_user_rate
    verdict(2, "feasibility-reverified", ok)


def test_criterion_03_scenario_contrast(inf_runs, umi_runs):
    inf_p = np.median([r["ctm"][1].total_power for r in inf_runs[0]])
    umi_p = np.median([r["ctm"][1].total_power for r in umi_runs])
    print(f"  umi median {umi_p:.3g} W vs inf median {inf_p:.3g} W")
    verdict(3, "scenario-contrast", umi_p > inf_p)


# ---------------------------------------------------------------------------
# Criterion 4: Hungarian matching vs exhaustive permutations

def _matching_instance(rng, n):
    poas = tuple(
        PoA(id=f"p{i}",
            position=Position3D(*(float(v) for v in rng.uniform(0, 50, 2)), 6.0),
            frequency=5e9, bandwidth=20e6, max_tx_power_dbm=30.0,
            min_beam_width=0.05, panel_rows=4, panel_cols=4,
            mech_azimuth=0.0, beams=(f"p{i}-b0",), element_pattern=ISOTROPIC)
        for i in range(n))
    scenario = Scenario(
        kind="InF-DH", bounds=(50.0, 50.0, 8.0),
        poas=poas, users=(), humans=(), phantoms={},
        sar_limit=0.08, channel_params=ChannelParams(),
        frequency_map=FrequencyMap({5e9: 5e9}))
    centroids = tuple((float(x), float(y)) for x, y in rng.uniform(0, 50, (n, 2)))
    return scenario, Clustering({}, centroids)


def test_criterion_04_hungarian_oracle():
    rng = np.random.default_rng(44)
    ok = True
    for n in range(2, 8):
        for _ in range(200):
            scenario, clustering = _matching_instance(rng, n)
            beams = scenario.all_beams
            cost = np.array([
                [math.dist((c[0], c[1], 1.5), p.position.as_tuple())
                 for p in scenario.poas]
                for c in clustering.centroids])
            assignment = match_clusters(clustering, beams, scenario,
                                        user_height=1.5)
            got = sum(cost[ci, beams.index(b)] for b, ci in assignment.items())
            best = min(sum(cost[i, perm[i]] for i in range(n))
                       for perm in itertools.permutations(range(n)))
            ok = ok and abs(got - best) <= 1e-9 * max(1.0, best)
    verdict(4, "hungarian-oracle", ok)


# ---------------------------------------------------------------------------
# Criterion 5: beam width vs minimal covering arc oracle

def _arc_oracle(azimuths):
    best = 2.0 * math.pi
    for start in azimuths:
        offsets = [(a - start) % (2.0 * math.pi) for a in azimuths]
        best = min(best, max(offsets))
    return best


def test_criterion_05_beamwidth_oracle():
    rng = np.random.default_rng(55)
    poa = PoA(id="p", position=Position3D(0.0, 0.0, 6.0), frequency=5e9,
              bandwidth=20e6, max_tx_power_dbm=30.0,
              min_beam_width=math.radians(4.0), panel_rows=4, panel_cols=8,
              mech_azimuth=0.0, beams=("p-b0",), element_pattern=ISOTROPIC)
    ok = True
    for i in range(1000):
        n = int(rng.integers(1, 10))
        if i % 3 == 0:
            # Forced wrap-around: cluster straddles the +/- pi seam.
            az = np.array([math.pi - 0.3, -math.pi + 0.3]
                          + list(rng.uniform(math.pi - 0.4, math.pi, n)))
            az = np.where(az > math.pi, az - 2 * math.pi, az)
        else:
            az = rng.uniform(-math.pi, math.pi, n)
        radius = rng.uniform(1.0, 30.0)
        positions = [Position3D(radius * math.cos(a), radius * math.sin(a), 1.5)
                     for a in az]
        want = max(poa.min_beam_width, _arc_oracle(list(az)))
        _, _, got = beam_geometry(poa, positions, (0.0, 0.0))
        ok = ok and abs(got - want) <= 1e-9
    verdict(5, "beamwidth-oracle", ok)


# ---------------------------------------------------------------------------
# Criterion 6: delta-local minimality of every CtM output

def test_criterion_06_delta_local_minimality(inf_runs):
    ok = True
    for r in inf_runs[0]:
        sol, _ = r["ctm"]
        cfg = r["cfg"]
        final_delta = cfg.delta_db / (2 ** cfg.refinement_rounds)
        ev = Evaluator(r["scenario"], cfg.seed, cfg.realizations_per_check)
        assert ev.metrics(sol).feasible
        for pid in sol.active_poas():
            trial = sol.with_power(pid, sol.tx_power[pid] - final_delta)
            ok = ok and not ev.metrics(trial).feasible
    verdict(6, "delta-local-minimality", ok)


# ---------------------------------------------------------------------------
# Criterion 7: k-means small-case oracle

def _exhaustive_wcss(pts, k):
    best = math.inf
    for labels in itertools.product(range(k), repeat=len(pts)):
        total = 0.0
        for j in range(k):
            member = pts[[i for i in range(len(pts)) if labels[i] == j]]
            if len(member):
                total += ((member - member.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def test_criterion_07_kmeans_oracle():
    rng = np.random.default_rng(77)
    hits = 0
    for trial in range(100):
        pts = rng.uniform(0.0, 20.0, (6, 2))
        users = [EndUser(f"u{i}", Position3D(float(x), float(y), 1.5), 1e6)
                 for i, (x, y) in enumerate(pts)]
        c = cluster_users(users, 2, CtmConfig(seed=trial, kmeans_restarts=10))
        wcss = sum(
            (u.position.x - c.centroids[c.assignments[u.id]][0]) ** 2
            + (u.position.y - c.centroids[c.assignments[u.id]][1]) ** 2
            for u in users)
        if wcss <= _exhaustive_wcss(pts, 2) + 1e-9:
            hits += 1
    print(f"  {hits}/100 instances matched the exhaustive optimum")
    verdict(7, "kmeans-oracle", hits >= 95)


# ---------------------------------------------------------------------------
# Criterion 8: channel and field numerics

def test_criterion_08_channel_field_numerics():
    rng = np.random.default_rng(88)
    ok = True

    # a) closed-form panel field vs explicit element sum, 500 draws.
    for _ in range(500):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        pattern = ISOTROPIC if rng.random() < 0.5 else THREEGPP_8DBI
        geom = PanelGeometry(rows, cols, element_pattern=pattern)
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(-math.pi, math.pi))
        steer = SteeringDirection(float(rng.uniform(0, math.pi)),
                                  float(rng.uniform(-math.pi, math.pi)))
        g1 = geom.v_spacing * (math.cos(theta) - math.cos(steer.zenith))
        g2 = geom.h_spacing * (math.sin(phi) * math.sin(theta)
                               - math.sin(steer.azimuth) * math.sin(steer.zenith))
        elem = 10.0 ** (element_gain_db(pattern, theta, phi) / 20.0)
        oracle = elem * sum(
            np.exp(2j * math.pi * (a * g1 + b * g2))
            for a in range(rows) for b in range(cols)) / math.sqrt(rows * cols)
        got = complex(panel_field(geom, theta, phi, steer))
        ok = ok and abs(got - oracle) <= 1e-9 * max(1.0, abs(oracle))

    # b) cluster powers sum to one per realization.
    params = ChannelParams(los_model=LosModel("umi"))
    links = sample_link(direct_paths((0, 0, 10), 3.5e9, [(40, 9, 1.5)], params), params,
                        seeded_rngs(link_seed_words(8, range(100), 0, [0])))
    ok = ok and bool(np.all(np.abs(links.cluster_powers.sum(axis=-1) - 1.0) <= 1e-12))

    # c) pathloss strictly monotone in distance.
    for coeffs in (PathlossCoeffs(31.84, 21.5, 19.0),
                   PathlossCoeffs(22.4, 35.3, 21.3)):
        vals = coeffs.db(np.linspace(1.0, 800.0, 400), 3.5e9)
        ok = ok and bool(np.all(np.diff(vals) > 0.0))

    # d) K = 1e6 energy within 0.1% of the pure-LoS closed form.  Wide
    # angular spreads plus a large panel steered at the direct path keep
    # the scattered rays in sidelobes, so the residual O(K^-1/2) cross
    # term stays well below the tolerance instead of sitting on it.
    wide = ChannelParams(azimuth_spread_dep=math.pi / 2,
                         zenith_spread_dep=math.pi / 4,
                         los_model=LosModel("umi"))
    geom = PanelGeometry(16, 32, element_pattern=ISOTROPIC)
    paths = direct_paths((0, 0, 10), 3.5e9, [(40, 9, 1.5)], wide)
    links = sample_link(paths, wide, seeded_rngs(link_seed_words(9, range(20), 0, [0])))
    links = replace(links, los=np.ones_like(links.los),
                    rician_k=np.full(links.rician_k.shape, 1e6))
    zenith, azimuth = float(paths.zenith[0]), float(paths.azimuth[0])
    steer = SteeringDirection(zenith, azimuth)
    # Field amplitude at 20 dBm: sqrt of the linear received power [W].
    scale = 10.0 ** ((20.0 - 30.0 - links.pathloss_db + links.shadow_db) / 20.0)
    closed = scale ** 2 * abs(complex(panel_field(geom, zenith, azimuth, steer))) ** 2
    got = dbm_to_watts(20.0) * steered_energy(link_terms(links, geom), geom, steer)
    ok = ok and bool(np.all(np.abs(got - closed) <= 1e-3 * closed))
    verdict(8, "channel-field-numerics", ok)


# ---------------------------------------------------------------------------
# Criterion 9: exposure laws

def test_criterion_09_exposure_laws():
    rng = np.random.default_rng(99)
    ok = True

    fmap = FrequencyMap({3.5e9: 2.45e9})
    phantom = PhantomProfile("t", bmi=24.0, sar_ref={2.45e9: 3.2e-4})
    base = sar_wb({3.5e9: 1.0}, phantom, fmap)
    for c in rng.uniform(0.0, 10.0, 300):
        got = sar_wb({3.5e9: float(c)}, phantom, fmap)
        ok = ok and abs(got - c * c * base) <= 1e-12 * max(base, got, 1e-300)

    ident = PhantomProfile("r", bmi=22.0, sar_ref={2.45e9: 3.2e-4},
                           bmi_ref=22.0, e_ref=2.45)
    ok = ok and sar_wb({3.5e9: 2.45}, ident, fmap) == 3.2e-4

    # End-to-end: halving every transmit power halves every SAR under the
    # frozen channel realizations.
    scenario = make_tiny_scenario()
    sol = serve_all_solution(scenario)
    ev = Evaluator(scenario, seed=4, n_realizations=6)
    full = ev.metrics(sol)
    half = sol
    for pid in sol.tx_power:
        half = half.with_power(pid, sol.tx_power[pid] - 10.0 * math.log10(2.0))
    halved = ev.metrics(half)
    for hid in full.per_human_sar:
        ok = ok and abs(halved.per_human_sar[hid]
                        - 0.5 * full.per_human_sar[hid]) \
            <= 1e-9 * full.per_human_sar[hid]
    verdict(9, "exposure-laws", ok)


# ---------------------------------------------------------------------------
# Criterion 10: determinism across workers and polynomial runtime

def _strip_wall_time(text):
    return "\n".join(line for line in text.splitlines()
                     if '"wall_time_s"' not in line)


def test_criterion_10_determinism_and_complexity(tmp_path):
    ok = True

    # a) identical outputs for worker counts 1, 4, 8 at a fixed seed.
    cfg = CtmConfig(delta_db=4.0, refinement_rounds=0, kmeans_restarts=3,
                    realizations_per_check=5)
    outs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}"
        run_experiment(ExperimentSpec(
            scenario="inf-dh-desk", solver="ctm", seeds=(1, 2),
            n_realizations=5, out_dir=str(out), ctm=cfg, workers=workers))
        outs.append(out)
    ref = outs[0]
    files = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
    for other in outs[1:]:
        for rel in files:
            a, b = (ref / rel).read_text(), (other / rel).read_text()
            if rel.name == "summary.json":
                a, b = _strip_wall_time(a), _strip_wall_time(b)
            ok = ok and a == b

    # b) CtM runtime grows at most cubically with the user count.
    sizes = (25, 50, 100, 200)
    times = []
    for n in sizes:
        template = replace(builtin_template("inf-dh-desk"), n_users=n,
                           n_humans=n, min_user_spacing=0.0)
        scenario = generate_placements(template, 1)
        t0 = time.perf_counter()
        try:
            solve_ctm(scenario, CtmConfig(seed=1, delta_db=6.0,
                                          refinement_rounds=0,
                                          kmeans_restarts=3,
                                          realizations_per_check=3))
        except NoFeasibleSolutionError:
            pass
        times.append(time.perf_counter() - t0)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    print(f"  runtimes {['%.2f' % t for t in times]} s, log-log slope {slope:.2f}")
    ok = ok and slope <= 3.0
    verdict(10, "determinism-and-complexity", ok)
