"""Experiment orchestration: seeded runs, paired solver comparisons,
aggregation across seeds, and tidy plot-data emission."""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import dbm_to_watts
from .radio_metrics import Evaluator, MetricsBundle
from .scenario import (Scenario, builtin_template, BUILTIN_TEMPLATES,
                       generate_placements, load_scenario)
from .solution import SolutionState, save_solution
from .solver_ctm import CtmConfig, NoFeasibleSolutionError, solve_ctm
from .solver_maxrate import AnnealConfig, solve_maxrate

SOLVERS = ("ctm", "maxrate")
METRIC_COLUMNS = ("kind", "id", "x_m", "y_m", "rate_bps", "phantom", "sar_wkg")
# Plot kind -> CSV header. CDF kinds: (solver, value, cdf); map kinds:
# (solver, seed, target id) then columns copied from metrics.csv.
PLOT_COLUMNS = {
    "power-bars": ("solver", "seed", "poa_id", "power_w"),
    "rate-cdf": ("solver", "rate_bps", "cdf"),
    "sar-cdf": ("solver", "sar_wkg", "cdf"),
    "rate-map": ("solver", "seed", "user_id", "x_m", "y_m", "rate_bps"),
    "sar-map": ("solver", "seed", "human_id", "x_m", "y_m", "phantom", "sar_wkg"),
}
PLOT_KINDS = tuple(PLOT_COLUMNS)


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: str                      # built-in name or file path
    solver: str = "both"               # ctm | maxrate | both
    seeds: tuple = (0,)
    n_realizations: int = 10
    out_dir: str | None = None
    ctm: CtmConfig = CtmConfig()
    anneal: AnnealConfig = AnnealConfig()
    workers: int = 1
    dump_links: bool = False

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if self.solver not in SOLVERS + ("both",):
            raise ValueError(f"unknown solver {self.solver!r}")

    @property
    def solver_list(self):
        return list(SOLVERS) if self.solver == "both" else [self.solver]


@dataclass
class RunRecord:
    seed: int
    solver: str
    scenario: Scenario                 # the world that was solved
    wall_time: float
    bundle: MetricsBundle | None
    solution: SolutionState | None
    error: str | None = None

    @property
    def scenario_name(self):
        return self.scenario.name


def _instantiate(spec: ExperimentSpec, seed: int) -> Scenario:
    """Scenario instance for one seed: built-ins are re-placed per seed,
    files are fixed worlds shared by all seeds."""
    if spec.scenario in BUILTIN_TEMPLATES:
        return generate_placements(builtin_template(spec.scenario), seed)
    return load_scenario(spec.scenario)


def _run_one(spec: ExperimentSpec, seed: int, solver: str) -> RunRecord:
    scenario = _instantiate(spec, seed)
    ctm_cfg = replace(spec.ctm, seed=seed,
                      realizations_per_check=spec.n_realizations)
    try:
        t0 = time.perf_counter()
        if solver == "ctm":
            solution, bundle = solve_ctm(scenario, ctm_cfg)
        else:
            sa_cfg = replace(spec.anneal, seed=seed,
                             realizations_per_check=spec.n_realizations)
            solution, bundle = solve_maxrate(scenario, sa_cfg)
        wall = time.perf_counter() - t0
    except NoFeasibleSolutionError as e:
        return RunRecord(seed, solver, scenario, 0.0, None, None, error=str(e))
    except Exception as e:  # one failed run must not abort the batch
        logging.getLogger(__name__).exception("seed %s %s failed", seed, solver)
        return RunRecord(seed, solver, scenario, 0.0, None, None,
                         error=f"{type(e).__name__}: {e}")
    record = RunRecord(seed, solver, scenario, wall, bundle, solution)
    if spec.out_dir:
        _write_run(spec, record)
    return record


def _run_dir(spec: ExperimentSpec, record: RunRecord) -> Path:
    return Path(spec.out_dir) / record.scenario_name / str(record.seed) / record.solver


def _summary(record: RunRecord) -> dict:
    """The content of a run's summary.json."""
    min_rate = record.bundle.min_rate
    return {
        "seed": record.seed,
        "solver": record.solver,
        "scenario": record.scenario_name,
        "wall_time_s": record.wall_time,
        "total_power_w": record.bundle.total_power,
        "per_poa_power_dbm": {
            pid: (None if dbm == -math.inf else dbm)
            for pid, dbm in sorted(record.bundle.per_poa_power.items())
        },
        "feasible": record.bundle.feasible,
        "violated": list(record.bundle.violated),
        # With no users min_rate is inf, which strict JSON cannot hold.
        "min_rate_bps": min_rate if math.isfinite(min_rate) else None,
        "max_sar_wkg": record.bundle.max_sar,
    }


def _metric_rows(scenario: Scenario, bundle: MetricsBundle) -> list:
    """The rows of a run's metrics.csv as read back: one dict of CSV
    strings per user, then per human."""
    def row(kind, target, rate="", phantom="", sar=""):
        pos = target.position
        return dict(zip(METRIC_COLUMNS, (kind, target.id, repr(pos.x), repr(pos.y),
                                         rate, phantom, sar)))

    return ([row("user", u, rate=repr(bundle.per_user_rate[u.id])) for u in scenario.users]
            + [row("human", h, phantom=h.phantom_id, sar=repr(bundle.per_human_sar[h.id]))
               for h in scenario.humans])


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_run(spec: ExperimentSpec, record: RunRecord):
    out = _run_dir(spec, record)
    out.mkdir(parents=True, exist_ok=True)
    save_solution(record.solution, out / "solution.json")
    _write_csv(out / "metrics.csv", METRIC_COLUMNS,
               [row.values() for row in _metric_rows(record.scenario, record.bundle)])
    with open(out / "summary.json", "w") as f:
        json.dump(_summary(record), f, indent=2, sort_keys=True)
        f.write("\n")
    if spec.dump_links:
        ev = Evaluator(record.scenario, record.seed, spec.n_realizations)
        with open(out / "links.json", "w") as f:
            json.dump(ev.dump_links(record.solution), f)
            f.write("\n")


def run_experiment(spec: ExperimentSpec) -> list:
    """One record per (seed, solver); order and content are independent of
    the worker count. Solver failures are recorded, not raised: an
    infeasible run carries the ``NoFeasibleSolutionError`` message, any
    other exception ``"<ExcType>: <message>"``."""
    tasks = [(seed, solver) for seed in spec.seeds for solver in spec.solver_list]
    if spec.workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            futures = [pool.submit(_run_one, spec, seed, solver)
                       for seed, solver in tasks]
            records = [f.result() for f in futures]
    else:
        records = [_run_one(spec, seed, solver) for seed, solver in tasks]
    records.sort(key=lambda r: (r.seed, r.solver))
    if spec.out_dir:
        out = Path(spec.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_aggregate(records, out / "aggregate.csv")
    return records


def write_aggregate(records, path):
    """Cross-seed aggregate per solver: median and 10/90th percentiles of
    total power, minimum user rate, and maximum SAR. The minimum rate is
    taken over runs with users only; cells with no run behind them stay
    empty."""
    rows = []
    for solver in sorted({r.solver for r in records}):
        ok = [r.bundle for r in records if r.solver == solver and r.bundle is not None]
        stats = []
        for values in ([b.total_power for b in ok],
                       [b.min_rate for b in ok if b.per_user_rate],
                       [b.max_sar for b in ok]):
            stats += [repr(float(np.median(values))),
                      repr(float(np.percentile(values, 10))),
                      repr(float(np.percentile(values, 90)))] if values else [""] * 3
        rows.append([solver, len(ok)] + stats)
    _write_csv(path, ["solver", "n_runs",
                      "total_power_w_median", "total_power_w_p10", "total_power_w_p90",
                      "min_rate_bps_median", "min_rate_bps_p10", "min_rate_bps_p90",
                      "max_sar_wkg_median", "max_sar_wkg_p10", "max_sar_wkg_p90"], rows)


def load_run_metrics(run_dir):
    """Re-parse one run directory into (summary dict, metrics rows)."""
    run_dir = Path(run_dir)
    with open(run_dir / "summary.json") as f:
        summary = json.load(f)
    with open(run_dir / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    return summary, rows


def _plot_rows(kind: str, runs) -> list:
    """Rows of one plot kind from (summary, metrics rows) pairs, runs in
    (scenario, seed, solver) order. Map kinds copy the metrics.csv columns
    named in their header."""
    if kind not in PLOT_COLUMNS:
        raise ValueError(f"unknown plot kind {kind!r}; choose from {PLOT_KINDS}")
    runs = sorted(runs, key=lambda run: (run[0]["scenario"], int(run[0]["seed"]),
                                         run[0]["solver"]))
    if kind == "power-bars":
        rows = []
        for s, _ in runs:
            rows += [[s["solver"], s["seed"], pid,
                      repr(dbm_to_watts(-math.inf if dbm is None else dbm))]
                     for pid, dbm in sorted(s["per_poa_power_dbm"].items())]
            rows.append([s["solver"], s["seed"], "total", repr(s["total_power_w"])])
        return rows
    target = "user" if kind.startswith("rate") else "human"
    if kind.endswith("-cdf"):
        col = PLOT_COLUMNS[kind][1]
        per_solver = {}
        for s, metrics in runs:
            per_solver.setdefault(s["solver"], []).extend(
                float(m[col]) for m in metrics if m["kind"] == target)
        rows = []
        for solver, values in sorted(per_solver.items()):
            values.sort()
            rows += [[solver, repr(v), repr(i / len(values))]
                     for i, v in enumerate(values, start=1)]
        return rows
    cols = PLOT_COLUMNS[kind][3:]
    return [[s["solver"], s["seed"], m["id"]] + [m[c] for c in cols]
            for s, metrics in runs for m in metrics if m["kind"] == target]


def _write_plot(kind: str, runs, path):
    rows = _plot_rows(kind, runs)
    _write_csv(path, PLOT_COLUMNS[kind], rows)


def emit_plot_data(records, kind: str, path):
    """Tidy tabular text files feeding external plotting."""
    runs = [(_summary(r), _metric_rows(r.scenario, r.bundle))
            for r in records if r.bundle is not None]
    if not runs:
        raise ValueError("no successful records to plot")
    _write_plot(kind, runs, path)


def plot_data_from_dir(in_dir, kind: str, path):
    """Rebuild plot data from the per-run files under an output directory."""
    in_dir = Path(in_dir)
    run_dirs = [p.parent for p in in_dir.glob("*/*/*/summary.json")]
    if not run_dirs:
        raise ValueError(f"no run directories found under {in_dir}")
    _write_plot(kind, [load_run_metrics(rd) for rd in run_dirs], path)
