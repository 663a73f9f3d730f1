"""Experiment orchestration: seeded runs, paired solver comparisons,
aggregation across seeds, and tidy plot-data emission."""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .channel import dbm_to_watts
from .radio_metrics import N_REALIZATIONS, Evaluator, MetricsBundle
from .scenario import (_AT_LEAST_ONE, _NON_NEGATIVE, BUILTIN_TEMPLATES, Scenario,
                       ValidationError, _check_fields, _integer, _map_of, _OneOf, _optional,
                       _parse_at, _ranged, _real, _text, builtin_template,
                       generate_placements, load_scenario)
from .solution import SolutionState, save_solution
from .solver_ctm import NoFeasibleSolutionError, solve_ctm
from .solver_maxrate import AnnealConfig, solve_maxrate

SOLVERS = ("ctm", "maxrate")
SOLVER_CHOICES = SOLVERS + ("both",)   # ``ExperimentSpec.solver``, ``--solver``
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


def _seeds(value):
    """One seed or more, each an integer."""
    if not value:
        raise ValueError("must be non-empty")
    return tuple(map(_integer, value))


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: str                      # built-in name or file path
    solver: str = _ranged("both", _OneOf(SOLVER_CHOICES), _text)
    # Each seed names one run directory and is written to its summary.json.
    seeds: tuple = _ranged((0,), _NON_NEGATIVE, _seeds)
    n_realizations: int = _ranged(N_REALIZATIONS, _AT_LEAST_ONE)
    out_dir: str | None = None
    anneal: AnnealConfig = AnnealConfig()
    workers: int = _ranged(1, _AT_LEAST_ONE)
    dump_links: bool = False

    def __post_init__(self):
        _check_fields(self)
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if self.dump_links and not self.out_dir:
            raise ValueError("dump_links needs out_dir")

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


def _run_seed(spec: ExperimentSpec, seed: int) -> list:
    """The runs of one seed, in ``spec.solver_list`` order, on one world and
    one Evaluator: every solver solves on it, and each run's files, written
    right after its solve, are dumped from it. The first run's wall time
    includes building the Evaluator; a later run's excludes the tables that
    earlier runs filled. A failure is recorded on the run it stops, not
    raised; an Evaluator that cannot be built is tried in each run of the
    seed, and its error recorded on each."""
    scenario = _instantiate(spec, seed)
    evaluator, records = None, []
    for solver in spec.solver_list:
        t0, solution, bundle, error = time.perf_counter(), None, None, None
        try:
            if evaluator is None:
                evaluator = Evaluator(scenario, seed, spec.n_realizations)
            solution, bundle = (solve_ctm(evaluator) if solver == "ctm"
                                else solve_maxrate(evaluator, spec.anneal))
        except NoFeasibleSolutionError as e:
            error = str(e)
        except Exception as e:  # one failed run must not abort the batch
            logging.getLogger(__name__).exception("seed %s %s failed", seed, solver)
            error = f"{type(e).__name__}: {e}"
        records.append(RunRecord(seed, solver, scenario, time.perf_counter() - t0,
                                 bundle, solution, error))
        if spec.out_dir and error is None:
            _write_run(spec, records[-1], evaluator)
    return records


def _run_dir(spec: ExperimentSpec, record: RunRecord) -> Path:
    return Path(spec.out_dir) / record.scenario_name / str(record.seed) / record.solver


def _summary(record: RunRecord) -> dict:
    """The content of a run's summary.json."""
    min_rate = record.bundle.min_rate
    return {
        "cellless_version": __version__,
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
    with open(path, "w", newline="", encoding="utf-8") as f:  # as load_run_metrics reads it
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_run(spec: ExperimentSpec, record: RunRecord, evaluator: Evaluator):
    """Write one run's files; ``links.json`` is dumped from ``evaluator``,
    the Evaluator that judged the run."""
    out = _run_dir(spec, record)
    out.mkdir(parents=True, exist_ok=True)
    save_solution(record.solution, out / "solution.json")
    _write_csv(out / "metrics.csv", METRIC_COLUMNS,
               [row.values() for row in _metric_rows(record.scenario, record.bundle)])
    with open(out / "summary.json", "w") as f:
        json.dump(_summary(record), f, indent=2, sort_keys=True)
        f.write("\n")
    if spec.dump_links:
        with open(out / "links.json", "w") as f:
            json.dump(evaluator.dump_links(record.solution), f)
            f.write("\n")


def run_experiment(spec: ExperimentSpec) -> list:
    """One record per (seed, solver), in (seed, solver) order; order and
    content are independent of the worker count, which spreads seeds, not
    runs (``_run_seed``). Solver failures are recorded, not raised: an
    infeasible run carries the ``NoFeasibleSolutionError`` message, any
    other exception ``"<ExcType>: <message>"``. The output directory is
    made before the first run, so an unusable one raises ``OSError`` before
    any solve."""
    if spec.out_dir:
        Path(spec.out_dir).mkdir(parents=True, exist_ok=True)
    if spec.workers > 1 and len(spec.seeds) > 1:
        # Imported here: the pool loads multiprocessing, which a one-worker
        # run and a bare ``import cellless`` never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(spec.workers, len(spec.seeds))) as pool:
            futures = [pool.submit(_run_seed, spec, seed) for seed in spec.seeds]
            records = [r for f in futures for r in f.result()]
    else:
        records = [r for seed in spec.seeds for r in _run_seed(spec, seed)]
    records.sort(key=lambda r: (r.seed, r.solver))
    if spec.out_dir:
        write_aggregate(records, Path(spec.out_dir) / "aggregate.csv")
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
            stats += [repr(_median(values)), repr(_percentile(values, 10)),
                      repr(_percentile(values, 90))] if values else [""] * 3
        rows.append([solver, len(ok)] + stats)
    _write_csv(path, ["solver", "n_runs",
                      "total_power_w_median", "total_power_w_p10", "total_power_w_p90",
                      "min_rate_bps_median", "min_rate_bps_p10", "min_rate_bps_p90",
                      "max_sar_wkg_median", "max_sar_wkg_p10", "max_sar_wkg_p90"], rows)


# ``np.median`` and ``np.percentile`` (linear interpolation) of a non-empty
# list of floats, with numpy's float operations, so aggregate.csv keeps its
# bytes; numpy's versions import ``numpy.ma`` on their first call.

def _median(values):
    if any(math.isnan(v) for v in values):
        return math.nan
    values, mid = sorted(values), len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def _percentile(values, q):
    if any(math.isnan(v) for v in values):
        return math.nan
    values, last = sorted(values), len(values) - 1
    virtual = last * (q / 100)
    below = math.floor(virtual)
    a, b = values[below], values[min(below + 1, last)]
    t = virtual - below
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


# The metrics.csv cells that plotting reads, per row kind, each parsed by
# ``_finite_cell``.
_PLOTTED_CELLS = {"user": ("x_m", "y_m", "rate_bps"), "human": ("x_m", "y_m", "sar_wkg")}


def _finite_cell(text):
    return _real(float(text))


# The summary.json keys that plotting reads, each with its record parser.
_SUMMARY_KEYS = {"scenario": _text, "seed": _integer, "solver": _text,
                 "per_poa_power_dbm": _map_of(_text, _optional(_real)), "total_power_w": _real}


def load_run_metrics(run_dir):
    """Re-parse one run directory into (summary dict, metrics rows). A file
    that is not UTF-8 text, a summary.json that is not a JSON object or
    lacks a key that plotting reads or whose value its parser in
    ``_SUMMARY_KEYS`` refuses, or a metrics.csv whose header lacks one of
    ``METRIC_COLUMNS`` or whose plotted cell (``_PLOTTED_CELLS``) is not
    a finite number, raises ``ValueError`` naming the file and the fault,
    and the line and column of a bad cell. Values are checked, not
    replaced: the rows keep their strings."""
    run_dir = Path(run_dir)
    path = run_dir / "summary.json"
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(summary, dict):
            raise ValueError(f"not a JSON object, got {summary!r}")
        for key, parse in _SUMMARY_KEYS.items():
            if key not in summary:
                raise ValueError(f"missing key {key!r}")
            _parse_at(key, parse, summary[key])
        path = run_dir / "metrics.csv"
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            missing = [c for c in METRIC_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"header lacks column {missing[0]!r}")
            rows = []
            for row in reader:
                for col in _PLOTTED_CELLS.get(row["kind"], ()):
                    _parse_at(f"line {reader.line_num}, column {col!r}", _finite_cell, row[col])
                rows.append(row)
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: not valid JSON: {e}") from None
    except (ValueError, ValidationError) as e:
        raise ValueError(f"{path}: {e}") from None
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


def plot_data_from_dir(in_dir, kind: str, path):
    """Write plot ``kind``'s CSV to ``path`` from the per-run files under an
    output directory: the one plot path, of ``cellless plot``."""
    in_dir = Path(in_dir)
    run_dirs = [p.parent for p in in_dir.glob("*/*/*/summary.json")]
    if not run_dirs:
        raise ValueError(f"no run directories found under {in_dir}")
    rows = _plot_rows(kind, [load_run_metrics(rd) for rd in run_dirs])
    _write_csv(path, PLOT_COLUMNS[kind], rows)
