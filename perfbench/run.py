#!/usr/bin/env python3
"""Benchmark of the cellless package: CtM descent, MaxRate annealing and
paper-scale evaluation, timed end to end, with per-layer timing taken from
outside the package by patching its module attributes.

Run from the root of a source checkout (the package is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload ctm-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
operations once untraced and once traced and prints every per-layer
metric and a layer-share table. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is 0 only when every operation ran and passed its output check.

Everything runs in one process with one worker. Scenario seeds come from
``--seed``; ``--seconds`` sizes the batch (number of scenario seeds) from
each workload's nominal seconds per seed, so a batch is the same work on
every machine and every commit.

The end-to-end times (setup_s, batch_s, op_s_p50) are reference-core
seconds: wall time rescaled by the core speed a probe saw while the work
ran (see speed.py), because on a shared host the same work takes 1.7-2x
longer whenever another tenant shares the core. The raw wall times are
printed on the ``wall`` line and kept in the result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe, ref_seconds
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5
REALIZATIONS = 10

# (name, unit); direction and regression bounds live in BENCHMARK.json.
# Every workload reports every metric, so result quality is measured by
# two figures all three workloads have and that are never 0: the share of
# users meeting their rate floor, and energy efficiency (sum rate over
# transmitted power) in dB. Watts are not steady across seeds: CtM power
# varies 2.6x between desk seeds, its dB figure by about 1 %.
# Times are in reference-core seconds (module docstring).
END_TO_END = (
    ("setup_s", "s"),             # median of fresh processes: imports + scenarios
    ("batch_s", "s"),             # summed time of the run's operations
    ("op_s_p50", "s"),            # median time of one operation
    ("peak_rss_mb", "MB"),
    ("floor_met_frac", "fraction"),
    ("bits_per_joule_db", "dBbit/J"),
)

PER_LAYER = (
    ("channel.sample_link.calls", "count"),
    ("channel.sample_link.self_s", "s"),
    ("radio_metrics.Evaluator.init.self_s", "s"),
    ("antenna.panel_field.calls", "count"),
    ("antenna.panel_field.self_s", "s"),
    ("radio_metrics.beam_gains.calls", "count"),
    ("radio_metrics.beam_gains.misses", "count"),
    ("radio_metrics.beam_gains.hit_ratio", "fraction"),
    ("radio_metrics.beam_gains.self_s", "s"),
    ("radio_metrics.metrics.calls", "count"),
    ("radio_metrics.metrics.self_s", "s"),
    ("radio_metrics.evaluate.self_s", "s"),
    ("solution.validate.self_s", "s"),
    ("solver_ctm.build_geometry.self_s", "s"),
    ("solver_ctm.reduce_powers.self_s", "s"),
    ("solver_ctm.solve_ctm.self_s", "s"),
    ("solver_ctm.feasibility_checks", "count"),
    ("solver_ctm.step_accept_ratio", "fraction"),
    ("solver_maxrate.solve_maxrate.self_s", "s"),
    ("solver_maxrate.objective.calls", "count"),
    ("solver_maxrate.objective.self_s", "s"),
    ("solver_maxrate.neighbor.self_s", "s"),
    ("solver_maxrate.accept_ratio", "fraction"),
    ("harness.run_experiment.self_s", "s"),
    ("scenario.generate_placements.self_s", "s"),
    ("bench.op.self_s", "s"),
    ("trace.batch_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    kind: "ctm" / "maxrate" solve through ``harness.run_experiment``;
    "evaluate" runs ``build_geometry`` then ``evaluate`` at maximum power.
    One operation is one (scenario, scenario seed) pair.
    """

    name: str
    kind: str
    scenarios: tuple          # built-in names or scenario file paths
    seed_s: float             # nominal seconds per scenario seed (all scenarios)
    realizations: int = REALIZATIONS
    anneal: dict = field(default_factory=dict)   # AnnealConfig overrides
    # When set, each built-in is placed once with this seed and run as a
    # fixed world (a scenario file), so the run's seeds only draw channels.
    world_seed: int | None = None


# Why each workload exists, and the layers it loads, is in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        # Placement sets how long the CtM descent runs: over placement seeds
        # the batch time spread 28 % between runs, and placements that are
        # infeasible at max power end after one check. A fixed world (the
        # seed-1 placement) with seeded channels keeps the work per seed
        # within 1 % (666-672 feasibility checks).
        Workload("ctm-desk", "ctm", ("inf-dh-desk",), seed_s=11.5, world_seed=1),
        Workload("maxrate-desk", "maxrate", ("inf-dh-desk",), seed_s=31.0),
        Workload("evaluate-paper", "evaluate",
                 ("inf-dh-default", "umi-sc-default"), seed_s=20.0),
    )
}


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/cellless`` to benchmark."""


class Program:
    """The package's modules, imported from this checkout's ``src``."""

    def __init__(self):
        if not (SRC / "cellless" / "__init__.py").is_file():
            raise ProgramMissing(f"no cellless package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import cellless
        if Path(cellless.__file__).resolve().parent != (SRC / "cellless").resolve():
            raise ProgramMissing(f"cellless imported from {cellless.__file__}, not {SRC}")
        import numpy
        import scipy
        from cellless import (channel, harness, radio_metrics, scenario,
                              solution, solver_ctm, solver_maxrate)
        self.numpy, self.scipy = numpy, scipy
        self.channel, self.harness = channel, harness
        self.radio_metrics, self.scenario, self.solution = radio_metrics, scenario, solution
        self.solver_ctm, self.solver_maxrate = solver_ctm, solver_maxrate

    def instantiate(self, name, seed):
        """Scenario for one seed, as ``run_experiment`` builds it."""
        sc = self.scenario
        if name in sc.BUILTIN_TEMPLATES:
            return sc.generate_placements(sc.builtin_template(name), seed)
        return sc.load_scenario(name)

    def world(self, name, seed):
        """Save the built-in ``name`` placed with ``seed`` as a scenario file."""
        sc = self.scenario
        path = WORK / f"world-{name}-{seed}.json"
        sc.save_scenario(sc.generate_placements(sc.builtin_template(name), seed), str(path))
        return str(path)

    def ctm_config(self, wl, seed):
        return self.solver_ctm.CtmConfig(seed=seed, realizations_per_check=wl.realizations)


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    index: int
    scenario_name: str
    seed: int
    scenario: object
    wall_s: float = 0.0       # wall time, probe time taken out
    ref_s: float = 0.0        # wall_s in reference-core seconds
    outcome: str = ""         # solved | infeasible | evaluated | failed
    solution: object = None
    bundle: object = None     # the result a user gets (see check_op)
    problems: list = field(default_factory=list)
    digest: str = ""


def plan(wl, scenarios, seed, seconds):
    """(scenario, seed) pairs of one run: n consecutive seeds from seed * n."""
    n = max(1, round(seconds / wl.seed_s))
    return [(name, s) for s in range(seed * n, seed * n + n) for name in scenarios]


def run_op(prog, wl, op, out_dir):
    """The timed work of one operation; sets op.solution / op.bundle."""
    if wl.kind == "evaluate":
        geometry = prog.solver_ctm.build_geometry(op.scenario, prog.ctm_config(wl, op.seed))
        op.solution = geometry
        op.bundle = prog.radio_metrics.evaluate(geometry, op.scenario, op.seed,
                                                wl.realizations)
        op.outcome = "evaluated"
        return
    h = prog.harness
    spec = h.ExperimentSpec(
        scenario=op.scenario_name, solver=wl.kind, seeds=(op.seed,),
        n_realizations=wl.realizations, out_dir=str(out_dir), workers=1,
        anneal=prog.solver_maxrate.AnnealConfig(**wl.anneal))
    (record,) = h.run_experiment(spec)
    if record.error is not None:
        op.outcome = "infeasible"
        op.problems.append(record.error)     # cleared if check_op confirms it
        return
    op.solution, op.bundle, op.outcome = record.solution, record.bundle, "solved"


def measure(prog, wl, ops, out_dir, tracer=None):
    """Run every op in order, setting op.wall_s; untraced ops run under a
    speed probe and also get op.ref_s. Returns the summed wall_s."""
    clock = time.perf_counter
    for op in ops:
        if tracer is not None:
            tracer.op = op.index
        probe = SpeedProbe() if tracer is None else None
        t0 = clock()
        try:
            if tracer is None:
                with probe:
                    run_op(prog, wl, op, out_dir)
            else:
                with tracer.region("bench.op"):
                    run_op(prog, wl, op, out_dir)
        except Exception:                       # recorded per operation
            op.outcome = "failed"
            op.problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        op.wall_s = clock() - t0
        if probe is not None:
            op.wall_s -= probe.probe_s()
            op.ref_s = ref_seconds(op.wall_s, probe.samples)
    return sum(op.wall_s for op in ops)


# ---------------------------------------------------------------------------
# Output checks (run after the timed region)


def check_op(prog, wl, op, out_dir):
    """Re-verify one operation's output; fills op.problems and op.digest.

    CtM: a fresh ``evaluate`` must be feasible, meet every floor and
    ceiling and reproduce ``per_user_rate`` bit for bit, and the written
    summary must match. An infeasible CtM run must be infeasible at maximum
    power; its max-power evaluation becomes the op's result. MaxRate: the
    solution must validate and re-evaluate to the same ``min_rate``.
    Evaluate: the verdict must agree with the rates and SARs.
    """
    if op.outcome == "failed":
        return
    sc, rm = op.scenario, prog.radio_metrics
    p = op.problems
    if op.outcome == "infeasible":
        geometry = prog.solver_ctm.build_geometry(sc, prog.ctm_config(wl, op.seed))
        at_max = rm.evaluate(geometry, sc, op.seed, wl.realizations)
        if at_max.feasible:
            p.append("solver reported infeasible but max power is feasible")
        else:
            p.clear()
            op.solution, op.bundle = geometry, at_max
    elif op.outcome == "solved":
        fresh = rm.evaluate(op.solution, sc, op.seed, wl.realizations)
        if wl.kind == "ctm":
            if not fresh.feasible:
                p.append(f"re-evaluation infeasible: {fresh.violated}")
            if any(fresh.per_user_rate[u.id] < u.required_rate for u in sc.users):
                p.append("a user rate is below its floor")
            if any(s > sc.sar_limit for s in fresh.per_human_sar.values()):
                p.append("a human SAR is above the ceiling")
            if fresh.per_user_rate != op.bundle.per_user_rate:
                p.append("per_user_rate differs from a fresh evaluation")
            run_dir = Path(out_dir) / sc.name / str(op.seed) / wl.kind
            try:
                summary, _ = prog.harness.load_run_metrics(run_dir)
            except OSError as e:
                p.append(f"run files missing: {e}")
            else:
                if summary["total_power_w"] != op.bundle.total_power:
                    p.append("summary.json total power differs from the result")
        else:
            violations = prog.solution.validate(op.solution, sc)
            if violations:
                p.append(f"solution invalid: {violations[0]}")
            if fresh.min_rate != op.bundle.min_rate:
                p.append("min_rate differs from a fresh evaluation")
    else:
        b = op.bundle
        expect = [f"rate:{u.id}" for u in sc.users if b.per_user_rate[u.id] < u.required_rate]
        expect += [f"sar:{h.id}" for h in sc.humans if b.per_human_sar[h.id] > sc.sar_limit]
        if b.violated != expect or b.feasible != (not expect):
            p.append("feasibility verdict disagrees with rates and SARs")
        if not all(math.isfinite(r) and r >= 0 for r in b.per_user_rate.values()):
            p.append("a user rate is negative or not finite")
        if b.total_power != op.solution.total_power_watts():
            p.append("total power differs from the geometry's")
    if op.bundle is not None:
        op.digest = digest(op.outcome, op.bundle)


def digest(outcome, bundle):
    """Hash of the sorted per-user rates, per-human SARs and per-PoA powers."""
    h = hashlib.sha256(outcome.encode())
    for table in (bundle.per_user_rate, bundle.per_human_sar, bundle.per_poa_power):
        h.update(repr(sorted(table.items())).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Metrics


def median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def end_to_end(ops, setup_s, peak_rss_mb):
    done = [op for op in ops if op.bundle is not None]
    powered = [op for op in done if op.bundle.total_power > 0]
    met = sum(sum(op.bundle.per_user_rate[u.id] >= u.required_rate
                  for u in op.scenario.users) for op in done)
    users = sum(len(op.scenario.users) for op in done)
    return {
        "setup_s": setup_s,
        "batch_s": sum(op.ref_s for op in ops),
        "op_s_p50": median([op.ref_s for op in ops]),
        "peak_rss_mb": peak_rss_mb,
        "floor_met_frac": met / users if users else 0.0,
        "bits_per_joule_db": median([
            10.0 * math.log10(sum(op.bundle.per_user_rate.values()) / op.bundle.total_power)
            for op in powered]),
    }


def results(wl, ops):
    """Result figures for the report line; deterministic for a given seed."""
    done = [op for op in ops if op.bundle is not None]
    solved = [op for op in done if op.outcome == "solved"]
    out = {"failed_frac": sum(bool(op.problems) for op in ops) / len(ops),
           "feasible_frac": sum(op.bundle.feasible for op in done) / len(ops),
           "unmet_users_p50": median([sum(v.startswith("rate:") for v in op.bundle.violated)
                                      for op in done])}
    if wl.kind == "ctm":
        out["ctm_power_w"] = median([op.bundle.total_power for op in solved])
    elif wl.kind == "maxrate":
        out["maxrate_min_rate_mbps"] = median([op.bundle.min_rate / 1e6 for op in solved])
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(pairs):
    """Median (reference-core seconds, wall seconds) of fresh processes that
    import the package and instantiate this run's scenarios. Each process
    runs a speed probe from its first line and prints the samples."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", json.dumps(pairs)]
    ref, wall = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                              timeout=120, cwd=ROOT)
        samples = json.loads(proc.stdout.splitlines()[-1])
        wall.append(time.perf_counter() - t0 - sum(samples))
        ref.append(ref_seconds(wall[-1], samples))
    return median(ref), median(wall)


# ---------------------------------------------------------------------------
# Tracing


def install_probes(prog, tracer):
    """Patch timed wrappers over every traced layer; returns the counters
    that are not plain call statistics."""
    ch, h, rm, sc = prog.channel, prog.harness, prog.radio_metrics, prog.scenario
    ctm, mr = prog.solver_ctm, prog.solver_maxrate
    ev = rm.Evaluator
    counters = {"checks": 0, "accepted_steps": 0, "moves": 0, "accepted_moves": 0}
    patch, timed = tracer.patch, tracer.timed

    # Hot leaves: counts and times only. radio_metrics reaches these
    # through the channel module, so that is where they are patched.
    patch(ch, "sample_link", timed("channel.sample_link", ch.sample_link))
    patch(ch, "panel_field", timed("antenna.panel_field", ch.panel_field))
    patch(mr, "objective", timed("solver_maxrate.objective", mr.objective))
    patch(mr, "neighbor", timed("solver_maxrate.neighbor", mr.neighbor))

    # A beam_gains call that reaches panel_field is a gain-cache miss.
    patch(ev, "beam_gains", timed("radio_metrics.beam_gains", ev.beam_gains))

    # metrics() calls inside reduce_powers are the feasibility checks; the
    # first one per descent checks the max-power start, the rest try a step.
    descent = {"active": False, "first": False}
    metrics = timed("radio_metrics.metrics", ev.metrics)

    def counted_metrics(self, solution):
        out = metrics(self, solution)
        if descent["active"]:
            counters["checks"] += 1
            if descent["first"]:
                descent["first"] = False
            else:
                counters["accepted_steps"] += bool(out.feasible)
        return out

    patch(ev, "metrics", counted_metrics)
    reduce_powers = timed("solver_ctm.reduce_powers", ctm.reduce_powers, span=True)

    def descend(*args, **kwargs):
        descent.update(active=True, first=True)
        try:
            return reduce_powers(*args, **kwargs)
        finally:
            descent["active"] = False

    patch(ctm, "reduce_powers", descend)

    # MaxRate acceptance comes from the solver's public trace= list.
    solve_maxrate = timed("solver_maxrate.solve_maxrate", h.solve_maxrate, span=True)

    def traced_maxrate(scenario, config=None, trace=None):
        moves = [] if trace is None else trace
        out = solve_maxrate(scenario, config, trace=moves)
        counters["moves"] += len(moves)
        counters["accepted_moves"] += sum(bool(m[4]) for m in moves)
        return out

    patch(h, "solve_maxrate", traced_maxrate)

    # Coarse layers: one span per call.
    patch(ev, "__init__", timed("radio_metrics.Evaluator.init", ev.__init__, span=True))
    patch(rm, "evaluate", timed("radio_metrics.evaluate", rm.evaluate, span=True))
    patch(rm, "validate", timed("solution.validate", rm.validate, span=True))
    geometry = timed("solver_ctm.build_geometry", ctm.build_geometry, span=True)
    patch(ctm, "build_geometry", geometry)
    patch(mr, "build_geometry", geometry)
    patch(h, "solve_ctm", timed("solver_ctm.solve_ctm", h.solve_ctm, span=True))
    patch(h, "run_experiment", timed("harness.run_experiment", h.run_experiment, span=True))
    placements = timed("scenario.generate_placements", sc.generate_placements, span=True)
    patch(sc, "generate_placements", placements)
    patch(h, "generate_placements", placements)
    return counters


def per_layer(tracer, counters, setup_tracer, batch_s, traced_batch_s):
    def stat(name, i):
        return tracer.stats.get(name, (0, 0.0, 0.0, 0))[i]

    def ratio(a, b):
        return a / b if b else 0.0

    bg_calls = stat("radio_metrics.beam_gains", 0)
    misses = stat("radio_metrics.beam_gains", 3)
    out = {}
    for name, _ in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = stat(layer, 0)
        elif what == "self_s":
            out[name] = stat(layer, 2)
    out.update({
        "scenario.generate_placements.self_s":
            setup_tracer.stats.get("scenario.generate_placements", (0, 0.0, 0.0, 0))[2],
        "radio_metrics.beam_gains.misses": misses,
        "radio_metrics.beam_gains.hit_ratio": ratio(bg_calls - misses, bg_calls),
        "solver_ctm.feasibility_checks": counters["checks"],
        "solver_ctm.step_accept_ratio": ratio(counters["accepted_steps"], counters["checks"]),
        "solver_maxrate.accept_ratio": ratio(counters["accepted_moves"], counters["moves"]),
        "trace.batch_s": traced_batch_s,
        "trace.overhead_s": traced_batch_s - batch_s,
    })
    return out


def layer_table(tracer, traced_batch_s):
    """Rows (layer, calls, total_s, self_s, self share of traced batch_s),
    largest self time first."""
    rows = [(name, s[0], s[1], s[2], s[2] / traced_batch_s if traced_batch_s else 0.0)
            for name, s in tracer.stats.items() if s[0]]
    return sorted(rows, key=lambda r: -r[3])


# ---------------------------------------------------------------------------
# Driver


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(prog, seed):
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": prog.numpy.__version__, "scipy": prog.scipy.__version__,
            "commit": git_commit(), "seed": seed}


def run_workload(prog, wl, seed, seconds, trace, emit=print):
    """Run one workload; prints a report and returns (result dict, ok)."""
    emit(f"workload {wl.name} seed {seed} trace {trace}")
    env = environment(prog, seed)
    emit("env " + json.dumps(env, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    setup_tracer = Tracer()
    if trace:
        setup_tracer.patch(prog.scenario, "generate_placements",
                           setup_tracer.timed("scenario.generate_placements",
                                              prog.scenario.generate_placements, span=True))
    try:
        with setup_tracer.region("bench.setup"):
            scenarios = wl.scenarios
            if wl.world_seed is not None:
                scenarios = tuple(prog.world(name, wl.world_seed) for name in scenarios)
            pairs = plan(wl, scenarios, seed, seconds)
            ops = [Op(i, name, s, prog.instantiate(name, s)) for i, (name, s) in enumerate(pairs)]
    finally:
        setup_tracer.restore()

    out_dir = WORK / f"out-{os.getpid()}"
    tracer = None
    try:
        batch_s = measure(prog, wl, ops, out_dir)
        rss = peak_rss_mb()
        for op in ops:
            check_op(prog, wl, op, out_dir)
        if trace:
            traced = [Op(op.index, op.scenario_name, op.seed, op.scenario) for op in ops]
            tracer = Tracer()
            try:
                counters = install_probes(prog, tracer)
                measure(prog, wl, traced, out_dir, tracer)
            finally:
                tracer.restore()
            for op, again in zip(ops, traced):
                check_op(prog, wl, again, out_dir)
                if again.problems or (again.outcome, again.digest) != (op.outcome, op.digest):
                    op.problems.append("traced run differs from the untraced one: "
                                       + "; ".join(again.problems or [again.digest]))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for op in ops:
        status = "ok" if not op.problems else "FAILED: " + "; ".join(op.problems)
        emit(f"op {op.index} {op.scenario.name} seed={op.seed} wall_s={op.wall_s:.4f} "
             f"ref_s={op.ref_s:.4f} "
             f"outcome={op.outcome} digest={op.digest or '-'} check={status}")
    failed = sum(bool(op.problems) for op in ops)
    res = results(wl, ops)
    emit("results " + json.dumps(res, sort_keys=True))

    if not trace:
        setup_s, setup_wall_s = setup_seconds(pairs)
        metrics = end_to_end(ops, setup_s, rss)
        wall = {"setup_s": setup_wall_s, "batch_s": batch_s,
                "op_s_p50": median([op.wall_s for op in ops])}
        emit("wall " + " ".join(f"{k}={v!r}" for k, v in wall.items())
             + " (raw wall seconds, not rescaled)")
        units = dict(END_TO_END)
        for name, _ in END_TO_END:
            note = f" (median of {len(ops)} operations)" if name == "op_s_p50" else ""
            emit(f"metric {name} = {metrics[name]!r} {units[name]}{note}")
        record = {"env": env, "ops": [(op.scenario.name, op.seed, op.wall_s, op.ref_s,
                                       op.outcome, op.digest) for op in ops],
                  "wall": wall,
                  "results": res, "metrics": metrics}
    else:
        traced_batch_s = tracer.stats["bench.op"][1]
        metrics = per_layer(tracer, counters, setup_tracer, batch_s, traced_batch_s)
        units = dict(PER_LAYER)
        emit(f"layer-share {wl.name}: self time as a share of traced batch_s "
             f"{traced_batch_s:.4f} s (untraced {batch_s:.4f} s)")
        rows = layer_table(tracer, traced_batch_s)
        emit(f"  {'layer':<38} {'calls':>9} {'total_s':>10} {'self_s':>10} {'share':>7}")
        for name, calls, total_s, self_s, share in rows:
            emit(f"  {name:<38} {calls:>9} {total_s:10.4f} {self_s:10.4f} {100 * share:6.2f}%")
        emit(f"  {'sum of self times':<38} {'':>20} {sum(r[3] for r in rows):10.4f}")
        for name, _ in PER_LAYER:
            emit(f"metric {name} = {metrics[name]!r} {units[name]}")
        with open(WORK / f"spans-{wl.name}-{seed}.json", "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "setup": setup_tracer.spans, "ops": tracer.spans}, f)
        record = {"env": env, "results": res, "metrics": metrics,
                  "layers": [list(r) for r in rows]}
    with open(WORK / f"result-{wl.name}-{seed}-trace{trace}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    return result, failed == 0


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_probe(pairs):
    """Child process of setup_seconds: the set-up work under a speed probe;
    prints the probe samples."""
    with SpeedProbe() as probe:
        prog = Program()
        for name, seed in pairs:
            prog.instantiate(name, seed)
    print(json.dumps(probe.samples))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if args.setup_probe is not None:
        return setup_probe(json.loads(args.setup_probe))
    try:
        prog = Program()
    except ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result, ok = run_workload(prog, WORKLOADS[args.workload], args.seed,
                                  args.seconds, args.trace)
        print(json.dumps(result))
        return 0 if ok else 1
    # Every workload in turn; metric names gain a "<workload>/" prefix, and
    # peak_rss_mb is the process peak so far.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result, _ = run_workload(prog, WORKLOADS[name], args.seed, args.seconds, args.trace)
        print(f"result {name} " + json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
