#!/usr/bin/env python3
"""Write one entry of the performance trajectory, ``BENCH_<n>.json``.

Three parts, all run from the source checkout at ``--root`` (by default
the one this script sits in), so the same script measures any commit:

* **End to end.** ``perfbench/run.py --workload all --seed S --seconds X``
  runs in a subprocess. Its ``env``, ``op``, ``wall`` and ``result``
  lines are parsed into, per workload: the environment (nproc, numpy,
  commit), each operation's wall time, outcome and digest, the raw wall
  seconds (setup, batch, median operation) and the end-to-end metrics.
* **``cellless run``.** ``cellless run --scenario W --solver S --seeds
  <seed>`` with every other flag at its default, for each built-in world
  W (``inf-dh-desk``, ``umi-sc-desk``, ``inf-dh-default``,
  ``umi-sc-default``) and solver S, one subprocess each: its wall time
  (interpreter start-up included), exit code and outcome, ``solved``
  (feasible), ``infeasible`` (no feasible solution, or a
  final verdict that misses a floor or ceiling) or ``failed``. A run that
  is infeasible gives its wall time up to the verdict.
* **Layers.** The layers under a CtM run are timed in this process
  through the package's public API, each figure the median of
  ``--repeats`` repeats on one fixed world (``inf-dh-desk`` placed with
  seed 1, channels from ``--seed``; the world of perfbench's ctm-desk):
  ``Evaluator.__init__``; the cold fill, the first ``metrics`` at maximum
  power; the cold users-only fill, the first ``mean_rates`` at maximum
  power on another fresh ``Evaluator``, so the cold fill less it is the
  humans' share; a warm ``metrics``; one ``reduce_powers`` from the warm
  evaluator; one scored anneal move, ``objective`` of a neighbour that
  changes a live row, right after an untimed ``mean_rates`` of the start,
  so each move is built on the start's stack (a neighbour whose rates are
  the start's very array, which the Evaluator returns again for a move
  that changes no live row, is left out; the median over a fixed sequence
  of moves); and one whole
  default-annealer ``solve_maxrate`` on a fresh ``Evaluator`` (the path
  of perfbench's maxrate-desk, whose time is mostly steering). Beside
  them, ``reduce_powers_sweeps`` counts the sweeps of the least power
  search, the ``radio_metrics._least_watts`` calls of one untimed
  ``reduce_powers`` on a fresh ``Evaluator``. The fill's
  two kernel steps are timed on one PoA's links to the users, one
  realization block, on ``inf-dh-desk`` (isotropic elements) and
  ``umi-sc-desk`` (3GPP elements): ``channel.link_terms`` per block and
  ``channel.steered_energy`` per beam. At paper scale, on
  ``inf-dh-default`` (evaluate-paper's world): a cold ``Evaluator`` and
  its first ``metrics`` at maximum power, that call split into drawing the
  links, ``channel.link_terms`` and ``channel.steered_energy``, and the
  cold users-only fill, as on the desk world; beside that time, the minor
  page faults of the first ``metrics`` (the ``ru_minflt`` delta of
  ``resource.getrusage``), per repeat and their median.

  Each repeat runs under one ``SpeedProbe`` of ``perfbench/speed.py``, so
  every layer also gets ``median_ref_s``: its samples in reference-core
  seconds, each scaled by its repeat's ``ref_seconds(1.0, samples)``, with
  their quartiles ``q1_ref_s`` and ``q3_ref_s`` beside it, so a change of
  one layer can be held against its spread. Raw wall time drifts with the
  host's load between two runs minutes apart; the reference figures are
  the ones to compare across runs.
* **Least power sweeps.** Untimed, beside the layers: the sweeps
  (``radio_metrics._least_watts`` calls) of one ``least_powers`` on CtM's
  geometry of each of ``SWEEP_WORLDS``' 43 worlds, channels from the
  placement seed and 10 realizations: per world, their total and the
  largest. The count varies from world to world, where the one-seed
  ``reduce_powers_sweeps`` cannot show it.

The layer timings are a second bench path beside perfbench, which cannot
time these layers yet. Once it can (ROADMAP item 11), they move into
perfbench, and this script keeps only the parser and the file writer.

Usage::

    python tools/bench_trajectory.py --out "BENCH_<n>.json" --label change
    python tools/bench_trajectory.py --root ../parent --commit <sha> --out "BENCH_<n>.json" \\
        --label parent
    python tools/bench_trajectory.py --layers-only --repeats 1 --out bench.json

``--out`` is read first if it exists, and the run is stored under
``runs[<label>]``, so the parent and the change of one comparison share
a file. ``env.commit`` is ``--commit`` when given, else ``git describe``
of ``--root`` when it is the top level of a git work tree, else
"unknown": an exported parent names its commit with ``--commit``.
``--layers-only`` skips perfbench and the ``cellless run`` rows. The
exit code is that of perfbench (0 with ``--layers-only``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

# perfbench's speed probe, loaded by path: perfbench is a directory of
# scripts, not a package.
_SPEED = importlib.util.spec_from_file_location(
    "perfbench_speed", Path(__file__).resolve().parent.parent / "perfbench" / "speed.py")
speed = importlib.util.module_from_spec(_SPEED)
_SPEED.loader.exec_module(speed)

#: Realizations per evaluator, as perfbench and the solvers' defaults use.
REALIZATIONS = 10
#: Anneal moves timed per repeat, drawn from one fixed generator.
MOVES = 24
#: Kernel calls timed per repeat (per block, per beam).
KERNEL_CALLS = 5

#: The worlds of the least power sweep counts, (template, users or None
#: for the built-in's own, seeds): both desk built-ins at seeds 0-11, the
#: desk templates at more users (two humans per user) at seeds 1-3, and
#: both paper built-ins at seeds 0-1.
SWEEP_WORLDS = ([(name, None, range(12)) for name in ("inf-dh-desk", "umi-sc-desk")]
                + [(name, users, range(1, 4)) for name, users in
                   (("inf-dh-desk", 30), ("inf-dh-desk", 40), ("inf-dh-desk", 50),
                    ("umi-sc-desk", 25), ("umi-sc-desk", 30))]
                + [(name, None, range(2)) for name in ("inf-dh-default", "umi-sc-default")])

#: The built-in worlds and the solvers of the ``cellless run`` rows.
RUN_WORLDS = ("inf-dh-desk", "umi-sc-desk", "inf-dh-default", "umi-sc-default")
RUN_SOLVERS = ("ctm", "maxrate")

_OP = re.compile(r"op (\d+) (\S+) seed=(\d+) wall_s=(\S+) ref_s=(\S+) outcome=(\S+) "
                 r"digest=(\S+) check=(.*)")


def parse_perfbench(lines) -> dict:
    """Per workload, the parsed ``env``, ``op``, ``wall`` and ``result``
    lines of one ``perfbench/run.py`` run at trace 0."""
    workloads, current = {}, None
    for line in lines:
        if line.startswith("workload "):
            current = workloads.setdefault(line.split()[1], {"ops": []})
        elif current is None:
            continue
        elif line.startswith("env "):
            current["env"] = json.loads(line[4:])
        elif line.startswith("op "):
            match = _OP.fullmatch(line)
            if match is None:
                raise ValueError(f"unparsed op line: {line!r}")
            index, name, seed, wall_s, ref_s, outcome, digest, check = match.groups()
            current["ops"].append({"index": int(index), "scenario": name, "seed": int(seed),
                                   "wall_s": float(wall_s), "ref_s": float(ref_s),
                                   "outcome": outcome, "digest": digest, "check": check})
        elif line.startswith("wall "):
            fields = line[5:].split(" (")[0].split()
            current["wall"] = {k: float(v) for k, v in (f.split("=") for f in fields)}
        elif line.startswith("result "):
            _, name, payload = line.split(" ", 2)
            workloads[name]["result"] = json.loads(payload)
    return workloads


def run_perfbench(root: Path, seed: int, seconds: float) -> tuple:
    """(exit code, parsed workloads, wall seconds) of one perfbench run."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--workload",
                           "all", "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=root, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
    return proc.returncode, parse_perfbench(proc.stdout.splitlines()), elapsed


def run_outcome(stdout: str) -> str:
    """``solved``, ``infeasible`` or ``failed``: the outcome of a one-seed,
    one-solver ``cellless run`` from the line it prints for the run."""
    lines = [line for line in stdout.splitlines() if line.startswith("seed ")]
    if len(lines) != 1:
        return "failed"
    verdict = lines[0].split(": ", 1)[-1]
    if verdict.startswith("FAILED"):
        return "infeasible" if "no feasible solution" in verdict else "failed"
    return "infeasible" if verdict.endswith(" infeasible") else "solved"


def time_cellless_runs(root: Path, seed: int, worlds=RUN_WORLDS, solvers=RUN_SOLVERS) -> list:
    """One ``cellless run --scenario <world> --solver <solver> --seeds
    <seed>`` per world and solver, each in its own interpreter on the
    checkout's ``src``: its wall time, exit code and outcome."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    main = "import sys; from cellless.cli import main; sys.exit(main(sys.argv[1:]))"
    rows = []
    for world in worlds:
        for solver in solvers:
            args = ["run", "--scenario", world, "--solver", solver, "--seeds", str(seed)]
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", main, *args], cwd=root, env=env,
                                  capture_output=True, text=True, check=False)
            rows.append({"scenario": world, "solver": solver, "seed": seed,
                         "command": "cellless " + " ".join(args),
                         "wall_s": time.perf_counter() - start, "exit_code": proc.returncode,
                         "outcome": run_outcome(proc.stdout)})
    return rows


def _timed(fn, *args):
    """(seconds, result) of one call."""
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def _repeat(run, repeats: int) -> dict:
    """Per layer, the medians of ``repeats`` calls of ``run()``, which
    returns {layer: seconds}. Each call runs under its own ``SpeedProbe``,
    and its seconds in reference-core seconds are its raw seconds times
    ``ref_seconds(1.0, samples)`` of that call's probe samples."""
    raw, ref = {}, {}
    for _ in range(repeats):
        with speed.SpeedProbe() as probe:
            got = run()
        scale = speed.ref_seconds(1.0, probe.samples)
        for name, seconds in got.items():
            raw.setdefault(name, []).append(seconds)
            ref.setdefault(name, []).append(seconds * scale)

    def quartiles(samples):
        # statistics.quantiles needs two samples before Python 3.13.
        if len(samples) < 2:
            return samples * 2
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        return [q1, q3]

    return {name: {"median_s": statistics.median(s), "samples": len(s), "min_s": min(s),
                   "max_s": max(s), "median_ref_s": statistics.median(ref[name]),
                   **dict(zip(("q1_ref_s", "q3_ref_s"), quartiles(ref[name])))}
            for name, s in raw.items()}


def count_least_watts(fn, *args) -> int:
    """The number of ``radio_metrics._least_watts`` calls, each one sweep
    of the least power search, that one call ``fn(*args)`` makes. The
    module attribute is wrapped for the call and restored after it."""
    from cellless import radio_metrics as rm

    original, calls = rm._least_watts, []

    def counted(*inner):
        calls.append(None)
        return original(*inner)

    rm._least_watts = counted
    try:
        fn(*args)
    finally:
        rm._least_watts = original
    return len(calls)


def count_search_sweeps() -> dict:
    """The sweeps of one ``least_powers`` on CtM's geometry of each world of
    ``SWEEP_WORLDS``, keyed ``<template>[-<users>]/<seed>``, with their
    total and the largest; each world's channels and k-means come from its
    placement seed, at ``REALIZATIONS`` realizations."""
    from cellless.radio_metrics import Evaluator
    from cellless.scenario import builtin_template, generate_placements
    from cellless.solver_ctm import CtmConfig, build_geometry

    counts = {}
    for name, users, seeds in SWEEP_WORLDS:
        template = builtin_template(name)
        if users is not None:
            template = replace(template, n_users=users, n_humans=2 * users)
        for seed in seeds:
            scenario = generate_placements(template, seed)
            geometry = build_geometry(scenario, CtmConfig(seed=seed))
            key = f"{name}{'' if users is None else f'-{users}'}/{seed}"
            counts[key] = count_least_watts(
                Evaluator(scenario, seed, REALIZATIONS).least_powers, geometry)
    return {"worlds": counts, "total": sum(counts.values()), "max": max(counts.values())}


def time_solver_layers(seed: int, repeats: int) -> dict:
    """Medians of the evaluator and solver layers on the ctm-desk world."""
    from cellless.radio_metrics import Evaluator
    from cellless.scenario import builtin_template, generate_placements
    from cellless.solver_ctm import CtmConfig, build_geometry, reduce_powers
    from cellless.solver_maxrate import neighbor, objective, solve_maxrate

    import numpy as np

    scenario = generate_placements(builtin_template("inf-dh-desk"), 1)
    config = CtmConfig(seed=seed)
    geometry = build_geometry(scenario, config)

    def repeat():
        init_s, ev = _timed(Evaluator, scenario, seed, REALIZATIONS)
        got = {"evaluator_init": init_s,
               "cold_fill": _timed(ev.metrics, geometry)[0],
               "cold_users_fill": _timed(Evaluator(scenario, seed, REALIZATIONS).mean_rates,
                                         geometry)[0],
               "warm_metrics": _timed(ev.metrics, geometry)[0],
               "reduce_powers": _timed(reduce_powers, geometry, ev)[0]}
        rng = np.random.default_rng(seed)
        moves = []
        while len(moves) < MOVES:
            cand = neighbor(geometry, scenario, rng)
            start = ev.mean_rates(geometry)  # untimed: the move is built on the start's stack
            seconds = _timed(objective, cand, ev)[0]
            if ev.mean_rates(cand) is not start:  # a scored move: it changed a live row
                moves.append(seconds)
        got["anneal_move"] = statistics.median(moves)
        got["maxrate_solve"] = _timed(solve_maxrate, Evaluator(scenario, seed, REALIZATIONS))[0]
        return got

    return {"world": "inf-dh-desk placed with seed 1", "channel_seed": seed,
            "realizations": REALIZATIONS, "anneal_moves_per_repeat": MOVES,
            "reduce_powers_sweeps": count_least_watts(
                reduce_powers, geometry, Evaluator(scenario, seed, REALIZATIONS)),
            **_repeat(repeat, repeats)}


def time_kernel_layers(seed: int, repeats: int) -> dict:
    """Medians of ``link_terms`` per block and ``steered_energy`` per beam
    on the links of the first PoA with an active CtM beam to every user,
    for one world per element pattern; the beams are CtM's active beams of
    that PoA, at their columns."""
    from cellless import channel as ch
    from cellless.antenna import (FieldWork, PanelGeometry, SteeringDirection, width_to_panel,
                                  wrap_angle)
    from cellless.radio_metrics import Evaluator
    from cellless.scenario import builtin_template, generate_placements
    from cellless.solver_ctm import CtmConfig, build_geometry

    out = {}
    for name in ("inf-dh-desk", "umi-sc-desk"):
        scenario = generate_placements(builtin_template(name), 1)
        geometry = build_geometry(scenario, CtmConfig(seed=seed))
        poa = next(p for p in scenario.poas if p.id in geometry.active_poas())
        panel = PanelGeometry(poa.panel_rows, poa.panel_cols, mech_azimuth=poa.mech_azimuth,
                              element_pattern=poa.element_pattern)
        # The links to the users, drawn as the Evaluator draws them.
        links = Evaluator(scenario, seed, REALIZATIONS)._parts[poa.id, 0].links()
        beams = [(replace(panel, cols=width_to_panel(b.width, panel)),
                  SteeringDirection(b.zenith, wrap_angle(b.azimuth - poa.mech_azimuth)))
                 for b in geometry.beams if b.owner_poa == poa.id and b.active]
        terms = ch.link_terms(links, panel)  # what the timed beams steer
        # Room for every path a beam steers, the rays and the direct paths,
        # counted on the links, so the layer times any commit's terms.
        paths = links.phases.size + links.d_3d.size
        work = FieldWork(paths)

        def repeat():
            return {"link_terms_per_block": statistics.median(
                        _timed(ch.link_terms, links, panel)[0] for _ in range(KERNEL_CALLS)),
                    "steered_energy_per_beam": statistics.median(
                        _timed(ch.steered_energy, terms, geom, steer, work)[0]
                        for geom, steer in beams for _ in range(KERNEL_CALLS))}

        out[name] = {"element_pattern": poa.element_pattern, "poa": poa.id,
                     "panel": [poa.panel_rows, poa.panel_cols],
                     "rays": int(links.phases.size), "paths": int(paths),
                     "beams": len(beams), **_repeat(repeat, repeats)}
    return out


def time_paper_layers(seed: int, repeats: int) -> dict:
    """Medians of a cold ``Evaluator`` and of its first ``metrics`` at
    maximum power on the evaluate-paper world ``inf-dh-default`` (placed
    with seed 1, CtM's geometry), that first ``metrics`` split into its
    three steps: drawing the links (``_Part.links``), ``channel.link_terms``
    and ``channel.steered_energy``, each summed over the call; and the
    first ``mean_rates`` of another cold ``Evaluator``, the users' fill.
    ``first_metrics_minor_faults`` is the median (the lower middle one) of
    the minor page faults the process took in each repeat's first
    ``metrics``, listed in repeat order under ``..._by_repeat``: how many a
    later repeat takes depends on what the process freed before it."""
    from cellless import channel as ch
    from cellless import radio_metrics as rm
    from cellless.scenario import builtin_template, generate_placements
    from cellless.solver_ctm import CtmConfig, build_geometry

    scenario = generate_placements(builtin_template("inf-dh-default"), 1)
    geometry = build_geometry(scenario, CtmConfig(seed=seed))
    steps = [(rm._Part, "links", "link_drawing"), (ch, "link_terms", "link_terms"),
             (ch, "steered_energy", "steering")]
    spent, faults = {}, []

    def summed(name, fn):
        def call(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[name] += time.perf_counter() - start
        return call

    def repeat():
        spent.update((name, 0.0) for _, _, name in steps)
        init_s, ev = _timed(rm.Evaluator, scenario, seed, REALIZATIONS)
        originals = [getattr(owner, attr) for owner, attr, _ in steps]
        for (owner, attr, name), fn in zip(steps, originals):
            setattr(owner, attr, summed(name, fn))
        try:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            metrics_s = _timed(ev.metrics, geometry)[0]
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        finally:
            for (owner, attr, _), fn in zip(steps, originals):
                setattr(owner, attr, fn)
        users_s = _timed(rm.Evaluator(scenario, seed, REALIZATIONS).mean_rates, geometry)[0]
        return {"evaluator_init": init_s, "first_metrics": metrics_s,
                "cold_users_fill": users_s, **spent}

    layers = _repeat(repeat, repeats)
    return {"world": "inf-dh-default placed with seed 1", "channel_seed": seed,
            "realizations": REALIZATIONS, "first_metrics_minor_faults_by_repeat": faults,
            "first_metrics_minor_faults": statistics.median_low(faults), **layers}


def git_commit(root: Path) -> str:
    """The commit of the checkout at ``root``, marked ``-dirty`` when its
    tracked files differ; "unknown" when ``root`` is not the top level of
    its own git work tree, as an export is, also one inside a checkout."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=False).stdout.strip()
    top = git("rev-parse", "--show-toplevel")
    if not top or Path(top).resolve() != root.resolve():
        return "unknown"
    return git("describe", "--always", "--dirty", "--abbrev=12") or "unknown"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                   help="source checkout to measure (default: this script's)")
    p.add_argument("--out", type=Path, required=True, help="trajectory file to write")
    p.add_argument("--label", default="change", help="key of this run under 'runs'")
    p.add_argument("--commit", help="commit recorded as env.commit (default: git_commit(--root))")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0, help="perfbench --seconds")
    p.add_argument("--repeats", type=int, default=5, help="repeats per layer timing")
    p.add_argument("--layers-only", action="store_true",
                   help="skip the perfbench run and the cellless run rows")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.repeats < 1:
        p.error("--seed must be >= 0, --seconds > 0 and --repeats >= 1")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import cellless
    import numpy

    record = {"env": {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                      "machine": platform.machine(), "python": platform.python_version(),
                      "numpy": numpy.__version__, "cellless": cellless.__version__,
                      "commit": args.commit or git_commit(root), "seed": args.seed,
                      "repeats": args.repeats},
              "layers": {"solver": time_solver_layers(args.seed, args.repeats),
                         "kernel": time_kernel_layers(args.seed, args.repeats),
                         "paper": time_paper_layers(args.seed, args.repeats)},
              "least_powers_sweeps": count_search_sweeps()}
    code = 0
    if not args.layers_only:
        record["cellless_run"] = time_cellless_runs(root, args.seed)
        code, workloads, elapsed = run_perfbench(root, args.seed, args.seconds)
        record["perfbench"] = {"command": f"perfbench/run.py --workload all --seed {args.seed} "
                                          f"--seconds {args.seconds}",
                               "exit_code": code, "elapsed_s": elapsed, "workloads": workloads}
    trajectory = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    trajectory["runs"][args.label] = record
    args.out.write_text(json.dumps(trajectory, indent=1, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
