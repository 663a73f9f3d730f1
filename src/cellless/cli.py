"""Command-line front end.

Exit codes: 0 success, 2 validation/usage error, 3 at least one run
failed: no feasible solution, or any other error, which is recorded on
that run and printed while the other runs complete.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (PLOT_KINDS, SOLVER_CHOICES, ExperimentSpec, plot_data_from_dir,
                      run_experiment)
from .scenario import ScenarioError, load_scenario
from .solver_maxrate import AnnealConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


def _parse_seeds(text):
    """'1..10' (inclusive range) or '0,3,7' as a tuple of seeds;
    ``ExperimentSpec`` checks that they are distinct and non-negative."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(s) for s in text.split(","))


def _build_parser():
    """The top-level parser and its ``run`` subparser, which reports bad
    run flags."""
    parser = argparse.ArgumentParser(
        prog="cellless",
        description="Minimum-power configuration of cell-less radio networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each run flag is stored at the name of the field it sets, an
    # ``anneal.`` one on ``AnnealConfig``, and only when it is given: every
    # default is the field's own.
    run = sub.add_parser("run", help="solve scenarios over a batch of seeds",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--scenario", required=True,
                     help="built-in name (e.g. inf-dh-desk) or scenario file path")
    run.add_argument("--solver", choices=SOLVER_CHOICES)
    run.add_argument("--seeds", type=_parse_seeds, help="'1..10' or comma-separated list")
    run.add_argument("--realizations", dest="n_realizations", metavar="REALIZATIONS", type=int,
                     help="channel realizations per seed, shared by both solvers")
    run.add_argument("--workers", type=int,
                     help="processes; seeds run in parallel, a seed's solvers in turn")
    run.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    run.add_argument("--dump-links", action="store_true",
                     help="write sampled link realizations per run (needs --out)")
    run.add_argument("--sa-iterations", dest="anneal.iterations", metavar="SA_ITERATIONS", type=int)
    run.add_argument("--sa-cooling", dest="anneal.cooling_factor", metavar="SA_COOLING", type=float)
    run.add_argument("--sa-temp", dest="anneal.initial_temp", metavar="SA_TEMP", type=float)
    run.add_argument("--sa-moves", dest="anneal.moves_per_temp", metavar="SA_MOVES", type=int)

    plot = sub.add_parser("plot", help="emit plot data from run outputs")
    plot.add_argument("--kind", required=True, choices=list(PLOT_KINDS))
    plot.add_argument("--in", dest="in_dir", required=True)
    plot.add_argument("--out", required=True)

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("--scenario", required=True)
    return parser, run


def main(argv=None):
    parser, run_parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            scenario = load_scenario(args.scenario)
        except ScenarioError as e:
            print(f"invalid: {e}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"ok: {scenario.name} ({scenario.kind}, {len(scenario.poas)} PoAs, "
              f"{len(scenario.users)} users, {len(scenario.humans)} humans)")
        return EXIT_OK

    if args.command == "plot":
        try:
            plot_data_from_dir(args.in_dir, args.kind, args.out)
        except ValueError as e:
            print(str(e), file=sys.stderr)
            return EXIT_VALIDATION
        except OSError as e:
            print(f"cannot plot: {e}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"wrote {args.out}")
        return EXIT_OK

    # run: a bad solver or run-size flag is a usage error, reported before any run
    given = vars(args)
    del given["command"]
    anneal = {name.removeprefix("anneal."): given.pop(name)
              for name in list(given) if name.startswith("anneal.")}
    try:
        spec = ExperimentSpec(**given, anneal=AnnealConfig(**anneal))
    except ValueError as e:
        run_parser.error(str(e))
    try:
        records = run_experiment(spec)
    except ScenarioError as e:
        print(f"invalid scenario: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"cannot write --out {spec.out_dir!r}: {e}", file=sys.stderr)
        return EXIT_VALIDATION

    failed = [r for r in records if r.error is not None]
    for r in records:
        if r.error is not None:
            print(f"seed {r.seed} {r.solver}: FAILED ({r.error})")
        else:
            print(f"seed {r.seed} {r.solver}: total power {r.bundle.total_power:.4g} W, "
                  f"min rate {r.bundle.min_rate / 1e6:.1f} Mbit/s, "
                  f"max SAR {r.bundle.max_sar:.2e} W/kg, "
                  f"{'feasible' if r.bundle.feasible else 'infeasible'}")
    if failed:
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
