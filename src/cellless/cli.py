"""Command-line front end.

Exit codes: 0 success, 2 validation/usage error, 3 at least one run
failed: no feasible solution, or any other error, which is recorded on
that run and printed while the other runs complete.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ExperimentSpec, PLOT_KINDS, plot_data_from_dir, run_experiment
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

    run = sub.add_parser("run", help="solve scenarios over a batch of seeds")
    run.add_argument("--scenario", required=True,
                     help="built-in name (e.g. inf-dh-desk) or scenario file path")
    run.add_argument("--solver", default="both", choices=["ctm", "maxrate", "both"])
    run.add_argument("--seeds", default="0", type=_parse_seeds,
                     help="'1..10' or comma-separated list")
    run.add_argument("--realizations", default=10, type=int,
                     help="channel realizations per seed, shared by both solvers")
    run.add_argument("--workers", default=1, type=int,
                     help="processes; seeds run in parallel, a seed's solvers in turn")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--dump-links", action="store_true",
                     help="write sampled link realizations per run (needs --out)")
    run.add_argument("--sa-iterations", default=200, type=int)
    run.add_argument("--sa-cooling", default=0.95, type=float)
    run.add_argument("--sa-temp", default=None, type=float)
    run.add_argument("--sa-moves", default=20, type=int)

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
    try:
        spec = ExperimentSpec(
            scenario=args.scenario,
            solver=args.solver,
            seeds=args.seeds,
            n_realizations=args.realizations,
            out_dir=args.out,
            anneal=AnnealConfig(initial_temp=args.sa_temp,
                                cooling_factor=args.sa_cooling,
                                iterations=args.sa_iterations,
                                moves_per_temp=args.sa_moves),
            workers=args.workers,
            dump_links=args.dump_links,
        )
    except ValueError as e:
        run_parser.error(str(e))
    try:
        records = run_experiment(spec)
    except ScenarioError as e:
        print(f"invalid scenario: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"cannot write --out {args.out!r}: {e}", file=sys.stderr)
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
