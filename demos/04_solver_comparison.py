"""CtM vs MaxRate on paired seeds: power, rates, and exposure.

Run with:
    python3 demos/04_solver_comparison.py
"""

import numpy as np

from cellless.radio_metrics import Evaluator
from cellless.scenario import builtin_scenario
from cellless.solver_ctm import solve_ctm
from cellless.solver_maxrate import AnnealConfig, solve_maxrate


def main():
    seeds = (1, 2, 3)
    print("scenario      seed  solver   power [W]   min rate [Mb/s]  max SAR [W/kg]")
    for name in ("inf-dh-desk", "umi-sc-desk"):
        powers = {"ctm": [], "maxrate": []}
        for seed in seeds:
            scenario = builtin_scenario(name, seed)
            # One Evaluator per seed, shared by both solvers, as `cellless run`
            # builds it: the two face the same channel realizations.
            evaluator = Evaluator(scenario, seed)
            ctm_sol, ctm_m = solve_ctm(evaluator)
            sa_sol, sa_m = solve_maxrate(evaluator, AnnealConfig(iterations=40, moves_per_temp=10))
            for solver, m in (("ctm", ctm_m), ("maxrate", sa_m)):
                powers[solver].append(m.total_power)
                print(f"{name:12}  {seed:4d}  {solver:7}  {m.total_power:10.3e}"
                      f"  {m.min_rate / 1e6:15.1f}  {m.max_sar:14.2e}")
        ratio = np.median(powers["ctm"]) / np.median(powers["maxrate"])
        print(f"{name}: median CtM power is {ratio:.2e} x MaxRate's\n")


if __name__ == "__main__":
    main()
