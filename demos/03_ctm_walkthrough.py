"""Step-by-step Cluster-then-Match on the desk-scale factory scenario.

Run with:
    python3 demos/03_ctm_walkthrough.py
"""

import math

from cellless.radio_metrics import Evaluator
from cellless.scenario import builtin_scenario
from cellless.solver_ctm import (CtmConfig, cluster_users, geometry_of, match_clusters,
                                 reduce_powers)


def main():
    seed = 1
    scenario = builtin_scenario("inf-dh-desk", seed)
    cfg = CtmConfig(seed=seed)
    print(f"Scenario {scenario.name}: {len(scenario.poas)} PoAs, "
          f"{len(scenario.users)} users, {len(scenario.humans)} humans")

    # Step 1: cluster users (k = total number of beams).
    beams = scenario.all_beams
    clusters = cluster_users(list(scenario.users), len(beams), cfg)
    print(f"\nStep 1 - clustering: {len(beams)} beams -> "
          f"{sum(1 for users in clusters if users)} non-empty clusters")

    # Step 2: match the non-empty clusters to PoAs by the distance from the
    # PoA to each cluster's aim point, its users' mean position; each PoA
    # gives its clusters to its beams in order, lowest index first. The
    # result is the association: a beam id to its users.
    groups = match_clusters(clusters, beams, scenario)
    print(f"\nStep 2 - matching: {len(groups)} beams win a cluster (beam -> users):")
    for beam_id, users in list(groups.items())[:6]:
        print(f"  {beam_id}: {', '.join(users)}")
    print("  ...")

    # Step 3a: steering and widths of that association, all PoAs at maximum
    # power: each beam serves its group, steered at its aim point; every
    # other beam is idle.
    geometry = geometry_of(scenario, groups)
    print("\nStep 3a - geometry at max power:")
    for b in [b for b in geometry.beams if b.active][:6]:
        print(f"  {b.beam_id}: az {math.degrees(b.azimuth):7.1f} deg, "
              f"zen {math.degrees(b.zenith):5.1f} deg, "
              f"width {math.degrees(b.width):5.1f} deg, "
              f"{len(b.served_users)} users")
    print("  ...")

    evaluator = Evaluator(scenario, seed)
    m0 = evaluator.metrics(geometry)
    print(f"  total power {m0.total_power:.3f} W, "
          f"min rate {m0.min_rate / 1e6:.1f} Mbit/s, "
          f"max SAR {m0.max_sar:.2e} W/kg")

    # Step 3b: the least power vector that meets every floor on these beams,
    # each PoA held by its binding user, the one whose floor needs the most.
    _, binding, _ = evaluator.least_powers(geometry)
    solved, m1 = reduce_powers(geometry, evaluator)
    print("\nStep 3b - the least power vector:")
    for pid in solved.active_poas():
        print(f"  {pid}: {geometry.tx_power[pid]:6.1f} -> "
              f"{solved.tx_power[pid]:8.2f} dBm, bound by {binding[pid]}")
    print(f"  total power {m1.total_power:.3e} W "
          f"({m1.total_power / m0.total_power:.2e} of max), "
          f"min rate {m1.min_rate / 1e6:.1f} Mbit/s, "
          f"max SAR {m1.max_sar:.2e} W/kg, feasible={m1.feasible}")


if __name__ == "__main__":
    main()
