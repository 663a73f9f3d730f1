"""Channel model statistics: LoS probability, pathloss, and fading spread.

Run with:
    python3 demos/02_channel_statistics.py
"""

import math

import numpy as np

from cellless.antenna import PanelGeometry, SteeringDirection
from cellless.channel import LosModel, link_energy, link_rng, los_probability, sample_link
from cellless.scenario import builtin_template


def main():
    t = builtin_template("inf-dh-desk")
    params = t.world.channel_params

    print("=== LoS probability vs distance ===")
    print("  d_2d [m]   InF-DH (PoA 7 m)   UMi (PoA 10 m)")
    for d in (5, 10, 20, 40, 80, 200):
        p_inf = los_probability(params.los_model, d, 7.0, 1.5)
        p_umi = los_probability(LosModel("umi"), d, 10.0, 1.5)
        print(f"  {d:8d}   {float(p_inf):16.3f}   {float(p_umi):14.3f}")

    print()
    print("=== Mean received energy vs distance (unit-gain panel, 0 dBm) ===")
    geom = PanelGeometry(1, 1)
    poa = (0.0, 10.0, 7.0)
    rows = []
    for d in (5, 10, 20, 40):
        user = (d, 10.0, 1.5)
        energies = []
        for r in range(200):
            steer_to = sample_link(poa, 5e9, user, params, link_rng(0, r, 0, 0))
            steer = SteeringDirection(*steer_to.los_aod)
            energies.append(link_energy(steer_to, 0.0, geom, steer))
        e = np.array(energies)
        rows.append((d, 10 * math.log10(e.mean()), 10 * np.log10(e).std()))
    print("  d [m]   mean [dBW]   std of dB")
    for d, mean_db, std_db in rows:
        print(f"  {d:5d}   {mean_db:10.1f}   {std_db:9.1f}")

    print()
    print("=== Determinism: the same key always gives the same draw ===")
    a = sample_link(poa, 5e9, (20.0, 10.0, 1.5), params, link_rng(7, 0, 1, 2))
    b = sample_link(poa, 5e9, (20.0, 10.0, 1.5), params, link_rng(7, 0, 1, 2))
    print(f"  pathloss: {a.pathloss_db:.6f} == {b.pathloss_db:.6f}")
    print(f"  first phase: {a.phases[0, 0]:.6f} == {b.phases[0, 0]:.6f}")


if __name__ == "__main__":
    main()
