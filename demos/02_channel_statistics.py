"""Channel model statistics: LoS probability, pathloss, and fading spread.

Run with:
    python3 demos/02_channel_statistics.py
"""

import math

import numpy as np

from cellless.antenna import PanelGeometry, SteeringDirection
from cellless.channel import (LosModel, direct_paths, link_terms, link_uniforms,
                              los_probability, sample_link, steered_energy)
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
        # 200 realizations of the link from PoA 0 to user 0 (part 0), seed
        # 0, in one draw, each steered at its direct path: 0 dBm is 1e-3 W.
        paths = direct_paths(poa, 5e9, [(d, 10.0, 1.5)], params)
        links = sample_link(paths, params, link_uniforms(0, range(200), 0, 0, 1, params))
        steer = SteeringDirection(float(paths.zenith[0]), float(paths.azimuth[0]))
        e = 1e-3 * steered_energy(link_terms(links, geom), geom, steer)
        rows.append((d, 10 * math.log10(e.mean()), 10 * np.log10(e).std()))
    print("  d [m]   mean [dBW]   std of dB")
    for d, mean_db, std_db in rows:
        print(f"  {d:5d}   {mean_db:10.1f}   {std_db:9.1f}")

    print()
    print("=== Determinism: a link draws the same in any block ===")
    # Human 2 of PoA 1 in realization 0, seed 7, a bystander linked to no
    # user (part 1 draws only those; a human standing on a user reads the
    # user's part-0 link): row 2 of its realization's block, its index among
    # all humans, whatever the block's row count.
    targets = [(20.0 + 5.0 * j, 10.0, 1.5) for j in range(4)]
    a, b = (sample_link(direct_paths(poa, 5e9, targets[:n], params), params,
                        link_uniforms(7, [0], 1, 1, n, params)) for n in (3, 4))
    print(f"  shadowing: {a.shadow_db[0, 2]:.6f} == {b.shadow_db[0, 2]:.6f}")
    print(f"  first phase: {a.phases[0, 2, 0, 0]:.6f} == {b.phases[0, 2, 0, 0]:.6f}")


if __name__ == "__main__":
    main()
