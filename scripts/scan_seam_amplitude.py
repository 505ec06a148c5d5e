#!/usr/bin/env python3
"""Sweep the seam amplitude and record how the functionals respond.

Writes a CSV of (a, arc_length, sup_dev_from_half_pi, mean_min) over a
grid of amplitudes; the arc-length column crosses 4pi near a = 0.70373.
mean_min draws its 5000 points at mean_min_arc_distance's default seed.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from arcdist.curves import arc_length, tennis_ball_seam
from arcdist.functionals import mean_min_arc_distance, sup_deviation_from_half_pi


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=float, default=0.3)
    ap.add_argument("--hi", type=float, default=1.2)
    ap.add_argument("--steps", type=int, default=46)
    ap.add_argument("--out", default="seam_amplitude_scan.csv")
    args = ap.parse_args()

    rows = ["a,arc_length,sup_dev_from_half_pi,mean_min"]
    for a in np.linspace(args.lo, args.hi, args.steps):
        curve = tennis_ball_seam(float(a))
        length = arc_length(curve).value
        sup, _ = sup_deviation_from_half_pi(curve)
        mean_min = mean_min_arc_distance(curve, n_points=5000, n_scan=2048).value
        rows.append(f"{a:.6f},{length:.12g},{sup:.12g},{mean_min:.12g}")
        print(rows[-1])

    Path(args.out).write_text("\n".join(rows) + "\n")
    print(f"\nwrote {args.out}; 4pi = {4 * math.pi:.12g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
