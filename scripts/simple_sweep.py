#!/usr/bin/env python3
"""Rerun the is_simple verdict sweep over perturbed seam shapes.

Each seed s draws the shape x0 + sigma * N(0, 1) in seam_seeded_family(3),
with x0 the seam shape, the normal draw from numpy.random.default_rng(s)
and sigma = 0.1 * (1 + (s - first seed) mod 6). The shape is checked at
scale 1 and at its calibrated scale (arc length 4pi to 1e-10). Writes a
JSON list of {"seed", "scale", "simple", "witness"} rows, one per check;
a shape whose calibration fails has scale null and no verdict. Run it in
two checkouts and diff the files to compare their verdicts:

    PYTHONPATH=src python scripts/simple_sweep.py --out sweep.json
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from arcdist.curves import is_simple
from arcdist.optimize import CalibrationFailedError, NoBracketError, seam_seeded_family


def sweep(first: int, count: int) -> list[dict]:
    family = seam_seeded_family(3)
    x0 = np.array(family.initial_shape)
    rows = []
    for seed in range(first, first + count):
        sigma = 0.1 * (1 + (seed - first) % 6)
        shape = x0 + sigma * np.random.default_rng(seed).standard_normal(x0.size)
        try:
            calibrated = family.calibrate(shape, 1e-10).parameter
        except (NoBracketError, CalibrationFailedError):
            calibrated = None
        for scale in (1.0, calibrated):
            row = {"seed": seed, "scale": scale, "simple": None, "witness": None}
            if scale is not None:
                simple, witness = is_simple(family.build(shape, scale))
                row["simple"] = simple
                row["witness"] = None if witness is None else list(witness)
            rows.append(row)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--seeds", type=int, default=300, help="number of seeds (two checks each)")
    ap.add_argument("--out", default="simple_sweep.json")
    args = ap.parse_args()

    rows = sweep(args.first_seed, args.seeds)
    Path(args.out).write_text(json.dumps(rows, indent=1) + "\n")
    verdicts = [r["simple"] for r in rows if r["simple"] is not None]
    print(f"wrote {args.out}: {len(verdicts)} checks, {verdicts.count(False)} not simple")
    return 0


if __name__ == "__main__":
    sys.exit(main())
