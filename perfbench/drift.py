"""How far this host's speed drifts: fixed kernels timed over consecutive windows.

    python3 perfbench/drift.py [--seconds 60] [--window 3]

In each window a fixed pure-Python loop and a fixed numpy kernel are timed
over and over; the script prints the median time of each per window and
the range of those medians. It touches no arcdist code.
"""

import argparse
import statistics
import time

import numpy as np


def python_loop() -> float:
    total = 0.0
    for i in range(200_000):
        total += i * 0.5
    return total


def numpy_kernel(a=np.random.default_rng(0).standard_normal((2048, 512))) -> float:
    return float(np.arccos(np.clip(a @ a[:3].T, -1.0, 1.0)).sum() + np.sin(a).sum())


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--window", type=float, default=3.0)
    args = p.parse_args()
    medians = {"python_loop": [], "numpy_kernel": []}
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        window_end = time.perf_counter() + args.window
        samples = {name: [] for name in medians}
        while time.perf_counter() < window_end:
            for name, fn in (("python_loop", python_loop), ("numpy_kernel", numpy_kernel)):
                start = time.perf_counter()
                fn()
                samples[name].append((time.perf_counter() - start) * 1e3)
        for name, vals in samples.items():
            medians[name].append(statistics.median(vals))
        print("  ".join(f"{n} {m[-1]:.2f} ms" for n, m in medians.items()), flush=True)
    for name, vals in medians.items():
        print(f"{name}: window medians {min(vals):.2f} to {max(vals):.2f} ms over {len(vals)} windows")


if __name__ == "__main__":
    main()
