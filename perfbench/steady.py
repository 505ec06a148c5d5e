"""Steadiness of one workload: rerun it k times with seeds s, s+1, ... and compare.

    python3 perfbench/steady.py --workload sphere_field [--runs 10] [--first-seed 1] [--seconds 20]

Prints, for every end-to-end metric, the median, the first and third
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median, and
the bound from BENCHMARK.json beside it, then the failed share of every
run. The runs go one after another, each in its own process. The table is
also written to perfbench/out/steady-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args(argv)
    if args.runs < 4:
        p.error("quartiles need at least 4 runs")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    shares, correct = [], True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        shares.append((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    table = {}
    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s, all correct: {correct}")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  spread < bound/3")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        ok = bound is not None and spread < bound / 3
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": vals}
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound!s:>6}  {ok}")
    print("failed/attempted per run: " + ", ".join(f"{f}/{a}" for f, a in shares))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(
        json.dumps({"workload": args.workload, "seconds": seconds, "correct": correct,
                    "failed_attempted": shares, "metrics": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
