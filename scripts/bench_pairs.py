#!/usr/bin/env python3
"""Time a change against its parent in alternating perfbench pairs.

Runs N pairs of `python3 perfbench/run.py --workload W --seed S --seconds T`
in two checkout directories, one run at a time: the parent first in
even-numbered pairs (counting from 0), the change first in odd ones. It
keeps the last line of every run (perfbench's result: correct, attempted,
failed and the metrics) and the environment line before it. A run that
exits nonzero is kept as its exit code and the tail of its stderr; the
other runs go on, the summary reads only the pairs whose two runs both
finished, and the script exits 1 once it has printed the summary and
written --out.

For each metric it prints each side's median and quartiles
(numpy.percentile), the pairs in which the change is better in the
direction the parent's BENCHMARK.json gives, and whether the change's gain
is resolved: it wins at least 9 of every 10 pairs, and its median is
better than the parent's by more than the parent's interquartile range.
--out writes every run and that summary as JSON.

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workload seam_search --seed 1 --pairs 10 --out pairs.json
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
STDERR_TAIL_LINES = 20


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `checkout`: its result line and its environment
    line, or, if it exits nonzero, its exit code and the tail of its stderr."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode:
        return {"exit_code": proc.returncode, "stderr_tail": proc.stderr.splitlines()[-STDERR_TAIL_LINES:]}
    *_, env_line, result_line = proc.stdout.strip().splitlines()
    return {"environment": json.loads(env_line)["environment"], "result": json.loads(result_line)}


def directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from BENCHMARK.json's end-to-end and per-layer lists."""
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in benchmark.get(key, [])}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median, quartiles and runs, the change's wins
    over the pairs whose two runs both finished, and whether its gain is
    resolved (see the module docstring); the runs that exited nonzero; and
    whether every run finished, correct with no failed op."""
    by_side = {(r["pair"], r["side"]): r["result"] for r in runs if "result" in r}
    pairs = sorted({p for p, _ in by_side if all((p, side) in by_side for side in SIDES)})
    results = [by_side[p, side] for p in pairs for side in SIDES]
    failed_runs = [{k: r[k] for k in ("pair", "side", "exit_code", "stderr_tail")} for r in runs if "result" not in r]
    metrics = {}
    for name in sorted({m for result in results for m in result["metrics"]}):
        if name not in better:
            continue
        sign = 1.0 if better[name] == "higher" else -1.0
        values = {side: [by_side[p, side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        entry = {"unit": results[0]["metrics"][name]["unit"], "better": better[name]}
        for side in SIDES:
            q1, median, q3 = np.percentile(values[side], [25, 50, 75])
            entry[side] = {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": values[side]}
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        gain = sign * (entry["change"]["median"] - entry["parent"]["median"])
        entry["change_wins"] = f"{wins}/{len(pairs)}"
        entry["gain_resolved"] = bool(10 * wins >= 9 * len(pairs) and gain > entry["parent"]["q3"] - entry["parent"]["q1"])
        metrics[name] = entry
    correct = not failed_runs and all(r["correct"] and r["failed"] == 0 for r in results)
    return {"pairs": len(pairs), "all_correct_with_no_failed_ops": correct, "failed_runs": failed_runs,
            "metrics": metrics}


def report(summary: dict) -> str:
    """The summary as a text table, one metric a line."""
    lines = [f"{summary['pairs']} pairs, all correct with no failed op: {summary['all_correct_with_no_failed_ops']}"]
    for r in summary["failed_runs"]:
        last = r["stderr_tail"][-1] if r["stderr_tail"] else ""
        lines.append(f"pair {r['pair']} {r['side']} exited {r['exit_code']}: {last}")
    for name, m in summary["metrics"].items():
        sides = "  ".join(
            f"{side} {m[side]['median']:.4g} [{m[side]['q1']:.4g}, {m[side]['q3']:.4g}]" for side in SIDES
        )
        resolved = "gain resolved" if m["gain_resolved"] else "not resolved"
        lines.append(f"{name} ({m['unit']}, {m['better']} is better): {sides}  wins {m['change_wins']}  {resolved}")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="JSON file for the runs and the summary")
    args = ap.parse_args()

    checkouts = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            run = run_once(checkouts[side], args.workload, args.seed, args.seconds, args.trace)
            runs.append({"pair": pair, "side": side, **run})
            shown = run["result"]["metrics"] if "result" in run else {"exit_code": run["exit_code"]}
            print(f"pair {pair} {side}: {json.dumps(shown)}", file=sys.stderr)
    better = directions(json.loads((args.parent / "BENCHMARK.json").read_text()))
    summary = summarize(runs, better)
    print(report(summary))
    if args.out:
        settings = {k: getattr(args, k) for k in ("workload", "seed", "seconds", "pairs", "trace")}
        args.out.write_text(json.dumps({**settings, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 1 if summary["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
