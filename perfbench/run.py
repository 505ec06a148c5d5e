"""Benchmark of arcdist's public functions: one workload per process, one caller.

    python3 perfbench/run.py --workload {seam_search,sphere_field,nearest_point,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The program is imported from ./src, never
from an installed copy. --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics from a run with spans around every layer function.
The last line of standard output is the result as JSON; the line before
it records the environment. Both are also written to perfbench/out/.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("seam_search", "sphere_field", "nearest_point")
SETUP_REPEATS = 5  # this process plus four fresh ones; setup_s is their median


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0, help="run length; sets the number of whole rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """Keep OpenBLAS at no more threads than this process may run on (set before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    want = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not want.isdigit() or not 1 <= int(want) <= nproc:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    return nproc


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def child_setup_s(args, speed) -> float:
    """Set-up time of a fresh process running the same workload, seed and length, speed-corrected."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    probes = [speed.take() for _ in range(3)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    probes += [speed.take() for _ in range(3)]
    factor = statistics.median(probes)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]) / factor


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints each result, then their union."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def time_metrics(timer, corrected: bool = True) -> dict:
    """Throughput, op-time percentiles and CPU per op, divided by the host's slowdown when corrected."""
    import numpy as np

    speed = timer.speed
    at = speed.factor_at if corrected else (lambda t: 1.0)
    between = speed.factor_between if corrected else (lambda t0, t1: 1.0)
    ops = np.array([s / at(t) for s, t in zip(timer.op_s, timer.op_at)]) * 1e3
    # Throughput and CPU cost are medians over rounds, so a few rounds that
    # ran while the host was unusually fast or slow do not move them.
    rounds = [(n, wall / f, cpu / f) for n, wall, cpu, t0, t1 in timer.rounds if n for f in [between(t0, t1)]]
    return {
        "ops_per_s": {"value": statistics.median(n / wall for n, wall, _ in rounds), "unit": "1/s"},
        "op_ms.p50": {"value": float(np.percentile(ops, 50)), "unit": "ms"},
        "op_ms.p90": {"value": float(np.percentile(ops, 90)), "unit": "ms"},
        "cpu_ms_per_op": {"value": statistics.median(cpu * 1e3 / n for n, _, cpu in rounds), "unit": "ms"},
    }


def end_to_end(timer, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        **time_metrics(timer),
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    nproc = cap_blas_threads()
    if not (ROOT / "src" / "arcdist" / "__init__.py").is_file():
        print(f"error: no arcdist sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import arcdist
    import hostspeed
    from workloads import WORKLOADS, Timer

    if not Path(arcdist.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported arcdist from {arcdist.__file__}, not from the checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    rounds = workload.rounds_for(args.seconds)
    workload.setup(args.seed, rounds)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    timer = Timer(workload.small_weight, probe_ops=not args.trace)
    try:
        for r in range(rounds):
            workload.run_round(r, timer)
            timer.close_round()
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer is None:
        speed = hostspeed.HostSpeed(workload.small_weight)
        own = setup_s / timer.speed.factor_at(timer.speed.at[0])
        setups = [own] + [child_setup_s(args, speed) for _ in range(SETUP_REPEATS - 1)]
        metrics = end_to_end(timer, statistics.median(setups), peak_rss_mb)
    else:
        span_s, hook_s = tracing.instrument_cost()
        layer = tracer.layer_metrics(timer.attempted, timer.wall_s, span_s, hook_s)
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        # Layer times take the run's median slowdown, so that traced runs compare across host speeds.
        slowdown = statistics.median(timer.speed.slowdown)
        metrics = {k: {"value": v / slowdown if units[k] in ("ms", "ns") else v, "unit": units[k]}
                   for k, v in layer.items()}

    problems = workload.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    env = environment(args, nproc)
    env.update(rounds=rounds, timed_s=timer.wall_s, host_slowdown=statistics.median(timer.speed.slowdown),
               uncorrected={k: m["value"] for k, m in time_metrics(timer, corrected=False).items()})
    result = {"correct": not problems, "attempted": timer.attempted, "failed": timer.failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"environment": env, **result}, indent=1) + "\n")
    if tracer is not None:
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
