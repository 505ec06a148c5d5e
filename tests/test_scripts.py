"""Each script under scripts/ starts and prints its help, so a renamed import fails here,
and the flatter-curve search, the seam amplitude scan and the is_simple verdict sweep
each run a small case."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script), "--help"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_flatter_curve_search_reports_the_objective_it_minimized(tmp_path):
    # the sup line recomputes the best value on the search's own design and rule, bit for bit
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "search_flatter_curve.py"), "--max-evals", "8",
         "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.split(":", 1) for line in proc.stdout.splitlines() if ":" in line)
    best = lines["objective"].split("->")[1].strip()
    assert lines["sup dev at best"].split()[0] == best


def test_flatter_curve_search_takes_no_seed():
    # no random draw of the sup_dev_from_half_pi search reads a seed, so the script offers none
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "search_flatter_curve.py"), "--seed", "42"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "unrecognized arguments: --seed 42" in proc.stderr


def test_seam_amplitude_scan_takes_no_seed():
    # its mean_min column draws at mean_min_arc_distance's default seed, so the script offers none
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scan_seam_amplitude.py"), "--seed", "42"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "unrecognized arguments: --seed 42" in proc.stderr


def test_seam_amplitude_scan_writes_one_row_per_step(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "scan.csv"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scan_seam_amplitude.py"), "--lo", "0.7", "--hi", "0.71",
         "--steps", "2", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = out.read_text().splitlines()
    assert header == "a,arc_length,sup_dev_from_half_pi,mean_min"
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert values.shape == (2, 4)
    assert np.all(np.isfinite(values))
    assert values[:, 0].tolist() == [0.7, 0.71]


def test_simple_sweep_writes_one_row_per_check(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "sweep.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "simple_sweep.py"), "--seeds", "3", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())
    # each seed at scale 1, then at its calibrated scale
    assert [r["seed"] for r in rows] == [1000, 1000, 1001, 1001, 1002, 1002]
    assert [r["scale"] == 1.0 for r in rows] == [True, False] * 3
    assert [r["simple"] for r in rows] == [False, False, False, False, True, True]
    assert [r["witness"] is None for r in rows] == [r["simple"] for r in rows]


def test_simple_sweep_slice_reproduces_its_recorded_verdicts():
    # Seeds 1000-1019 of the default sweep, the first 40 of its rows recorded
    # in tests/data (CI checks all 600). The verdicts must match exactly; the
    # scales and witnesses to 1e-9, a bound that holds for curve evaluation
    # with the same bits: refined witnesses are ill-conditioned, and a few
    # ulp in the positions have moved them by up to 6.6e-8. A change to those
    # bits re-records the file in a change that says so.
    spec = importlib.util.spec_from_file_location("simple_sweep", ROOT / "scripts" / "simple_sweep.py")
    simple_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(simple_sweep)
    recorded = json.loads((ROOT / "tests" / "data" / "simple_sweep_seeds_1000_1299.json").read_text())[:40]
    rows = simple_sweep.sweep(1000, 20)
    assert len(rows) == len(recorded) == 40
    assert [(r["seed"], r["simple"]) for r in rows] == [(r["seed"], r["simple"]) for r in recorded]
    for row, want in zip(rows, recorded):
        assert row["scale"] == pytest.approx(want["scale"], abs=1e-9)
        assert (row["witness"] is None) == (want["witness"] is None)
        if want["witness"] is not None:
            assert row["witness"] == pytest.approx(want["witness"], abs=1e-9)


def _canned_runs(parent, change, correct=True):
    """perfbench result lines of alternating pairs: op_ms.p50 and ops_per_s per run."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, ms in (("parent", p), ("change", c)):
            metrics = {"op_ms.p50": {"value": ms, "unit": "ms"}, "ops_per_s": {"value": 1000.0 / ms, "unit": "1/s"}}
            result = {"correct": correct, "attempted": 40, "failed": 0, "metrics": metrics}
            runs.append({"pair": pair, "side": side, "result": result})
    return runs


def test_bench_pairs_summary_on_canned_runs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    better = bench_pairs.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert [better[m] for m in ("op_ms.p50", "ops_per_s", "curves.speeds.rows_per_op")] == ["lower", "higher", "lower"]

    parent = [2.0, 2.1, 2.2, 2.3, 2.0, 2.1, 2.2, 2.3, 2.0, 2.1]
    change = [1.8, 1.9, 2.0, 2.1, 1.8, 1.9, 2.0, 2.1, 1.8, 2.2]  # the last pair is a loss
    summary = bench_pairs.summarize(_canned_runs(parent, change), better)
    assert summary["pairs"] == 10 and summary["all_correct_with_no_failed_ops"]
    p50 = summary["metrics"]["op_ms.p50"]
    assert p50["parent"] == {"median": 2.1, "q1": 2.025, "q3": 2.2, "runs": parent}
    assert p50["change"]["median"] == pytest.approx(1.95)
    # 9 of 10 wins, and the medians 0.15 apart against a parent spread of 0.175
    assert p50["change_wins"] == "9/10" and not p50["gain_resolved"]
    assert summary["metrics"]["ops_per_s"]["change_wins"] == "9/10"

    change = [v - 0.3 for v in change[:-1]] + [2.2]  # still 9 of 10, now 0.3 apart
    resolved = bench_pairs.summarize(_canned_runs(parent, change), better)["metrics"]["op_ms.p50"]
    assert resolved["change_wins"] == "9/10" and resolved["gain_resolved"]
    change[0] = 2.5  # a second loss
    assert not bench_pairs.summarize(_canned_runs(parent, change), better)["metrics"]["op_ms.p50"]["gain_resolved"]
    failing = bench_pairs.summarize(_canned_runs(parent, change, correct=False), better)
    assert not failing["all_correct_with_no_failed_ops"]
    assert "op_ms.p50 (ms, lower is better): parent 2.1 [2.025, 2.2]" in bench_pairs.report(summary)


def test_bench_pairs_keeps_every_run_when_one_exits_nonzero(tmp_path):
    # the change's perfbench stub exits 3: every run is kept, --out is
    # written with the failed runs' exit codes and stderr, and the script exits 1
    stubs = {
        "parent": (
            "import json\n"
            "print(json.dumps({'environment': {'stub': True}}))\n"
            "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,"
            " 'metrics': {'op_ms.p50': {'value': 1.0, 'unit': 'ms'}}}))\n"
        ),
        "change": "import sys\nsys.stderr.write('Traceback\\nRuntimeError: stub failure\\n')\nsys.exit(3)\n",
    }
    for side, source in stubs.items():
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(source)
    (tmp_path / "parent" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--parent", str(tmp_path / "parent"),
         "--change", str(tmp_path / "change"), "--workload", "seam_search", "--pairs", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "pair 0 change exited 3: RuntimeError: stub failure" in proc.stdout
    report = json.loads(out.read_text())
    assert [(r["pair"], r["side"], "result" in r) for r in report["runs"]] == [
        (0, "parent", True), (0, "change", False), (1, "change", False), (1, "parent", True)
    ]
    failed = report["summary"]["failed_runs"]
    assert [(r["pair"], r["side"], r["exit_code"]) for r in failed] == [(0, "change", 3), (1, "change", 3)]
    assert failed[0]["stderr_tail"] == ["Traceback", "RuntimeError: stub failure"]
    assert report["summary"]["pairs"] == 0 and not report["summary"]["all_correct_with_no_failed_ops"]
