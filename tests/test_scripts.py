"""Each script under scripts/ starts and prints its help, so a renamed import fails here,
and the is_simple verdict sweep runs a small case."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
