import argparse
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from arcdist import cli, optimize, verify
from arcdist.cli import build_parser, main
from arcdist.curves import arc_length, from_spec, tennis_ball_seam, to_spec, with_scale
from arcdist.functionals import mean_min_arc_distance
from arcdist.quadrature import TOLERANCE_NOT_REACHED, FunctionalResult, default_curve_rule
from arcdist.verify import ClaimRow


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSample:
    def test_great_circle_rows(self, capsys):
        code, out, _ = run(["sample", "--curve", '{"family":"great_circle","domain":[0,1]}', "--n", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x,y,z"
        assert len(lines) == 6
        for line in lines[1:]:
            t, x, y, z = map(float, line.split(","))
            assert x == pytest.approx(math.sin(2 * math.pi * t), abs=1e-15)
            assert y == 0.0
            assert z == pytest.approx(math.cos(2 * math.pi * t), abs=1e-15)
            assert abs(x * x + y * y + z * z - 1.0) <= 1e-12

    def test_seam_first_row(self, tmp_path, capsys):
        out_path = tmp_path / "seam.csv"
        code, _, _ = run(["sample", "--curve", '{"family":"tennis_ball"}', "--n", "1024", "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1025
        t, x, y, z = map(float, lines[1].split(","))
        assert (t, y) == (0.0, 0.0)
        assert x == pytest.approx(math.sin(0.7037), abs=1e-12)
        assert z == pytest.approx(math.cos(0.7037), abs=1e-12)

    def test_non_finite_trig_series_rejected(self, capsys):
        # a NaN amplitude is a config error, not three rows of nan
        curve = '{"family":"trig_series","params":{"amplitude":NaN,"theta_cos":[0.1]}}'
        code, out, err = run(["sample", "--curve", curve, "--n", "3"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: trig_series amplitude must be finite")

    def test_single_row_rejected(self, capsys):
        code, _, err = run(["sample", "--curve", '{"family":"great_circle"}', "--n", "1"], capsys)
        assert code == 2
        assert "config error" in err


class TestEval:
    def test_wavy_with_point(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            ["eval", "--curve", '{"family":"wavy_circle"}', "--points", "[[0,1]]", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["version"]
        rows = {r["name"]: r for r in report["results"]}
        assert rows["point_to_curve_mean[0,1]"]["value"] == pytest.approx(2.3562, abs=1e-4)
        assert rows["sphere_to_curve_mean"]["value"] == pytest.approx(2 * math.pi**2, rel=5e-2)
        assert "error_estimate" in rows["arc_length"]

    def test_great_circle_not_simple(self, tmp_path, capsys):
        out_path = tmp_path / "gc.json"
        code, _, _ = run(
            ["eval", "--curve", '{"family":"great_circle","domain":[0,2]}', "--out", str(out_path)], capsys
        )
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out_path.read_text())["results"]}
        assert rows["is_simple"]["value"] == 0.0
        assert rows["curve_to_sphere_mean_M"]["value"] == pytest.approx(2 * math.pi**2, abs=1e-6)

    def test_missing_curve_is_config_error(self, capsys):
        code, _, err = run(["eval"], capsys)
        assert code == 2

    def test_byte_identical_reports(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run(
                ["eval", "--curve", '{"family":"tennis_ball"}', "--out", str(p)], capsys
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_mean_min_row_draws_at_the_library_default_seed(self, capsys):
        spec = '{"family":"tennis_ball"}'
        code, out, _ = run(["eval", "--curve", spec], capsys)
        assert code == 0
        (row,) = [r for r in json.loads(out)["results"] if r["name"] == "mean_min_arc_distance"]
        expected = mean_min_arc_distance(from_spec(spec), 10_000)
        assert (row["value"], row["error_estimate"], row["nodes_used"]) == (
            expected.value, expected.error_estimate, expected.nodes_used
        )

    def test_open_curve_takes_no_simplicity_check(self, capsys, monkeypatch):
        # is_simple reads its samples as a closed polyline: on an open curve the
        # gap between the ends would set its capture radius
        def must_not_run(*a, **k):
            raise AssertionError("is_simple called on an open curve")

        monkeypatch.setattr("arcdist.curves.is_simple", must_not_run)
        curve = '{"family":"wavy_circle","params":{"b":0.2862413},"domain":[0,5]}'
        code, out, _ = run(["eval", "--curve", curve], capsys)
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        assert rows["is_closed"]["value"] == 0.0
        assert "is_simple" not in rows and "curve_to_sphere_mean_M" not in rows
        assert "mean_min_arc_distance" in rows

    def test_tol_leaves_the_surface_integral_at_its_default_rule(self, tmp_path, capsys):
        # --tol sets only the curve rule's tolerance; the surface integral takes the default sphere rule
        rows = []
        for extra in ([], ["--tol", "1e-12"]):
            out_path = tmp_path / f"wavy{len(extra)}.json"
            code, _, _ = run(["eval", "--curve", '{"family":"wavy_circle"}', *extra, "--out", str(out_path)], capsys)
            assert code == 0
            results = json.loads(out_path.read_text())["results"]
            rows.append([r for r in results if r["name"].startswith("sphere_to_curve_mean")])
        assert len(rows[0]) == 2 and rows[0] == rows[1]

    def test_row_carries_its_integral_warning_and_node_count(self, capsys):
        # a point on the wavy circle at b = 0.3 (t = 0.1): its mean distance under --tol 1e-12 stops at the node cap
        curve = '{"family":"wavy_circle","params":{"b":0.3}}'
        args = ["eval", "--curve", curve, "--points", "[[2.6086357856347138,0.1]]", "--tol", "1e-12"]
        code, out, _ = run(args, capsys)
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        row = rows["point_to_curve_mean[2.60864,0.1]"]
        assert row["warning"] == TOLERANCE_NOT_REACHED and row["nodes_used"] == 1048576
        # the mean over 4pi is the same integral, scaled: it reports the same nodes and warning
        mean, over_4pi = rows["sphere_to_curve_mean"], rows["sphere_to_curve_mean_over_4pi"]
        assert over_4pi["nodes_used"] == mean["nodes_used"] >= 1
        assert over_4pi.get("warning") == mean.get("warning")
        assert all("nodes_used" in r for r in rows.values() if "error_estimate" in r)

    def test_n_leaves_the_surface_integral_inner_rule_at_its_default(self, monkeypatch, capsys):
        # --n sets the curve rule; the field inside sphere_to_curve_mean keeps its default 512 nodes
        inner = []

        def field(curve, points, curve_rule=None):
            inner.append((curve_rule or default_curve_rule()).n)
            return np.full(len(points), 0.5 * math.pi)

        monkeypatch.setattr("arcdist.functionals.mean_distance_field", field)
        code, _, _ = run(["eval", "--curve", '{"family":"great_circle"}', "--n", "1024"], capsys)
        assert code == 0
        assert inner and set(inner) == {512}


class TestCalibrate:
    def test_seam(self, tmp_path, capsys):
        out_path = tmp_path / "cal.json"
        code, _, _ = run(["calibrate", "--curve", '{"family":"tennis_ball"}', "--out", str(out_path)], capsys)
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out_path.read_text())["results"]}
        assert rows["calibrated_parameter"]["value"] == pytest.approx(0.7037, abs=5e-4)
        assert rows["residual"]["value"] <= 1e-6

    def test_wavy_reports_true_root(self, tmp_path, capsys):
        out_path = tmp_path / "cal.json"
        code, _, _ = run(["calibrate", "--curve", '{"family":"wavy_circle"}', "--out", str(out_path)], capsys)
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out_path.read_text())["results"]}
        assert rows["calibrated_parameter"]["value"] == pytest.approx(0.2862413, abs=1e-5)

    def test_great_circle_domain_scale(self, tmp_path, capsys):
        out_path = tmp_path / "cal.json"
        code, _, _ = run(["calibrate", "--curve", '{"family":"great_circle"}', "--out", str(out_path)], capsys)
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out_path.read_text())["results"]}
        assert rows["calibrated_parameter"]["value"] == 1.0
        assert rows["calibrated_parameter"]["message"] == "domain scale"

    def test_trig_series_amplitude(self, tmp_path, capsys):
        out_path = tmp_path / "cal.json"
        spec = '{"family":"trig_series","params":{"theta_cos":[-0.8670963267948966],"phi_sin":[0,0.7037]}}'
        code, _, _ = run(["calibrate", "--curve", spec, "--out", str(out_path)], capsys)
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out_path.read_text())["results"]}
        # the root of L - 4pi under the default curve rule, by bisection to
        # |L - 4pi| <= 1e-10 (arcdist calibrate stops at its default 1e-6)
        assert rows["calibrated_parameter"]["value"] == pytest.approx(1.0000439074956964, abs=1e-9)
        assert rows["calibrated_parameter"]["message"] == "series amplitude"

    def test_great_circle_keeps_its_domain(self, tmp_path, capsys):
        # the single traversal on [0, 1] has length 2pi s at scale s, so the
        # default bracket [0.5, 1.5] holds no root and [1.5, 2.5] holds s = 2
        spec = '{"family":"great_circle","domain":[0,1]}'
        code, _, err = run(["calibrate", "--curve", spec], capsys)
        assert code == 3
        assert "no sign change" in err
        out_path = tmp_path / "cal.json"
        code, _, _ = run(["calibrate", "--curve", spec, "--bracket", "1.5", "2.5", "--out", str(out_path)], capsys)
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out_path.read_text())["results"]}
        assert rows["calibrated_parameter"]["value"] == pytest.approx(2.0, abs=1e-12)

    @staticmethod
    def _calibrate(tmp_path, capsys, *flags):
        """The rows of arcdist calibrate on the seam with flags, by name."""
        out_path = tmp_path / "cal.json"
        code, _, _ = run(["calibrate", "--curve", '{"family":"tennis_ball"}', *flags, "--out", str(out_path)], capsys)
        assert code == 0
        return {r["name"]: r for r in json.loads(out_path.read_text())["results"]}

    @staticmethod
    def _capped_arc_length(monkeypatch):
        """Every confirming arc length stops at the node cap, with its value kept."""
        from arcdist import curves

        def capped(curve, rule=None):
            res = curves.arc_length(curve, rule)
            return FunctionalResult(res.value, 1e-3, 4096, TOLERANCE_NOT_REACHED)

        monkeypatch.setattr("arcdist.optimize.arc_length", capped)

    def test_reports_the_nodes_of_its_arc_length(self, tmp_path, capsys):
        rows = self._calibrate(tmp_path, capsys)
        # the default curve rule (n = 512) settles at its second level
        assert rows["arc_length"]["nodes_used"] == 1024
        assert "nodes_used" not in rows
        assert not any("warning" in row or name.startswith("warning_") for name, row in rows.items())

    def test_arc_length_row_carries_its_own_error_estimate(self, tmp_path, capsys):
        # the doubling estimate of the confirming arc length, not the constraint residual
        rows = self._calibrate(tmp_path, capsys)
        length = arc_length(with_scale(tennis_ball_seam(), rows["calibrated_parameter"]["value"]))
        assert rows["arc_length"]["value"] == length.value
        assert rows["arc_length"]["error_estimate"] == length.error_estimate
        assert rows["residual"]["value"] == abs(length.value - 4 * math.pi)

    def test_sign_change_warning_is_on_the_calibrated_parameter(self, tmp_path, capsys):
        rows = self._calibrate(tmp_path, capsys, "--bracket", "0.01", "1.4")
        assert rows["calibrated_parameter"]["warning"] == "multiple_sign_changes"
        assert "warning" not in rows["arc_length"]
        assert not any(name.startswith("warning_") for name in rows)

    def test_a_capped_arc_length_carries_its_warning(self, tmp_path, capsys, monkeypatch):
        self._capped_arc_length(monkeypatch)
        rows = self._calibrate(tmp_path, capsys)
        assert rows["arc_length"]["nodes_used"] == 4096
        assert rows["arc_length"]["warning"] == TOLERANCE_NOT_REACHED
        assert "warning" not in rows["calibrated_parameter"]

    def test_a_capped_arc_length_keeps_the_sign_change_warning(self, tmp_path, capsys, monkeypatch):
        self._capped_arc_length(monkeypatch)
        rows = self._calibrate(tmp_path, capsys, "--bracket", "0.01", "1.4")
        assert rows["calibrated_parameter"]["warning"] == "multiple_sign_changes"
        assert rows["arc_length"]["warning"] == "tolerance_not_reached"
        assert rows["arc_length"]["nodes_used"] == 4096

    def test_bracket_end_past_the_family_range_is_config_error(self, capsys):
        # the pre-scan runs on the length model, but both ends are still built
        code, _, err = run(["calibrate", "--curve", '{"family":"tennis_ball"}', "--bracket", "0.1", "1.6"], capsys)
        assert code == 2
        assert "seam amplitude must lie in (0, pi/2)" in err

    def test_default_trig_series_names_its_unscaled_series(self, capsys):
        # every amplitude gives the equator, so the failure names that cause,
        # not the bracket
        code, _, err = run(["calibrate", "--curve", '{"family":"trig_series"}'], capsys)
        assert code == 3
        assert "series amplitude scales no coefficient of this trig_series curve" in err
        assert "no sign change" not in err

    def test_no_bracket_is_numerical_failure(self, capsys):
        code, _, err = run(
            ["calibrate", "--curve", '{"family":"tennis_ball"}', "--bracket", "0.3", "0.5"], capsys
        )
        assert code == 3
        assert "numerical failure" in err


class TestOptimize:
    def test_budget_one_flagged(self, tmp_path, capsys):
        out_path = tmp_path / "opt.json"
        code, _, _ = run(["optimize", "--max-evals", "1", "--out", str(out_path)], capsys)
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out_path.read_text())["results"]}
        assert rows["evaluations"]["value"] == 1.0
        assert rows["converged"]["value"] == 0.0
        assert rows["converged"]["warning"] == "max_evaluations_reached"
        assert "message" not in rows["converged"]
        nodes = rows["constraint_residual"]["nodes_used"]
        assert type(nodes) is int and nodes >= 1

    def test_constraint_residual_row_carries_its_arc_length(self, monkeypatch, capsys):
        # the residual is |L - 4pi| of best_curve's default-rule arc length L: the row writes
        # L's error estimate and node count, and its warning when L stopped at the node cap
        real = optimize.minimize_functional(optimize.seam_seeded_family(3), config=optimize.OptimizerConfig(max_evals=1))
        capped = FunctionalResult(real.length.value, 1e-8, 1048576, warning=TOLERANCE_NOT_REACHED)
        for length in (real.length, capped):
            report = dataclasses.replace(real, length=length)
            monkeypatch.setattr("arcdist.optimize.minimize_functional", lambda family, config: report)
            code, out, _ = run(["optimize", "--max-evals", "1"], capsys)
            assert code == 0
            (row,) = [r for r in json.loads(out)["results"] if r["name"] == "constraint_residual"]
            expected = {"name": "constraint_residual", "value": real.constraint_residual}
            expected.update(error_estimate=length.error_estimate, nodes_used=length.nodes_used)
            assert row == (expected if length.warning is None else {**expected, "warning": TOLERANCE_NOT_REACHED})


class TestConfigHandling:
    @pytest.mark.parametrize("rule", ["simpson", "gauss"])
    def test_unknown_rule_rejected(self, rule):
        # eval takes no --rule: argparse rejects it whatever its value
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--curve", '{"family":"great_circle"}', "--rule", rule])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self, monkeypatch):
        monkeypatch.setattr("arcdist.curves.arc_length", None)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--curve", '{"family":"great_circle"}', "--mode", "fast"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args, stub",
        [
            (["eval", "--curve", '{"family":"great_circle"}', "--n", "abc"], "arcdist.curves.arc_length"),
            (["eval", "--curve", '{"family":"great_circle"}', "--tol", "small"], "arcdist.curves.arc_length"),
            (["eval", "--curve", '{"family":"great_circle"}', "--points", '[["north", 1]]'], "arcdist.curves.arc_length"),
            (["eval", "--curve", '{"family":"great_circle"}', "--points", "{ this is not json"], "arcdist.curves.arc_length"),
            (["optimize", "--max-evals", '"30"'], "arcdist.optimize.minimize_functional"),
            (["calibrate", "--curve", '{"family":"tennis_ball"}', "--bracket", "lo", "hi"], "arcdist.optimize.scale_family"),
            (["optimize", "--max-evals", "true"], "arcdist.optimize.minimize_functional"),
            (["optimize", "--max-evals", "2.5"], "arcdist.optimize.minimize_functional"),
            (["optimize", "--J", "2.5"], "arcdist.optimize.minimize_functional"),
            (["eval", "--curve", '{"family":"great_circle"}', "--tol", "true"], "arcdist.curves.arc_length"),
            (["calibrate", "--curve", '{"family":"tennis_ball"}', "--bracket", "0.1", "true"], "arcdist.optimize.scale_family"),
        ],
        ids=["n_string", "tol_string", "point_string", "points_not_json", "max_evals_string", "bracket_strings",
             "max_evals_bool", "max_evals_fraction", "J_fraction", "tol_bool", "bracket_bool"],
    )
    def test_wrong_value_type_exits_2_before_computation(self, args, stub, capsys, monkeypatch):
        # argparse's type or the settings check refuses the value; the first computation is stubbed to fail loudly
        def must_not_run(*a, **k):
            raise AssertionError("computation started")

        monkeypatch.setattr(stub, must_not_run)
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--curve", '{"family":"great_circle"}'],
        ["sample", "--curve", '{"family":"great_circle"}', "--n", "4", "--rule", "gauss"],
        ["sample", "--curve", '{"family":"great_circle"}', "--n", "4", "--tol", "1e-6"],
        ["sample", "--curve", '{"family":"great_circle"}', "--n", "4", "--seed", "1"],
        ["calibrate", "--curve", '{"family":"tennis_ball"}', "--rule", "gauss"],
        ["calibrate", "--curve", '{"family":"tennis_ball"}', "--n", "64"],
        ["calibrate", "--curve", '{"family":"tennis_ball"}', "--seed", "1"],
        ["eval", "--curve", '{"family":"great_circle"}', "--seed", "1"],
        ["optimize", "--seed", "1"],
        ["optimize", "--curve", '{"family":"tennis_ball"}'],
        ["optimize", "--rule", "gauss"],
        ["optimize", "--n", "64"],
        ["optimize", "--tol", "1e-6"],
        ["eval", "--curve", '{"family":"great_circle"}', "--rule", "trapezoid"],
        ["eval", "--curve", '{"family":"great_circle"}', "--rule", "periodic_trapezoid"],
        ["verify", "--rule", "trapezoid"],
        ["verify", "--rule", "periodic_trapezoid"],
        ["verify", "--rule", "monte_carlo"],
        ["eval", "--curve", '{"family":"great_circle"}', "--rule", "monte_carlo"],
        ["verify", "--n", "64"],
        ["verify", "--tol", "1e-3"],
        ["verify", "--seed", "3"],
        ["verify", "--max-evals", "3"],
        ["verify", "--config", "x.json"],
        ["eval", "--curve", '{"family":"great_circle"}', "--config", "x.json"],
        ["sample", "--curve", '{"family":"great_circle"}', "--n", "4", "--config", "x.json"],
        ["calibrate", "--curve", '{"family":"tennis_ball"}', "--config", "x.json"],
        ["optimize", "--config", "x.json"],
    ],
    ids=[
        "verify_curve",
        "sample_rule",
        "sample_tol",
        "sample_seed",
        "calibrate_rule",
        "calibrate_n",
        "calibrate_seed",
        "eval_seed",
        "optimize_seed",
        "optimize_curve",
        "optimize_rule",
        "optimize_n",
        "optimize_tol",
        "eval_rule_trapezoid",
        "eval_rule_periodic_trapezoid",
        "verify_rule_trapezoid",
        "verify_rule_periodic_trapezoid",
        "verify_rule_monte_carlo",
        "eval_rule_monte_carlo",
        "verify_n",
        "verify_tol",
        "verify_seed",
        "verify_max_evals",
        "verify_config",
        "eval_config",
        "sample_config",
        "calibrate_config",
        "optimize_config",
    ],
)
def test_flag_a_command_does_not_read_exits_2(args, monkeypatch):
    # argparse rejects it before any computation starts
    monkeypatch.setattr("arcdist.cli.run_verification", None)
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


def test_the_simplex_scale_is_no_setting(monkeypatch, capsys):
    # the initial simplex's size is the constant optimize.SIMPLEX_SCALE: no flag
    # sets it, and one given exits 2 before any search
    monkeypatch.setattr("arcdist.optimize.minimize_functional", None)
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--simplex-scale", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --simplex-scale 0.1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "eval", "calibrate", "optimize"])
def test_the_report_config_is_every_flag_given_but_out(command, tmp_path, monkeypatch, capsys):
    # a run's settings are its flags, keyed by dest; --out says where the report goes and is not echoed
    monkeypatch.setattr("arcdist.cli.run_verification", lambda: ([ClaimRow("a", 1.0)], True))
    out_path = tmp_path / "report.json"
    argv = {
        "curve": ["--curve", '{"family":"tennis_ball"}'],
        "n": ["--n", "64"],
        "tol": ["--tol", "1e-6"],
        "points": ["--points", "[[0.3, 1.1]]"],
        "bracket": ["--bracket", "0.1", "1.4"],
        "objective": ["--objective", "mean_min"],
        "max_evals": ["--max-evals", "2"],
        "J": ["--J", "3"],
        "out": ["--out", str(out_path)],
    }
    echo = {
        "curve": to_spec(from_spec('{"family":"tennis_ball"}')),
        "n": 64,
        "tol": 1e-6,
        "points": [[0.3, 1.1]],
        "bracket": [0.1, 1.4],
        "objective": "mean_min",
        "max_evals": 2,
        "J": 3,
    }
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in subparsers.choices[command]._actions} - {"help"}
    code, _, _ = run([command] + [arg for dest in sorted(dests) for arg in argv[dest]], capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["config"] == {k: echo[k] for k in dests - {"out"}}


@pytest.mark.parametrize(
    "args",
    [
        ["optimize", "--max-evals", "0"],
        ["optimize", "--J", "1"],
        ["eval", "--curve", '{"family":"great_circle"}', "--n", "0"],
        ["eval", "--curve", '{"family":"great_circle"}', "--tol", "0"],
        ["calibrate", "--curve", '{"family":"tennis_ball"}', "--tol", "0"],
        ["calibrate", "--curve", '{"family":"tennis_ball"}', "--bracket", "1.4", "0.1"],
    ],
    ids=[
        "optimize_max_evals_0",
        "optimize_J_1",
        "eval_n_0",
        "eval_tol_0",
        "calibrate_tol_0",
        "calibrate_reversed_bracket",
    ],
)
def test_invalid_setting_is_config_error(args, capsys):
    # a setting the library rejects exits 2, and a given 0 is not swapped for its default
    code, _, err = run(args, capsys)
    assert code == 2
    assert err.startswith("config error:")


def test_an_infinite_tol_is_config_error_before_computation(capsys, monkeypatch):
    # inf > 0, but a report's config could echo it only as Infinity, which strict JSON refuses
    def must_not_run(*a, **k):
        raise AssertionError("computation started")

    monkeypatch.setattr("arcdist.curves.arc_length", must_not_run)
    code, out, err = run(["eval", "--curve", '{"family":"great_circle"}', "--tol", "inf"], capsys)
    assert (code, out) == (2, "")
    assert err == "config error: tol must be a finite positive number, got inf\n"


def test_a_tiny_finite_tol_still_runs(tmp_path, capsys):
    out_path = tmp_path / "eval.json"
    code, _, _ = run(["eval", "--curve", '{"family":"great_circle"}', "--tol", "1e-300", "--out", str(out_path)], capsys)
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["config"]["tol"] == 1e-300


@pytest.mark.parametrize(
    "args, stub",
    [
        (["eval", "--n", "1048576", "--curve", '{"family":"great_circle"}'], "arcdist.curves.arc_length"),
    ],
    ids=["eval_trapezoid_n_2^20"],
)
def test_rule_over_the_node_cap_is_config_error(args, stub, capsys, monkeypatch):
    # rejected before any integral runs: the first computation is stubbed to fail loudly
    def must_not_run(*a, **k):
        raise AssertionError("computation started")

    monkeypatch.setattr(stub, must_not_run)
    code, _, err = run(args, capsys)
    assert code == 2
    assert err.startswith("config error:")
    assert "above the cap" in err


@pytest.mark.parametrize(
    "points, error",
    [
        ('[["north", 1]]', "points must be"),
        ("[[0, 1, 2]]", "points must be"),
        ('{"theta": 0}', "points must be"),
        ("[[0, true]]", "points must be"),
        # points off the sphere fail the library's own SpherePoint check
        ("[[4.0, 1.0]]", "colatitude must lie in [0, pi]"),
        ("[[NaN, 1.0]]", "SpherePoint coordinates must be finite"),
        ("[[0.3, Infinity]]", "SpherePoint coordinates must be finite"),
    ],
    ids=["string", "triple", "object", "bool", "theta_4", "nan", "inf"],
)
def test_bad_point_is_config_error_before_computation(points, error, capsys, monkeypatch):
    def must_not_run(*a, **k):
        raise AssertionError("computation started")

    monkeypatch.setattr("arcdist.curves.arc_length", must_not_run)
    code, _, err = run(["eval", "--curve", '{"family":"great_circle"}', "--points", points], capsys)
    assert code == 2
    assert err.startswith(f"config error: {error}")


@pytest.mark.parametrize(
    "args, stub",
    [
        (["eval", "--curve", '{"family":"great_circle"}'], "arcdist.curves.arc_length"),
        (["sample", "--curve", '{"family":"great_circle"}', "--n", "4"], "arcdist.cli.from_spec"),
        (["calibrate", "--curve", '{"family":"tennis_ball"}'], "arcdist.optimize.scale_family"),
        (["optimize"], "arcdist.optimize.minimize_functional"),
        (["verify"], "arcdist.cli.run_verification"),
    ],
    ids=["eval", "sample", "calibrate", "optimize", "verify"],
)
def test_unwritable_out_is_config_error(args, stub, tmp_path, capsys, monkeypatch):
    # refused before the command's first computation, which is stubbed to fail loudly
    def must_not_run(*a, **k):
        raise AssertionError("computation started")

    monkeypatch.setattr(stub, must_not_run)
    for out_path in (tmp_path / "missing" / "out", tmp_path):  # no such directory; a directory
        code, out, err = run(args + ["--out", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: cannot write --out file") and str(out_path) in err


def test_a_write_the_check_cannot_foresee_is_config_error(tmp_path):
    # the --out check runs before the work; a write that still fails is a config error too
    with pytest.raises(cli.ConfigError, match="cannot write --out file"):
        cli._write("text", str(tmp_path / "missing" / "out"))


def test_empty_out_writes_stdout(capsys):
    code, out, _ = run(["sample", "--curve", '{"family":"great_circle"}', "--n", "4", "--out", ""], capsys)
    assert code == 0 and out.startswith("t,x,y,z\n")


@pytest.mark.parametrize(
    "spec, error",
    [
        ('[{"family":"tennis_ball"}]', "curve spec must be a JSON object"),
        ('{"family":"tennis_ball","params":{"a":true}}', "param a must be a number"),
        ('{"family":"trig_series","params":{"theta_cos":[true]},"domain":[0,true]}', "param theta_cos must be"),
        ('{"family":"tennis_ball","domain":["0","12.566370614359172"]}', "domain must be two numbers"),
    ],
    ids=["inline_array", "bool_param", "bool_list_param", "string_domain"],
)
def test_bad_curve_spec_is_config_error(spec, error, capsys):
    code, _, err = run(["sample", "--curve", spec, "--n", "3"], capsys)
    assert code == 2
    assert err.startswith(f"config error: {error}")


class TestVerifyGlue:
    """Exit-code and report plumbing, with the expensive table stubbed out."""

    @pytest.fixture
    def fake_rows(self, monkeypatch):
        rows = [
            ClaimRow("a", 1.0, paper_value=1.0, tolerance=0.1, passed=True),
            ClaimRow("b", 0.5, tolerance=0.1, passed=False, message="why it failed"),
            ClaimRow("c", 2.0),
        ]

        def fake():
            return rows, all(r.passed for r in rows if r.passed is not None)

        monkeypatch.setattr("arcdist.cli.run_verification", fake)
        return rows

    def test_exit_1_iff_any_row_fails(self, fake_rows, tmp_path, capsys):
        out_path = tmp_path / "verify.json"
        code, out, _ = run(["verify", "--out", str(out_path)], capsys)
        assert code == 1
        assert "FAIL" in out and "PASS" in out and "why it failed" in out
        report = json.loads(out_path.read_text())
        by_name = {r["name"]: r for r in report["results"]}
        assert by_name["a"]["pass"] is True
        assert by_name["a"]["tolerance"] == 0.1
        assert by_name["b"]["tolerance"] == 0.1
        assert "tolerance" not in by_name["c"]
        assert report["config"] == {}
        assert by_name["b"]["pass"] is False
        assert by_name["b"]["message"] == "why it failed"
        assert "pass" not in by_name["c"]  # informational row
        # rows built from no results carry no warning and no node count
        assert not any("warning" in row or "nodes_used" in row for row in report["results"])

    def test_report_names_its_environment(self, fake_rows, tmp_path, capsys):
        out_path = tmp_path / "verify.json"
        run(["verify", "--out", str(out_path)], capsys)
        env = json.loads(out_path.read_text())["environment"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert set(env) == {"numpy", "blas", "blas_threads"}
        assert env["numpy"] == np.__version__
        assert env["blas"] == f"{blas['name']} {blas['version']}"
        if "openblas" in blas["name"] and os.path.exists("/proc/self/maps"):
            assert isinstance(env["blas_threads"], int) and env["blas_threads"] >= 1
        else:
            assert env["blas_threads"] is None or env["blas_threads"] >= 1

    def test_blas_threads_is_null_where_it_cannot_be_asked(self, monkeypatch):
        class Unreadable:
            def __init__(self, path):
                pass

            def read_text(self):
                raise OSError("no maps")

        monkeypatch.setattr(cli, "Path", Unreadable)
        assert cli._blas_threads() is None

    def test_unwritable_out_is_config_error_not_a_failed_row(self, fake_rows, tmp_path, capsys):
        # exit 1 says a row failed; a report that cannot be written exits 2, before the table is computed
        out_path = tmp_path / "missing" / "verify.json"
        code, out, err = run(["verify", "--out", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: cannot write --out file") and str(out_path) in err

    def test_exit_0_when_all_pass(self, monkeypatch, capsys):
        rows = [ClaimRow("a", 1.0, tolerance=0.1, passed=True)]
        monkeypatch.setattr("arcdist.cli.run_verification", lambda: (rows, True))
        code, _, _ = run(["verify"], capsys)
        assert code == 0


def test_verify_row_carries_its_integral_warning(monkeypatch, tmp_path, capsys):
    # row 1 alone, over integrals that stopped at the node cap: its JSON row and its table line say so
    capped = FunctionalResult(0.5 * math.pi, 0.0, 1, warning=TOLERANCE_NOT_REACHED)
    monkeypatch.setattr(verify.functionals, "mean_point_to_sphere", lambda q: capped)
    monkeypatch.setattr(verify, "CRITERIA", (verify.criterion_1_point_to_sphere,))
    out_path = tmp_path / "verify.json"
    code, out, _ = run(["verify", "--out", str(out_path)], capsys)
    (row,) = json.loads(out_path.read_text())["results"]
    assert row["name"].startswith("1. ") and row["warning"] == TOLERANCE_NOT_REACHED
    assert row["nodes_used"] == 100  # the total over the 100 capped results of 1 node each
    assert f"note: {TOLERANCE_NOT_REACHED}" in out
    assert code == 0


@pytest.mark.parametrize(
    "command, out_help",
    [
        ("verify", "also write the table as a JSON report to this path (the table is always printed)"),
        ("eval", "JSON report path (default stdout)"),
        ("sample", "CSV output path (default stdout)"),
        ("calibrate", "JSON report path (default stdout)"),
        ("optimize", "JSON report path (default stdout)"),
    ],
)
def test_out_help_says_what_the_command_writes(command, out_help, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"--out OUT {out_help}" in " ".join(capsys.readouterr().out.split())
