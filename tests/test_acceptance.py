"""Acceptance suite: every headline claim at its stated tolerance.

One pass/fail line is printed per criterion row (run pytest -s to see all
of them). Two tests fail by design of the underlying problem and are kept
red on purpose rather than weakened; each failure message carries the
measured evidence (see also README "Known deviations"):

* test_criterion_6_wavy_amplitude - the published wavy-circle amplitude
  0.1856 is not the root of arc_length - 4pi (the root is ~0.28624; the
  curve at 0.1856 has length ~8.93).
* test_criterion_8_wavy_excess - the sphere-to-curve mean equals 2 pi^2
  for every curve (swap the two integrals), so the claimed strict excess
  for the wavy circle cannot exceed any error estimate.
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from arcdist import verify
from arcdist.curves import TENNIS_BALL_A, WAVY_CIRCLE_B, arc_length
from arcdist.quadrature import FunctionalResult
from arcdist.verify import (
    ClaimRow,
    VerifyContext,
    criterion_1_point_to_sphere,
    criterion_2_arcsin_identity,
    criterion_3_seam_M,
    criterion_4_great_circle_field,
    criterion_5_wavy_pole_value,
    criterion_7_seam_sphere_mean,
    criterion_8_wavy_excess,
    criterion_9_simplicity,
    criterion_10_el_grid,
    criterion_11_properties,
    criterion_12_optimizer,
)


@pytest.fixture(scope="session")
def ctx() -> VerifyContext:
    return VerifyContext()


@pytest.fixture(scope="session")
def table(ctx) -> dict:
    """Each criterion's rows, from one pass over verify.CRITERIA."""
    return {criterion: criterion(ctx) for criterion in verify.CRITERIA}


def _report(rows: list[ClaimRow]) -> None:
    for r in rows:
        status = "INFO" if r.passed is None else ("PASS" if r.passed else "FAIL")
        target = f" target={r.paper_value:.8g}" if r.paper_value is not None else ""
        tol = f" tol={r.tolerance:.3g}" if r.tolerance is not None else ""
        print(f"{status} {r.name}: value={r.value:.8g}{target}{tol}")
    failed = [r for r in rows if r.passed is False]
    assert not failed, "; ".join(f"{r.name}: value={r.value!r} ({r.message})" for r in failed)


def test_criterion_1_point_to_sphere_constant(table):
    _report(table[criterion_1_point_to_sphere])


def test_criterion_2_arcsin_identity(table):
    _report(table[criterion_2_arcsin_identity])


def test_criterion_3_seam_curve_to_sphere_mean(table):
    _report(table[criterion_3_seam_M])


def test_criterion_4_great_circle_mean_field(table):
    _report(table[criterion_4_great_circle_field])


def test_criterion_5_wavy_counterexample_value(table):
    _report(table[criterion_5_wavy_pole_value])


def test_criterion_6_seam_amplitude(ctx):
    cal = ctx.seam_calibration
    dev = abs(cal.parameter - TENNIS_BALL_A)
    print(f"{'PASS' if dev <= 5e-4 else 'FAIL'} 6a. seam amplitude root: {cal.parameter:.7f} (dev {dev:.2e})")
    assert cal.residual <= 1e-6
    assert dev <= 5e-4


def test_criterion_6_wavy_amplitude(ctx):
    # Kept faithful to the stated tolerance and therefore red: the
    # arc-length root is ~0.28624, not the published 0.1856. The verify
    # table reports the computed root and fails this row with a message.
    cal = ctx.wavy_calibration
    dev = abs(cal.parameter - WAVY_CIRCLE_B)
    print(f"{'PASS' if dev <= 5e-4 else 'FAIL'} 6b. wavy amplitude root: {cal.parameter:.7f} (dev {dev:.2e})")
    assert cal.residual <= 1e-6
    assert dev <= 5e-4, (
        f"computed root {cal.parameter:.6f} deviates from the published 0.1856 by {dev:.4f}; "
        "the published amplitude gives arc length ~8.93, not 4pi. Honest failure; see README."
    )


def test_criterion_7_seam_sphere_to_curve_mean(table):
    _report(table[criterion_7_seam_sphere_mean])


def test_criterion_8_wavy_excess(table):
    # Kept faithful and therefore red: the sphere-to-curve mean is the
    # curve-independent constant 2 pi^2 (Fubini), so the strict excess
    # demanded here is mathematically impossible.
    _report(table[criterion_8_wavy_excess])


@pytest.mark.parametrize(
    "excess, passed",
    [(4.0 * math.ulp(2.0 * math.pi**2), False), (1e-9, True)],
    ids=["4_ulp_stays_red", "real_excess_detected"],
)
def test_criterion_8_threshold_clears_rounding(monkeypatch, excess, passed):
    # even with an error estimate of 0, an excess of a few ulp is rounding,
    # while a real excess still turns the row green
    result = FunctionalResult(2.0 * math.pi**2 + excess, 0.0, 1)
    monkeypatch.setattr(verify.functionals, "sphere_to_curve_mean", lambda *args, **kwargs: result)
    (row,) = criterion_8_wavy_excess(SimpleNamespace(wavy=None))
    assert row.passed is passed


def test_criterion_9_simplicity(table):
    _report(table[criterion_9_simplicity])


def test_criterion_10_stationarity_grid(table):
    _report(table[criterion_10_el_grid])


def test_criterion_11_property_suite(table):
    _report(table[criterion_11_properties])


def test_criterion_12_optimizer_sanity(table):
    _report(table[criterion_12_optimizer])


RECORDED = json.loads((Path(__file__).parent / "data" / "verify_table.json").read_text())["results"]


def _differences(rows: list[ClaimRow], recorded: list[dict]) -> list[str]:
    """The rows that break "unchanged" as the ROADMAP means it: each keeps its
    status, a checked row's value stays within its recorded tolerance and an
    informational row's within 1e-9."""
    return [
        f"{row.name}: {row.value!r} ({row.passed}), recorded {want['value']!r} ({want.get('pass')})"
        for row, want in zip(rows, recorded)
        if row.passed != want.get("pass")
        or abs(row.value - want["value"]) > (1e-9 if row.passed is None else want["tolerance"])
    ]


def test_table_matches_the_recorded_copy(table):
    rows = [r for rows in table.values() for r in rows]
    assert [r.name for r in rows] == [want["name"] for want in RECORDED]
    assert not _differences(rows, RECORDED)


@pytest.mark.parametrize(
    "name, shift, flip",
    [
        ("11d. great-circle mean minimum distance", 0.004, False),  # past its 3.57e-3 tolerance
        ("6b. wavy amplitude root of L - 4pi", 0.0, True),  # a red row turning green
        ("11i. seam mean minimum distance", 1e-8, False),  # an informational row past 1e-9
    ],
    ids=["checked_value_moved", "status_flipped", "info_value_moved"],
)
def test_recorded_copy_check_catches_a_changed_row(name, shift, flip):
    rows = [ClaimRow(r["name"], r["value"], tolerance=r.get("tolerance"), passed=r.get("pass")) for r in RECORDED]
    assert not _differences(rows, RECORDED)
    row = next(r for r in rows if r.name == name)
    row.value += shift
    if flip:
        row.passed = not row.passed
    assert [d.split(":")[0] for d in _differences(rows, RECORDED)] == [name]


def test_two_pi_squared_reference_constant():
    # guard against accidental edits of the shared target constant
    from arcdist.verify import TWO_PI_SQ

    assert TWO_PI_SQ == pytest.approx(19.739208802178716, abs=1e-15)
    assert TWO_PI_SQ == 2.0 * math.pi**2


def test_readme_library_example_holds_its_comments():
    # the README's Library block runs as printed: its seam has arc length 4pi to 1e-6
    # and its surface integral is 2pi^2
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    assert abs(arc_length(scope["seam"]).value - 4 * math.pi) <= 1e-6
    assert abs(scope["surface_integral"].value - 2 * math.pi**2) <= 1e-12
