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

import math
from types import SimpleNamespace

import pytest

from arcdist import verify
from arcdist.quadrature import FunctionalResult
from arcdist.verify import (
    SEAM_A_REF,
    WAVY_B_REF,
    ClaimRow,
    VerifyContext,
    VerifySettings,
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
    return VerifyContext(VerifySettings())


def _report(rows: list[ClaimRow]) -> None:
    for r in rows:
        status = "INFO" if r.passed is None else ("PASS" if r.passed else "FAIL")
        target = f" target={r.paper_value:.8g}" if r.paper_value is not None else ""
        tol = f" tol={r.tolerance:.3g}" if r.tolerance is not None else ""
        print(f"{status} {r.name}: value={r.value:.8g}{target}{tol}")
    failed = [r for r in rows if r.passed is False]
    assert not failed, "; ".join(f"{r.name}: value={r.value!r} ({r.message})" for r in failed)


def test_criterion_1_point_to_sphere_constant(ctx):
    _report(criterion_1_point_to_sphere(ctx))


def test_criterion_2_arcsin_identity(ctx):
    _report(criterion_2_arcsin_identity(ctx))


def test_criterion_3_seam_curve_to_sphere_mean(ctx):
    _report(criterion_3_seam_M(ctx))


def test_criterion_4_great_circle_mean_field(ctx):
    _report(criterion_4_great_circle_field(ctx))


def test_criterion_5_wavy_counterexample_value(ctx):
    _report(criterion_5_wavy_pole_value(ctx))


def test_criterion_6_seam_amplitude(ctx):
    cal = ctx.seam_calibration
    dev = abs(cal.parameter - SEAM_A_REF)
    print(f"{'PASS' if dev <= 5e-4 else 'FAIL'} 6a. seam amplitude root: {cal.parameter:.7f} (dev {dev:.2e})")
    assert cal.residual <= 1e-6
    assert dev <= 5e-4


def test_criterion_6_wavy_amplitude(ctx):
    # Kept faithful to the stated tolerance and therefore red: the
    # arc-length root is ~0.28624, not the published 0.1856. The verify
    # table reports the computed root and fails this row with a message.
    cal = ctx.wavy_calibration
    dev = abs(cal.parameter - WAVY_B_REF)
    print(f"{'PASS' if dev <= 5e-4 else 'FAIL'} 6b. wavy amplitude root: {cal.parameter:.7f} (dev {dev:.2e})")
    assert cal.residual <= 1e-6
    assert dev <= 5e-4, (
        f"computed root {cal.parameter:.6f} deviates from the published 0.1856 by {dev:.4f}; "
        "the published amplitude gives arc length ~8.93, not 4pi. Honest failure; see README."
    )


def test_criterion_7_seam_sphere_to_curve_mean(ctx):
    _report(criterion_7_seam_sphere_mean(ctx))


def test_criterion_8_wavy_excess(ctx):
    # Kept faithful and therefore red: the sphere-to-curve mean is the
    # curve-independent constant 2 pi^2 (Fubini), so the strict excess
    # demanded here is mathematically impossible.
    _report(criterion_8_wavy_excess(ctx))


@pytest.mark.parametrize(
    "excess, passed",
    [(4.0 * math.ulp(2.0 * math.pi**2), False), (1e-9, True)],
    ids=["4_ulp_stays_red", "real_excess_detected"],
)
def test_criterion_8_threshold_clears_rounding(monkeypatch, excess, passed):
    # with both refinement levels agreeing bitwise (error 0), an excess of a
    # few ulp is rounding, while a real excess still turns the row green
    result = FunctionalResult(2.0 * math.pi**2 + excess, 0.0, 1)
    monkeypatch.setattr(verify.functionals, "sphere_to_curve_mean", lambda *args, **kwargs: result)
    (row,) = criterion_8_wavy_excess(SimpleNamespace(settings=VerifySettings(), wavy=None))
    assert row.passed is passed


def test_criterion_9_simplicity(ctx):
    _report(criterion_9_simplicity(ctx))


def test_criterion_10_stationarity_grid(ctx):
    _report(criterion_10_el_grid(ctx))


def test_criterion_11_property_suite(ctx):
    _report(criterion_11_properties(ctx))


def test_criterion_12_optimizer_sanity(ctx):
    _report(criterion_12_optimizer(ctx))


def test_monte_carlo_mode_with_looser_tolerances_passes():
    # the sphere-integral criteria also hold under Monte Carlo integration
    # at family-wise three-sigma tolerances
    mc = VerifyContext(VerifySettings(rule="monte_carlo", n=1000))
    _report(criterion_1_point_to_sphere(mc))
    _report(criterion_2_arcsin_identity(mc))


def test_settings_refuse_a_trapezoid_sphere_rule():
    # the sphere rule is the Gauss product or Monte Carlo; no other kind is run as Gauss
    with pytest.raises(ValueError, match="gauss_legendre or monte_carlo"):
        VerifySettings(rule="periodic_trapezoid")


def test_two_pi_squared_reference_constant():
    # guard against accidental edits of the shared target constant
    from arcdist.verify import TWO_PI_SQ

    assert TWO_PI_SQ == pytest.approx(19.739208802178716, abs=1e-15)
    assert TWO_PI_SQ == 2.0 * math.pi**2
