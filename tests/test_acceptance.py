"""Acceptance gate: one test per shipped claim, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see every verdict.  The
tolerances are fixed here and nowhere else.
"""
import math

import numpy as np

from kickedqubit import propagators as prop
from kickedqubit import validation
from kickedqubit.analysis import p2_closed_forms_double
from kickedqubit.evolve import IntegratorConfig, rk4_evolve
from kickedqubit.pulses import gaussian, hydrogen_2s2p
from kickedqubit.su2 import norm_defect

HYDROGEN = hydrogen_2s2p()


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def final_p2(pulses, t_f, dt=None):
    series = rk4_evolve(pulses, HYDROGEN, (1.0, 0.0), 0.0, t_f,
                        IntegratorConfig(dt=dt), record_times=[t_f])
    return float(series.p2[-1])


def test_01_single_pulse_transfer():
    p2_narrow = final_p2([gaussian(math.pi / 2, 10.0, 150.0)], 300.0)
    p2_wide = final_p2([gaussian(math.pi / 2, 100.0, 150.0)], 300.0)
    ok = abs(p2_narrow - 0.9977) <= 2e-4 and abs(p2_wide - 0.82) <= 0.01
    assert verdict(
        1, ok,
        f"P2(300) tau=10: {p2_narrow:.6f} (want 0.9977 +- 2e-4); "
        f"tau=100: {p2_wide:.4f} (want 0.82 +- 0.01)",
    )


def test_02_kick_antikick_return():
    pulses = [gaussian(math.pi / 2, 10.0, 100.0), gaussian(-math.pi / 2, 10.0, 586.0)]
    p2 = final_p2(pulses, 700.0)
    ok = abs(p2 - 1.1e-5) <= 2e-6
    assert verdict(2, ok, f"P2(700) = {p2:.4e} (want 1.1e-5 +- 2e-6)")


def test_03_kick_antikick_transfer():
    pulses = [gaussian(math.pi / 4, 10.0, 100.0), gaussian(-math.pi / 4, 10.0, 586.0)]
    p2_narrow = final_p2(pulses, 700.0)
    wide = [gaussian(math.pi / 4, 100.0, 100.0), gaussian(-math.pi / 4, 100.0, 586.0)]
    p2_wide = final_p2(wide, 700.0)
    ok = abs(p2_narrow - 0.99934) <= 1e-4 and abs(p2_wide - 0.80) <= 0.01
    assert verdict(
        3, ok,
        f"P2(700) tau=10: {p2_narrow:.6f} (want 0.99934 +- 1e-4); "
        f"tau=100: {p2_wide:.4f} (want 0.80 +- 0.01)",
    )


def test_04_kicked_error_scaling():
    fit, _, _ = validation.kicked_error_scaling_fit()
    ok = abs(fit.slope - 2.0) <= 0.1
    assert verdict(4, ok, f"log-log slope {fit.slope:.3f} (want 2.0 +- 0.1)")


def test_05_closed_form_consistency():
    rng = np.random.default_rng(0)
    exact = validation.check_closed_form_consistency(rng)
    numeric = validation.check_numeric_no_ordering(rng)
    ok = exact.passed and numeric.passed
    assert verdict(5, ok, f"{exact.detail} (tol 1e-12); numeric: {numeric.detail} (tol 1e-8)")


def test_06_limit_web():
    res = validation.check_limit_web()
    assert verdict(6, res.passed, res.detail)


def test_07_interaction_kick_identity():
    rng = np.random.default_rng(1)
    res = validation.check_interaction_kick_identity(rng)
    assert verdict(7, res.passed, res.detail + " (tol 1e-12)")


def test_08_schrodinger_double_zero():
    # analytic route: a completed equal-and-opposite pair has zero average
    # coupling, so the bare-frame average propagator is exactly free
    worst_analytic = 0.0
    for alpha, gamma, t1, ts in ((1.2, 0.7, 1.0, 2.0), (math.pi / 2, 0.003, 100.0, 486.0)):
        u0 = prop.no_ordering(0.0, 0.0, gamma, t1 + ts + 1.0)
        worst_analytic = max(worst_analytic, abs(u0[1, 0]))
        assert p2_closed_forms_double(alpha, 0.1, gamma * ts).no_ordering_schrodinger == 0.0
    rng = np.random.default_rng(2)
    numeric = validation.check_schrodinger_double_zero(rng)
    ok = worst_analytic == 0.0 and numeric.passed
    assert verdict(
        8, ok, f"analytic off-diagonal {worst_analytic:.1e} (exact); numeric {numeric.detail}"
    )


def test_09_rectangular_vs_rk4():
    rng = np.random.default_rng(3)
    agree = validation.check_rectangular_vs_rk4(rng)
    resid = validation.check_rect_correction_residual()
    ok = agree.passed and resid.passed
    assert verdict(9, ok, f"{agree.detail} (tol 1e-8); residual {resid.detail}")


def test_10_floquet_grid():
    res = validation.check_floquet_grid()
    assert verdict(10, res.passed, res.detail + " (tol 1e-10)")


def test_11_perturbative_onset():
    res = validation.check_perturbative_onset()
    assert verdict(11, res.passed, res.detail)


def test_12_rk4_order_and_norm():
    fit, _, _ = validation.rk4_order_fit()
    worst_norm = 0.0
    for alpha, centers, t_f in (
        (math.pi / 2, (150.0,), 300.0),
        (math.pi / 2, (100.0, 586.0), 700.0),
        (math.pi / 4, (100.0, 586.0), 700.0),
    ):
        for tau in (1.0, 10.0, 100.0):
            pulses = [gaussian(alpha if i == 0 else -alpha, tau, c)
                      for i, c in enumerate(centers)]
            series = rk4_evolve(pulses, HYDROGEN, (1.0, 0.0), 0.0, t_f,
                                record_times=[t_f])
            worst_norm = max(worst_norm, norm_defect(series.final_state()))
    ok = abs(fit.slope - 4.0) <= 0.2 and worst_norm <= 1e-8
    assert verdict(
        12, ok,
        f"dt-halving slope {fit.slope:.2f} (want 4.0 +- 0.2); "
        f"worst scenario norm defect {worst_norm:.1e} (tol 1e-8)",
    )
