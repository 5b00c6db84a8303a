"""Cross-validation suite: every closed form against an independent route.

Each check pits one implementation path against another that shares no
code with it (closed form vs RK4, closed form vs quadrature plus matrix
exponential, eigenphase formula vs numerical eigenvalues, ...), or fits a
predicted scaling law.  `validate` runs the one list, `run_validation(seed)`:
each check at a fixed size, every random draw from one generator of that seed.

The random-draw checks on closed forms run in array passes of CHUNK
samples: one rng call per parameter, one call of each API under test,
which returns a stack of matrices, and one numpy reduction per quantity.
The checks that run quadrature or RK4 stay per sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import propagators as prop
from .analysis import (
    ScalingFit,
    error_scaling_fit,
    p2_closed_forms_double,
    p2_closed_forms_single,
)
from .evolve import IntegratorConfig, no_ordering_numeric, rk4_propagator
from .pulses import (
    PulseShape,
    SystemParams,
    gaussian,
    hydrogen_2s2p,
    ideal_kick,
    rectangular,
)
from .su2 import (
    IDENTITY,
    X_AXIS,
    Z_AXIS,
    max_abs_diff,
    pauli_exponential,
    probabilities,
    unitarity_defect,
)

#: Samples per array pass of a random check: each pass draws its parameters
#: with one rng call per parameter, calls each API once, and reduces the
#: returned stacks with one numpy call per quantity.  At most 4096 2x2
#: matrices (propagator-unitarity's eight a draw) are alive at once; 1024
#: samples raised validate's peak RSS by about 2 MB and ran no faster.
CHUNK = 512


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _chunks(samples: int):
    """Sizes of the array passes over samples draws: CHUNK each, then the rest."""
    return [min(CHUNK, samples - start) for start in range(0, samples, CHUNK)]


def _keep_worst(worst: float, x: float) -> float:
    # x > nan is False, so a NaN, once kept, stays
    return x if x > worst or math.isnan(x) else worst


def _by_angle(z: np.ndarray) -> np.ndarray:
    """Each row of z sorted by the angle of its entries."""
    return np.take_along_axis(z, np.argsort(np.angle(z), axis=1, kind="stable"), axis=1)


def _rotating(kicks, gamma: float, t: float):
    """The rotating-frame (lam = 1) no-ordering matrix of kicks (a_k, T_k) at time t."""
    return prop.no_ordering(prop.kick_integral(kicks, 1.0, gamma), 1.0, gamma, t)


def check_pauli_algebra(rng: np.random.Generator) -> CheckResult:
    """Random rotations: unitarity, unit determinant, same-axis composition."""
    worst_u = worst_det = worst_comp = 0.0
    for n in _chunks(10000):
        phis = rng.uniform(-10.0, 10.0, n)
        psis = rng.uniform(-10.0, 10.0, n)
        axes = rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        u, v, w = (pauli_exponential(x, axes) for x in (phis, psis, phis + psis))
        worst_u = _keep_worst(worst_u, unitarity_defect(u))
        with np.errstate(invalid="ignore"):  # a NaN determinant fails the check below
            worst_det = _keep_worst(worst_det, float(np.max(np.abs(np.linalg.det(u) - 1.0))))
        worst_comp = _keep_worst(worst_comp, max_abs_diff(v @ u, w))
    ok = worst_u <= 1e-12 and worst_det <= 1e-12 and worst_comp <= 1e-12
    return _result(
        "pauli-algebra",
        ok,
        f"unitarity {worst_u:.1e}, det {worst_det:.1e}, composition {worst_comp:.1e}",
    )


def check_propagator_unitarity(rng: np.random.Generator) -> CheckResult:
    """All closed-form propagators stay unitary across random parameters."""
    worst = 0.0
    for n in _chunks(10000):
        alphas = rng.uniform(-6.0, 6.0, n)
        betas = rng.uniform(0.0, 2.0, n)
        gammas = rng.uniform(0.0, 2.0, n)
        t1s = rng.uniform(0.0, 10.0, n)
        t2s = t1s + rng.uniform(0.0, 10.0, n)
        ts = t2s + rng.uniform(0.1, 10.0, n)
        a_effs = alphas * np.exp(-betas * betas)
        mats = (
            prop.free_propagator(gammas, ts),
            prop.degenerate_propagator(alphas),
            prop.no_ordering(alphas, 0.0, gammas, ts),
            _rotating(((a_effs, t1s),), gammas, ts),
            _rotating(((a_effs, t1s), (-a_effs, t2s)), gammas, ts),
            prop.kick_sequence_propagator(((alphas, t1s),), gammas, ts),
            prop.kick_sequence_propagator(((alphas, t1s), (-alphas, t2s)), gammas, ts),
            prop.rectangular_propagator(alphas, betas, gammas, t1s, ts),
        )
        worst = _keep_worst(worst, unitarity_defect(np.stack(mats)))
    return _result("propagator-unitarity", worst <= 1e-10, f"worst defect {worst:.1e}")


def check_limit_web() -> CheckResult:
    """Six limit reductions between propagators at a small parameter offset."""
    alpha, gamma, t = 1.1, 0.8, 3.0
    offset, tol = 1e-6, 1e-5  # the small parameter, and the tolerance on every reduction
    diffs = {}
    diffs["bare-average -> degenerate"] = max_abs_diff(
        prop.no_ordering(alpha, 0.0, offset, 1.0), prop.degenerate_propagator(alpha)
    )
    diffs["bare-average -> free"] = max_abs_diff(
        prop.no_ordering(offset, 0.0, gamma, t),
        prop.free_propagator(gamma, t),
    )
    diffs["kick-antikick -> free"] = max_abs_diff(
        prop.kick_sequence_propagator(((alpha, 1.0), (-alpha, 1.0 + offset)), gamma, t),
        prop.free_propagator(gamma, t),
    )
    diffs["rectangular -> kicked"] = max_abs_diff(
        prop.rectangular_propagator(alpha, offset, gamma, 1.0, t),
        prop.kick_sequence_propagator(((alpha, 1.0),), gamma, t),
    )
    # adiabatic, degenerate side: gamma -> 0 at constant coupling
    diffs["adiabatic -> degenerate"] = max_abs_diff(
        prop.adiabatic_propagator([rectangular(0.3, 4.0, 2.0)], SystemParams(offset), 4.0),
        prop.degenerate_propagator(0.3),
    )
    # adiabatic, free side: vanishing coupling at fixed splitting
    diffs["adiabatic -> free"] = max_abs_diff(
        prop.adiabatic_propagator([gaussian(offset, 0.5, 4.0)], SystemParams(gamma), 8.0),
        prop.free_propagator(gamma, 8.0),
    )
    worst_name, worst = max(diffs.items(), key=lambda kv: kv[1])
    return _result(
        "limit-web",
        all(v <= tol for v in diffs.values()),
        f"worst {worst_name}: {worst:.1e} (tol {tol:g})",
    )


def check_interaction_kick_identity(rng: np.random.Generator) -> CheckResult:
    """Rotating the exact kicked propagator removes all ordering content.

    exp(i H0 t / hbar) U_kick equals the beta = 0 rotating-frame average
    form exactly, so their difference must sit at rounding level.
    """
    worst = 0.0
    for n in _chunks(1000):
        alphas = rng.uniform(-4.0, 4.0, n)
        gammas = rng.uniform(0.0, 2.0, n)
        tks = rng.uniform(0.0, 8.0, n)
        ts = tks + rng.uniform(0.01, 8.0, n)
        kick = ((alphas, tks),)
        kicked = prop.kick_sequence_propagator(kick, gammas, ts)
        rotated = pauli_exponential(-gammas * ts, Z_AXIS) @ kicked
        worst = _keep_worst(worst, max_abs_diff(rotated, _rotating(kick, gammas, ts)))
    return _result("interaction-kick-identity", worst <= 1e-12, f"worst {worst:.1e}")


def check_schrodinger_double_zero(rng: np.random.Generator) -> CheckResult:
    """Bare-frame average evolution of a kick-antikick pair never transfers."""
    u0 = []
    for _ in range(500):
        alpha = rng.uniform(0.1, 3.0)
        gamma = rng.uniform(0.01, 2.0)
        t1 = rng.uniform(0.0, 5.0)
        t2 = t1 + rng.uniform(0.01, 8.0)
        t = t2 + rng.uniform(0.1, 5.0)
        kicks = [ideal_kick(alpha, t1), ideal_kick(-alpha, t2)]
        u0.append(no_ordering_numeric(kicks, SystemParams(gamma), t, 0.0))
    worst = float(np.max(probabilities(np.stack(u0), (1.0, 0.0))[1]))
    return _result("schrodinger-double-zero", worst <= 1e-12, f"worst P2 {worst:.1e}")


def check_closed_form_consistency(rng: np.random.Generator) -> CheckResult:
    """Probability formulas against the matrices they summarize, to 1e-12."""
    worst = 0.0
    for n in _chunks(1000):
        alphas = rng.uniform(-3.0, 3.0, n)
        betas = rng.uniform(0.0, 1.5, n)
        gammas = rng.uniform(0.01, 2.0, n)
        tks = rng.uniform(0.0, 5.0, n)
        tfs = tks + rng.uniform(0.01, 10.0, n)
        t1s = rng.uniform(0.0, 4.0, n)
        t2s = t1s + rng.uniform(0.0, 8.0, n)
        ts = t2s + rng.uniform(0.01, 5.0, n)
        a_effs = alphas * np.exp(-betas * betas)
        single = p2_closed_forms_single(alphas, betas, gammas * tfs)
        double = p2_closed_forms_double(alphas, betas, gammas * (t2s - t1s))
        pair, pair_eff = ((alphas, t1s), (-alphas, t2s)), ((a_effs, t1s), (-a_effs, t2s))
        cases = (
            (prop.kick_sequence_propagator(((alphas, tks),), gammas, tfs), single.exact_kick),
            (prop.no_ordering(alphas, 0.0, gammas, tfs), single.no_ordering_schrodinger),
            (_rotating(((a_effs, tks),), gammas, tfs), single.no_ordering_interaction),
            (prop.kick_sequence_propagator(pair, gammas, ts), double.exact_kick),
            (_rotating(pair_eff, gammas, ts), double.no_ordering_interaction),
        )
        for u, p2 in cases:
            _, p2_matrix = probabilities(u, (1.0, 0.0))
            worst = _keep_worst(worst, float(np.max(np.abs(p2_matrix - p2))))
    return _result("closed-form-consistency", worst <= 1e-12, f"worst {worst:.1e}")


def check_numeric_no_ordering(rng: np.random.Generator) -> CheckResult:
    """Closed no-ordering forms against the quadrature + eigh route, narrow pulses."""
    params = hydrogen_2s2p()
    g = params.gamma
    worst = 0.0
    for _ in range(25):
        alpha = rng.uniform(0.3, 2.5)
        beta = rng.uniform(0.005, 0.05)
        tau = beta / g
        tk = rng.uniform(6.0 * tau, 6.0 * tau + 300.0)
        t = tk + 6.0 * tau + rng.uniform(1.0, 300.0)
        a_eff = alpha * math.exp(-beta * beta)
        pulse = [gaussian(alpha, tau, tk)]
        u_num = no_ordering_numeric(pulse, params, t, 1.0)
        u_closed = _rotating(((a_eff, tk),), g, t)
        worst = _keep_worst(worst, max_abs_diff(u_num, u_closed))
        u0_num = no_ordering_numeric(pulse, params, t, 0.0)
        a_run = alpha  # pulse complete, so the running integral is the full strength
        worst = _keep_worst(worst, max_abs_diff(u0_num, prop.no_ordering(a_run, 0.0, g, t)))
        t2 = tk + rng.uniform(12.0 * tau, 400.0)
        pair = [gaussian(alpha, tau, tk), gaussian(-alpha, tau, t2)]
        t = t2 + 6.0 * tau + 1.0
        u_num = no_ordering_numeric(pair, params, t, 1.0)
        u_closed = _rotating(((a_eff, tk), (-a_eff, t2)), g, t)
        worst = _keep_worst(worst, max_abs_diff(u_num, u_closed))
    return _result("numeric-no-ordering", worst <= 1e-8, f"worst {worst:.1e}")


def check_floquet_grid() -> CheckResult:
    """Floquet chi and eigenvectors against M = e^{i gamma T sigma_z} e^{-i alpha sigma_x}.

    M, built here, is the documented period: a kick, then free evolution.  On an
    (alpha, gamma T) grid chi must match eigvals(M), and each eigenvector must
    satisfy M v = e^{+-i chi} v, which the swapped order fails.
    """
    n = 50  # grid points per axis
    worst_value = worst_vector = 0.0
    axis = np.linspace(0.0, math.pi, n)
    alphas, gts = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    for start in range(0, n * n, CHUNK):
        alpha, gt = alphas[start : start + CHUNK], gts[start : start + CHUNK]
        res = prop.floquet_eigenphases(alpha, gt)
        period = pauli_exponential(gt, Z_AXIS) @ pauli_exponential(-alpha, X_AXIS)
        eigvals = np.linalg.eigvals(period)
        chi_num = np.max(np.abs(np.angle(eigvals)), axis=1)
        worst_value = _keep_worst(worst_value, float(np.max(np.abs(chi_num - res.chi))))
        plus, minus = np.exp(1j * res.chi), np.exp(-1j * res.chi)
        recon = np.abs(_by_angle(eigvals) - _by_angle(np.column_stack((minus, plus))))
        worst_value = _keep_worst(worst_value, float(np.max(recon)))
        for v, lam in zip(res.eigenvectors, (plus, minus)):
            residual = np.einsum("nij,nj->ni", period, v) - lam[:, None] * v
            worst_vector = _keep_worst(worst_vector, float(np.max(np.abs(residual))))
    detail = f"eigenvalue worst {worst_value:.1e}, eigenvector worst {worst_vector:.1e} on {n}x{n} grid"
    return _result("floquet-grid", worst_value <= 1e-10 and worst_vector <= 1e-10, detail)


def check_time_reversal(rng: np.random.Generator) -> CheckResult:
    """Propagating forward then with mirrored, sign-reversed arguments gives 1."""
    worst = 0.0
    for n in _chunks(1000):
        alphas = rng.uniform(-3.0, 3.0, n)
        gammas = rng.uniform(0.0, 2.0, n)
        tks = rng.uniform(0.1, 5.0, n)
        t_singles = tks + rng.uniform(0.1, 5.0, n)
        t1s = rng.uniform(0.0, 3.0, n)
        t2s = t1s + rng.uniform(0.1, 4.0, n)
        ts = t2s + rng.uniform(0.1, 4.0, n)
        betas = rng.uniform(0.0, 1.0, n)
        # each reverse run: inverse kicks in mirrored order, under -gamma
        pairs = (
            (prop.kick_sequence_propagator(((alphas, tks),), gammas, t_singles),
             prop.kick_sequence_propagator(((-alphas, t_singles - tks),), -gammas, t_singles)),
            (prop.kick_sequence_propagator(((alphas, t1s), (-alphas, t2s)), gammas, ts),
             prop.kick_sequence_propagator(((alphas, ts - t2s), (-alphas, ts - t1s)), -gammas, ts)),
            (prop.no_ordering(alphas, 0.0, gammas, 1.0), prop.no_ordering(-alphas, 0.0, -gammas, 1.0)),
            (prop.rectangular_propagator(alphas, betas, gammas, tks, ts),
             prop.rectangular_propagator(-alphas, -betas, -gammas, ts - tks, ts)),
        )
        for fwd, rev in pairs:
            worst = _keep_worst(worst, max_abs_diff(rev @ fwd, IDENTITY))
    return _result("time-reversal", worst <= 1e-10, f"worst {worst:.1e}")


def check_perturbative_onset() -> CheckResult:
    """Kick-antikick ordering effect starts at second order in the strength.

    In the rotating frame ||U_I - U_I^0|| must fit a log-log slope >= 2 in
    alpha, and the off-diagonal difference a slope >= 3.
    """
    gamma, t1, t2, t = 0.9, 1.0, 3.0, 4.5
    alphas = np.geomspace(3e-4, 3e-2, 8)
    full, offdiag = [], []
    for alpha in alphas.tolist():
        pair = ((alpha, t1), (-alpha, t2))
        u_i = pauli_exponential(-gamma * t, Z_AXIS) @ prop.kick_sequence_propagator(
            pair, gamma, t
        )
        diff = u_i - _rotating(pair, gamma, t)
        full.append(float(np.max(np.abs(diff))))
        offdiag.append(float(max(abs(diff[0, 1]), abs(diff[1, 0]))))
    fit_full = error_scaling_fit(alphas, full)
    fit_off = error_scaling_fit(alphas, offdiag)
    ok = fit_full.slope >= 2.0 - 0.05 and fit_off.slope >= 3.0 - 0.05
    return _result(
        "perturbative-onset",
        ok,
        f"full slope {fit_full.slope:.2f} (>=2), off-diagonal slope {fit_off.slope:.2f} (>=3)",
    )


def check_rect_correction_residual() -> CheckResult:
    """Leading-width correction leaves an O(beta^2) residual (slope 2 +- 0.2)."""
    alpha, gamma, tk, t = 1.2, 0.7, 2.0, 5.0
    betas = np.geomspace(1e-3, 3e-2, 8)
    resid = []
    for beta in betas:
        delta = prop.rectangular_propagator(alpha, float(beta), gamma, tk, t) - \
            prop.kick_sequence_propagator(((alpha, tk),), gamma, t)
        delta -= prop.kick_correction_leading(alpha, float(beta), gamma, t, PulseShape.RECTANGULAR)
        resid.append(float(np.max(np.abs(delta))))
    fit = error_scaling_fit(betas, resid)
    return _result(
        "rect-correction-residual",
        abs(fit.slope - 2.0) <= 0.2,
        f"slope {fit.slope:.2f} (want 2.0 +- 0.2)",
    )


def check_kicked_error_scaling() -> CheckResult:
    """RK4 transfer error of the kicked approximation grows as (tau/T)^2."""
    fit, _, _ = kicked_error_scaling_fit()
    return _result(
        "kicked-error-scaling", abs(fit.slope - 2.0) <= 0.1, f"slope {fit.slope:.3f} (want 2.0 +- 0.1)"
    )


def kicked_error_scaling_fit(n_points: int = 8) -> tuple[ScalingFit, np.ndarray, np.ndarray]:
    """Kicked-limit P2 error against tau / T on n_points widths: the fit, the ratios and the errors."""
    params = hydrogen_2s2p()
    alpha, tk, tf = math.pi / 2, 150.0, 300.0
    ratios = np.geomspace(1e-3, 3e-2, n_points)
    errs = np.empty(n_points)
    for i, r in enumerate(ratios):
        tau = r * params.rabi_time
        u = rk4_propagator([gaussian(alpha, tau, tk)], params, 0.0, tf)
        _, p2 = probabilities(u, (1.0, 0.0))
        errs[i] = abs(p2 - math.sin(alpha) ** 2)
    return error_scaling_fit(ratios, errs), ratios, errs


def check_rk4_order() -> CheckResult:
    """Global RK4 error falls as dt^4 under halving (slope 4 +- 0.2)."""
    fit, _, norm_defect_val = rk4_order_fit()
    ok = abs(fit.slope - 4.0) <= 0.2 and norm_defect_val <= 1e-8
    return _result(
        "rk4-order",
        ok,
        f"slope {fit.slope:.2f} (want 4.0 +- 0.2), norm defect {norm_defect_val:.1e}",
    )


def rk4_order_fit(dts=(1.6, 0.8, 0.4, 0.2)) -> tuple[ScalingFit, np.ndarray, float]:
    """dt ladder on the single-pulse transfer scenario, against a fine reference.

    Returns the fit, the error at each dt, and the unitarity defect at the
    default step.
    """
    params = hydrogen_2s2p()
    pulses = [gaussian(math.pi / 2, 10.0, 150.0)]
    ref = rk4_propagator(pulses, params, 0.0, 300.0, IntegratorConfig(dt=0.0125))
    dts = np.array(dts, dtype=float)
    errs = np.array([
        max_abs_diff(rk4_propagator(pulses, params, 0.0, 300.0,
                                    IntegratorConfig(dt=float(dt), unitarity_tolerance=1e-4)), ref)
        for dt in dts
    ])
    u_default = rk4_propagator(pulses, params, 0.0, 300.0)
    return error_scaling_fit(dts, errs), errs, unitarity_defect(u_default)


def check_rectangular_vs_rk4(rng: np.random.Generator) -> CheckResult:
    """Exact rectangular propagator against RK4 at dt = tau / 1e4."""
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(-1.0, 1.0)
        beta = rng.uniform(0.01, 1.0)
        gamma = rng.uniform(0.2, 1.5)
        tau = beta / gamma
        tk = tau  # free stretch of tau/2 before the pulse
        t = 3.0 * tau
        u_exact = prop.rectangular_propagator(alpha, beta, gamma, tk, t)
        u_num = rk4_propagator(
            [rectangular(alpha, tau, tk)], SystemParams(gamma), 0.0, t,
            IntegratorConfig(dt=tau / 1e4),
        )
        worst = _keep_worst(worst, max_abs_diff(u_exact, u_num))
    return _result("rectangular-vs-rk4", worst <= 1e-8, f"worst {worst:.1e}")


def check_consistency_triangle() -> CheckResult:
    """Closed forms, propagators, and RK4 agree within the beta^2 error law."""
    params = hydrogen_2s2p()
    g = params.gamma
    worst_exact = 0.0
    worst_rk4_ratio = 0.0
    for alpha, tau, tk, tf in (
        (math.pi / 2, 5.0, 150.0, 300.0),
        (math.pi / 4, 10.0, 150.0, 400.0),
        (1.0, 20.0, 200.0, 500.0),
    ):
        beta = g * tau
        # closed form vs propagator route: must match to rounding
        single = p2_closed_forms_single(alpha, beta, g * tf)
        a_eff = alpha * math.exp(-beta * beta)
        _, p2_mat = probabilities(_rotating(((a_eff, tk),), g, tf), (1.0, 0.0))
        worst_exact = _keep_worst(worst_exact, abs(p2_mat - single.no_ordering_interaction))
        # RK4 vs kicked limit: bounded by the fitted quadratic error law
        u = rk4_propagator([gaussian(alpha, tau, tk)], params, 0.0, tf)
        _, p2 = probabilities(u, (1.0, 0.0))
        err = abs(p2 - single.exact_kick)
        bound = 16.0 * beta * beta  # generous prefactor over the observed law
        worst_rk4_ratio = _keep_worst(worst_rk4_ratio, err / bound)
    ok = worst_exact <= 1e-12 and worst_rk4_ratio <= 1.0
    return _result(
        "consistency-triangle",
        ok,
        f"closed-vs-matrix {worst_exact:.1e}, rk4 error / beta^2 bound {worst_rk4_ratio:.2f}",
    )


def run_validation(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_pauli_algebra(rng),
        check_propagator_unitarity(rng),
        check_limit_web(),
        check_interaction_kick_identity(rng),
        check_schrodinger_double_zero(rng),
        check_closed_form_consistency(rng),
        check_numeric_no_ordering(rng),
        check_floquet_grid(),
        check_time_reversal(rng),
        check_perturbative_onset(),
        check_rect_correction_residual(),
        check_kicked_error_scaling(),
        check_rk4_order(),
        check_rectangular_vs_rk4(rng),
        check_consistency_triangle(),
    ]
