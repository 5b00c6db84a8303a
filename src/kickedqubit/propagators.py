"""Closed-form time-evolution matrices for pulsed two-state systems.

All propagators act on amplitude pairs in the basis where the free
Hamiltonian is H0/hbar = -gamma sigma_z and the coupling is v(t) sigma_x.
The free propagator is therefore exp(i gamma t sigma_z).  "No ordering"
variants are the evolution obtained by replacing the time-ordered
exponential with the plain exponential of the time-averaged Hamiltonian;
they differ between the bare (Schrodinger) frame and the rotating
(interaction) frame, which is the point of comparing them.

Validity domains:

* kicked / kick-antikick forms: exact for delta-function pulses, accurate
  to O(beta) in matrix elements for finite widths (beta = gamma tau).
* rectangular form: exact for a rectangular pulse fully inside [0, t].
* adiabatic form: slowly varying v(t); a validity ratio is reported, not
  enforced.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erf

from .pulses import (
    DoubleKickParams,
    Pulse,
    PulseSequence,
    PulseShape,
    SystemParams,
    envelope,
    envelope_array,
    v_of_t,
)
from .su2 import X_AXIS, Z_AXIS, pauli_exponential


def _sin_over(x: float) -> float:
    """sin(x)/x with the removable singularity handled by series."""
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0)
    return math.sin(x) / x


def free_propagator(params: SystemParams, t: float) -> np.ndarray:
    """diag(e^{i gamma t}, e^{-i gamma t}): free evolution under H0."""
    return pauli_exponential(params.gamma * t, Z_AXIS)


def degenerate_propagator(alpha: float) -> np.ndarray:
    """exp(-i alpha sigma_x), the exact evolution of a degenerate pair.

    With no level splitting the coupling commutes with itself at all
    times, so only the integrated strength alpha matters.
    """
    return pauli_exponential(-alpha, X_AXIS)


def no_ordering_schrodinger_column(
    alpha_running: float, gamma_t: float
) -> tuple[complex, complex]:
    """First column (u11, u21) of exp(i gamma t sigma_z - i alpha sigma_x).

    With xi = sqrt(alpha^2 + (gamma t)^2) it is
    (cos(xi) + i gamma t sin(xi)/xi, -i alpha sin(xi)/xi).  The matrix is
    its SU(2) completion [[u11, -u21*], [u21, u11*]], and -u21* = u21
    because u21 is imaginary.
    """
    xi = math.hypot(alpha_running, gamma_t)
    s = _sin_over(xi)
    return math.cos(xi) + 1j * gamma_t * s, -1j * alpha_running * s


def no_ordering_schrodinger(alpha_running: float, gamma_t: float) -> np.ndarray:
    """exp(i gamma t sigma_z - i alpha sigma_x): bare-frame average evolution.

    alpha_running is the coupling integrated from 0 to the measurement
    time.  Matrix elements involve xi = sqrt(alpha^2 + (gamma t)^2):
    diagonal cos(xi) +/- i gamma t sin(xi)/xi, off-diagonal
    -i alpha sin(xi)/xi.
    """
    u11, u21 = no_ordering_schrodinger_column(alpha_running, gamma_t)
    return np.array([[u11, u21], [u21, u11.conjugate()]])


def no_ordering_interaction_single(
    alpha: float, beta: float, gamma_tk: float
) -> np.ndarray:
    """Rotating-frame average evolution for one completed gaussian pulse.

    diag cos(alpha e^{-beta^2}); off-diagonal
    -i sin(alpha e^{-beta^2}) e^{-+ 2 i gamma T_k}.  beta = 0 covers the
    ideal kick, for which this equals the exact kicked propagator rotated
    into the same frame.
    """
    a_eff = alpha * math.exp(-beta * beta)
    c, s = math.cos(a_eff), math.sin(a_eff)
    ph = complex(math.cos(2.0 * gamma_tk), math.sin(2.0 * gamma_tk))
    return np.array([[c, -1j * s / ph], [-1j * s * ph, c]])


def no_ordering_interaction_double(
    alpha: float, beta: float, gamma: float, dk: DoubleKickParams
) -> np.ndarray:
    """Rotating-frame average evolution for an equal-and-opposite pulse pair.

    With theta = 2 alpha e^{-beta^2} sin(gamma T_s) and Tbar the midpoint:
    diag cos(theta); off-diagonal +/- sin(theta) e^{-+ 2 i gamma Tbar}.
    """
    theta = 2.0 * alpha * math.exp(-beta * beta) * math.sin(gamma * dk.separation)
    c, s = math.cos(theta), math.sin(theta)
    ph = complex(math.cos(2.0 * gamma * dk.midpoint), math.sin(2.0 * gamma * dk.midpoint))
    return np.array([[c, s / ph], [-s * ph, c]])


def kicked_propagator(alpha: float, gamma: float, t_kick: float, t: float) -> np.ndarray:
    """Exact evolution for a single ideal kick of strength alpha at t_kick.

    Free evolution, an instantaneous sigma_x rotation, then free evolution:
    [[e^{i gamma t} cos a, -i e^{i gamma (t - 2 t_kick)} sin a],
     [-i e^{-i gamma (t - 2 t_kick)} sin a, e^{-i gamma t} cos a]].
    """
    if t <= t_kick:
        raise ValueError("measurement time must be after the kick")
    c, s = math.cos(alpha), math.sin(alpha)
    pt = complex(math.cos(gamma * t), math.sin(gamma * t))
    pk = complex(math.cos(gamma * (t - 2.0 * t_kick)), math.sin(gamma * (t - 2.0 * t_kick)))
    return np.array([[pt * c, -1j * pk * s], [-1j * s / pk, c / pt]])


def kick_antikick_propagator(
    alpha: float, gamma: float, dk: DoubleKickParams, t: float
) -> np.ndarray:
    """Exact evolution for kicks of strength +alpha at t1 and -alpha at t2.

    Built as the exact factor product
    e^{i g (t-t2) sz} e^{i a sx} e^{i g (t2-t1) sz} e^{-i a sx} e^{i g t1 sz};
    from the first state this gives P2 = sin^2(gamma T_s) sin^2(2 alpha).
    """
    if t <= dk.t2:
        raise ValueError("measurement time must be after the second kick")
    return (
        pauli_exponential(gamma * (t - dk.t2), Z_AXIS)
        @ pauli_exponential(alpha, X_AXIS)
        @ pauli_exponential(gamma * dk.separation, Z_AXIS)
        @ pauli_exponential(-alpha, X_AXIS)
        @ pauli_exponential(gamma * dk.t1, Z_AXIS)
    )


def rectangular_propagator(
    alpha: float, beta: float, gamma: float, t_kick: float, t: float
) -> np.ndarray:
    """Exact evolution for a rectangular pulse of area alpha centered at t_kick.

    beta = gamma tau encodes the width.  With a' = sqrt(alpha^2 + beta^2):
    diagonal e^{+-(i gamma t - i beta)} (cos a' +- i beta sin(a')/a'),
    off-diagonal -i e^{+-i gamma (t - 2 t_kick)} alpha sin(a')/a'.
    Valid when the pulse lies inside [0, t]; reduces to the kicked form at
    beta = 0.
    """
    ap = math.hypot(alpha, beta)
    s = _sin_over(ap)
    c = math.cos(ap)
    pt = complex(math.cos(gamma * t - beta), math.sin(gamma * t - beta))
    pk = complex(math.cos(gamma * (t - 2.0 * t_kick)), math.sin(gamma * (t - 2.0 * t_kick)))
    return np.array(
        [
            [pt * (c + 1j * beta * s), -1j * pk * alpha * s],
            [-1j * alpha * s / pk, (c - 1j * beta * s) / pt],
        ]
    )


def kick_correction_shape_factor(alpha: float, shape: PulseShape) -> float:
    """Shape factor g(alpha) of the leading finite-width correction.

    g(alpha) = (2/tau) int dt [cos^2(A(t)) - cos^2(alpha/2)] where A(t) is
    the coupling integrated from the pulse center.  Rectangular pulses give
    sin(alpha)/alpha - cos(alpha) in closed form; the gaussian factor is
    computed by adaptive quadrature of cos(alpha erf s) - cos(alpha).
    """
    if shape is PulseShape.RECTANGULAR:
        return _sin_over(alpha) - math.cos(alpha)
    if shape is PulseShape.GAUSSIAN:
        # 2 [cos^2((alpha/2) erf s) - cos^2(alpha/2)] = cos(alpha erf s) - cos(alpha)
        val, _ = quad(
            lambda s: math.cos(alpha * erf(s)) - math.cos(alpha),
            -9.0,
            9.0,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=200,
        )
        return val
    raise ValueError("shape factor defined for rectangular and gaussian pulses")


def kick_correction_leading(
    alpha: float, beta: float, gamma: float, t: float, shape: PulseShape
) -> np.ndarray:
    """Leading O(beta) error of the kicked approximation for a narrow pulse.

    i beta g(alpha) diag(e^{i gamma t}, -e^{-i gamma t}).
    """
    g = kick_correction_shape_factor(alpha, shape)
    ph = complex(math.cos(gamma * t), math.sin(gamma * t))
    return 1j * beta * g * np.array([[ph, 0.0], [0.0, -1.0 / ph]])


def kick_correction_expansion(
    pulse: Pulse, params: SystemParams, t: float
) -> np.ndarray:
    """Two-term small-(alpha, beta) expansion of the kicked-approximation error.

    The diagonal term scales as beta alpha^2 and integrates
    (alpha/2)^2 - A(u)^2 over the pulse; the off-diagonal term scales as
    beta^2 alpha and integrates v(u) (u - T_k)^2.  The oscillating phase
    factors are kept exact at the measurement time so the result can be
    compared directly against exact propagator differences.
    """
    if pulse.shape is PulseShape.IDEAL_KICK:
        return np.zeros((2, 2), dtype=complex)
    gamma = params.gamma
    alpha, tk = pulse.alpha, pulse.center
    lo, hi = pulse.window()
    v = envelope([pulse])

    def square_deficit(u: float) -> float:
        a_run = pulse.integral(tk, u) if u >= tk else -pulse.integral(u, tk)
        return 0.25 * alpha * alpha - a_run * a_run

    i1, _ = quad(square_deficit, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)
    i2, _ = quad(
        lambda u: v(u) * (u - tk) ** 2, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200
    )
    ph_t = complex(math.cos(gamma * t), math.sin(gamma * t))
    ph_k = complex(math.cos(gamma * (t - 2.0 * tk)), math.sin(gamma * (t - 2.0 * tk)))
    diag = 2j * gamma * i1 * np.array([[ph_t, 0.0], [0.0, -1.0 / ph_t]])
    off = 2j * gamma * gamma * i2 * np.array([[0.0, ph_k], [1.0 / ph_k, 0.0]])
    return diag + off


def commutator_correction(pulse: Pulse, params: SystemParams, t: float) -> np.ndarray:
    """Leading commutator term of (exact - bare-frame average) evolution.

    -(1/2 hbar^2) [H0, V0] int_0^t (t - 2 t') f(t') dt' with v = v0 f;
    the commutator reduces it to i gamma sigma_y int (t - 2 t') v(t') dt'.
    Vanishes for any envelope symmetric about t/2 and for constant
    envelopes.
    """
    gamma = params.gamma
    j = t * pulse.integral(0.0, t) - 2.0 * pulse.first_moment(0.0, t)
    # i gamma J sigma_y = gamma J [[0, 1], [-1, 0]]
    return gamma * j * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def instantaneous_splitting(pulses: PulseSequence, params: SystemParams, t: float) -> float:
    """Dressed level splitting Omega(t)/hbar = 2 sqrt(gamma^2 + v(t)^2); >= 2 gamma."""
    v = v_of_t(pulses, t)
    return 2.0 * math.hypot(params.gamma, v)


@dataclass(frozen=True)
class AdiabaticPhase:
    """Phase content of the adiabatic evolution up to time t.

    theta is the dressed phase int_0^t Omega dt' / 2 hbar (monotone in t);
    phi_0 and phi_t are the mixing angles atan(v/gamma) at the endpoints.
    """

    theta: float
    phi_0: float
    phi_t: float

    @property
    def phi_plus(self) -> float:
        return 0.5 * (self.phi_t + self.phi_0)

    @property
    def phi_minus(self) -> float:
        return 0.5 * (self.phi_t - self.phi_0)


@dataclass(frozen=True)
class AdiabaticResult:
    """Adiabatic propagator, its phase content, and the worst validity ratio.

    validity_ratio is max over sampled times of
    hbar |dV/dt| Delta_E / Omega^3; the approximation is trustworthy when
    it is much smaller than one.  It is reported, never enforced.
    """

    matrix: np.ndarray
    validity_ratio: float
    phase: AdiabaticPhase


def adiabatic_phase(pulses: PulseSequence, params: SystemParams, t: float) -> AdiabaticPhase:
    """Accumulated dressed phase and endpoint mixing angles (adaptive quadrature)."""
    gamma = params.gamma
    v = envelope(pulses)
    breakpoints = sorted(
        {x for p in pulses for x in p.window() if 0.0 < x < t}
        | {p.center for p in pulses if 0.0 < p.center < t}
    )
    theta, _ = quad(
        lambda x: math.sqrt(gamma * gamma + v(x) ** 2),
        0.0,
        t,
        points=breakpoints or None,
        epsrel=1e-10,
        epsabs=1e-13,
        limit=400,
    )
    return AdiabaticPhase(theta=theta, phi_0=math.atan2(v(0.0), gamma), phi_t=math.atan2(v(t), gamma))


def adiabatic_propagator(
    pulses: PulseSequence, params: SystemParams, t: float
) -> AdiabaticResult:
    """Evolution for a slowly varying coupling.

    Built from the instantaneous splitting Omega(t')/hbar =
    2 sqrt(gamma^2 + v^2), the accumulated phase theta = int Omega/2hbar,
    and the mixing angles phi(t') = atan(v/gamma) at the endpoints.
    """
    phase = adiabatic_phase(pulses, params, t)
    fp, fm = phase.phi_plus, phase.phi_minus
    ct, st = math.cos(phase.theta), math.sin(phase.theta)
    matrix = np.array(
        [
            [ct * math.cos(fm) + 1j * st * math.cos(fp), ct * math.sin(fm) - 1j * st * math.sin(fp)],
            [-ct * math.sin(fm) - 1j * st * math.sin(fp), ct * math.cos(fm) - 1j * st * math.cos(fp)],
        ]
    )
    return AdiabaticResult(
        matrix=matrix,
        validity_ratio=_adiabatic_ratio(pulses, params, t),
        phase=phase,
    )


def _adiabatic_ratio(pulses: PulseSequence, params: SystemParams, t: float) -> float:
    """Worst gamma |dv/dt| / (4 Omega^3) of the summed coupling over each gaussian's window."""
    gamma = params.gamma
    if gamma == 0.0:
        return 0.0  # H = v(t) sigma_x commutes with itself at all times
    if any(p.shape is PulseShape.RECTANGULAR and p.alpha != 0.0 for p in pulses):
        return math.inf  # discontinuous edges: infinitely fast variation
    smooth = [p for p in pulses if p.shape is PulseShape.GAUSSIAN]
    worst = 0.0
    for p in smooth:
        lo, hi = max(p.window()[0], 0.0), min(p.window()[1], t)
        if hi <= lo:
            continue
        x = np.linspace(lo, hi, 401)
        vx = envelope_array(smooth, x)
        vdot = np.abs(sum(q.value(x) * 2.0 * (x - q.center) / (q.tau * q.tau) for q in smooth))
        omega_sq = gamma * gamma + vx * vx
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = gamma * vdot / (4.0 * omega_sq**1.5)
        ratio = np.nan_to_num(ratio, nan=math.inf, posinf=math.inf)
        worst = max(worst, float(np.max(ratio)) if ratio.size else 0.0)
    return worst


@dataclass(frozen=True)
class FloquetResult:
    """One-period eigenphase chi in [0, pi] and the matched eigenvectors.

    The one-period matrix has eigenvalues e^{+i chi} and e^{-i chi};
    eigenvectors are listed in that order, normalized with their first
    significant component made real and positive.
    """

    chi: float
    eigenvectors: tuple[np.ndarray, np.ndarray]
    one_period: np.ndarray


def floquet_eigenphases(alpha: float, gamma_period: float) -> FloquetResult:
    """Eigenphases of one period of a periodically kicked system.

    The period consists of a kick of strength alpha followed by free
    evolution accumulating phase gamma_period, so
    chi = arccos(cos alpha cos gamma_period) on the principal branch.
    """
    one_period = pauli_exponential(gamma_period, Z_AXIS) @ pauli_exponential(-alpha, X_AXIS)
    chi = math.acos(max(-1.0, min(1.0, math.cos(alpha) * math.cos(gamma_period))))
    eigvals, eigvecs = np.linalg.eig(one_period)
    target = complex(math.cos(chi), math.sin(chi))
    plus = int(np.argmin(np.abs(eigvals - target)))
    ordered = []
    for idx in (plus, 1 - plus):
        vec = eigvecs[:, idx]
        vec = vec / np.linalg.norm(vec)
        lead = vec[0] if abs(vec[0]) > 1e-12 else vec[1]
        vec = vec * (abs(lead) / lead)
        ordered.append(vec)
    return FloquetResult(chi=chi, eigenvectors=(ordered[0], ordered[1]), one_period=one_period)
