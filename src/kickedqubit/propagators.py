"""Closed-form time-evolution matrices for pulsed two-state systems.

All propagators act on amplitude pairs in the basis where the free
Hamiltonian is H0/hbar = -gamma sigma_z and the coupling is v(t) sigma_x.
The free propagator is therefore exp(i gamma t sigma_z).  The "no
ordering" evolution replaces the time-ordered exponential with the plain
exponential of the time-averaged Hamiltonian.  It depends on the frame of
the average, which is the point of comparing frames: `no_ordering` is one
closed form for the frame family lam, where lam = 0 is the bare
(Schrodinger) frame and lam = 1 the rotating (interaction) frame.

Validity domains:

* kick sequence (`kick_sequence_propagator`, any number of ideal kicks
  as time-ordered (alpha_k, T_k) pairs): exact for delta-function pulses,
  accurate to O(beta) in matrix elements for finite widths
  (beta = gamma tau).
* no-ordering form (`no_ordering`): exact for any coupling once z_lam is
  exact.  At lam = 0, z is the running strength int_0^t v dt of any
  pulse sequence.  For kicks, `kick_integral` gives z_lam at any lam; at
  lam = 1 it is also exact for completed gaussians entered as
  a_k = alpha_k e^{-beta_k^2}.  `kick_sequence_propagator` and
  `kick_integral` accept any finite gamma, negative included.
* rectangular form: exact for a rectangular pulse fully inside [0, t].
* adiabatic form: slowly varying v(t); a validity ratio is reported, not
  enforced.

The closed forms need numpy only.  scipy's `quad` is imported inside the
two quadrature routes (`kick_correction_shape_factor` for a gaussian, and
`adiabatic_phase`), so importing this module does not load scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pulses import (
    PulseSequence,
    PulseShape,
    SystemParams,
    envelope,
    envelope_array,
    integrated_strength,
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


def kick_integral(kicks: Sequence[tuple[float, float]], lam: float, gamma: float) -> complex:
    """z_lam = sum_k a_k e^{2 i lam gamma T_k} of kicks given as (a_k, T_k) pairs.

    The no-ordering exponent of ideal kicks in the frame lam (see
    `no_ordering_column`).  A completed gaussian of strength alpha and
    width beta = gamma tau enters the rotating frame (lam = 1) as
    a_k = alpha e^{-beta^2}, an ideal kick as a_k = alpha.
    """
    w = 2.0 * lam * gamma
    zr = zi = 0.0
    for a, tk in kicks:
        zr += a * math.cos(w * tk)
        zi += a * math.sin(w * tk)
    return complex(zr, zi)


def no_ordering_column(z: complex, lam: float, gamma: float, t: float) -> tuple[complex, complex]:
    """First column (u11, u21) of exp(-i Omega_lam), the no-ordering evolution of frame lam.

    The frame splits -lam gamma sigma_z off H0; its averaged (first-order
    Magnus) exponent is Omega_lam = Re z sigma_x + Im z sigma_y
    - c sigma_z, c = (1 - lam) gamma t, z = int_0^t v e^{2 i lam gamma t'} dt'
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  With
    xi = sqrt(|z|^2 + c^2) the column is (cos(xi) + i c sin(xi)/xi,
    -i z sin(xi)/xi).  The frame factor e^{i lam gamma t sigma_z} is
    diagonal, so P2 = |u21|^2 in every frame.
    """
    c = (1.0 - lam) * gamma * t
    zr, zi = z.real, z.imag
    xi = math.hypot(zr, zi, c)
    # _sin_over written out for xi >= 1e-4: propagate calls this twice per CSV row
    s = math.sin(xi) / xi if xi >= 1e-4 else _sin_over(xi)
    return math.cos(xi) + c * s * 1j, zi * s - zr * s * 1j


def no_ordering(z: complex, lam: float, gamma: float, t: float) -> np.ndarray:
    """exp(-i Omega_lam): the SU(2) completion [[u11, -u21*], [u21, u11*]] of `no_ordering_column`.

    In the rotating frame one kick gives P2 = sin^2 a and a kick-antikick
    pair sin^2(2 a sin(gamma T_s)); in the bare frame a running strength
    alpha gives P2 = (alpha sin(xi)/xi)^2, xi = sqrt(alpha^2 + (gamma t)^2).
    """
    u11, u21 = no_ordering_column(z, lam, gamma, t)
    return np.array([[u11, -u21.conjugate()], [u21, u11.conjugate()]])


def kick_sequence_propagator(
    kicks: Sequence[tuple[float, float]], gamma: float, t: float
) -> np.ndarray:
    """Exact evolution from 0 to t through ideal kicks (alpha_k, T_k).

    The kicks must be time-ordered inside [0, t): 0 <= T_1 <= T_2 <= ... < t.
    Free evolution e^{i gamma dt sigma_z} and each kick e^{-i alpha_k sigma_x}
    are composed right to left in SU(2) form: each factor and the running
    product are [[p, -q*], [q, p*]], so only (p, q) is carried.  One kick
    gives [[e^{i gamma t} cos a, -i e^{i gamma (t - 2 T)} sin a], ...]; a
    kick-antikick pair gives P2 = sin^2(gamma T_s) sin^2(2 alpha).
    """
    p, q = 1.0 + 0.0j, 0.0j
    last = 0.0
    for alpha, tk in kicks:
        if not last <= tk < t:
            raise ValueError("kicks must be time-ordered inside [0, t)")
        f = complex(math.cos(gamma * (tk - last)), math.sin(gamma * (tk - last)))
        c, s = math.cos(alpha), math.sin(alpha)
        # free factor (f, 0), then the kick (c, -i s)
        p, q = c * f * p - 1j * s * f.conjugate() * q, c * f.conjugate() * q - 1j * s * f * p
        last = tk
    f = complex(math.cos(gamma * (t - last)), math.sin(gamma * (t - last)))
    p, q = f * p, f.conjugate() * q
    return np.array([[p, -q.conjugate()], [q, p.conjugate()]])


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
        from scipy.integrate import quad

        # 2 [cos^2((alpha/2) erf s) - cos^2(alpha/2)] = cos(alpha erf s) - cos(alpha)
        val, _ = quad(
            lambda s: math.cos(alpha * math.erf(s)) - math.cos(alpha),
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


@dataclass(frozen=True)
class AdiabaticPhase:
    """Phase content of the adiabatic evolution up to time t.

    theta is the dressed phase int_0^t Omega dt' / 2 hbar (monotone in t);
    phi_0 and phi_t are the mixing angles atan(v/gamma) at the endpoints.
    At gamma = 0 the mixing angles are pi/2 (the sigma_x basis) and theta is
    the signed strength int_0^t v dt', which need not be monotone.
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
    """Adiabatic propagator and the worst validity ratio.

    validity_ratio is max over sampled times of
    hbar |dV/dt| Delta_E / Omega^3; the approximation is trustworthy when
    it is much smaller than one.  It is reported, never enforced.
    """

    matrix: np.ndarray
    validity_ratio: float


def adiabatic_phase(pulses: PulseSequence, params: SystemParams, t: float) -> AdiabaticPhase:
    """Accumulated dressed phase and endpoint mixing angles (adaptive quadrature)."""
    gamma = params.gamma
    v = envelope(pulses)
    if gamma == 0.0:
        # H = v sigma_x commutes with itself: exactly exp(-i theta sigma_x),
        # whether or not v underflows to 0 at the endpoints
        theta = integrated_strength(pulses, 0.0, t) if t >= 0.0 else -integrated_strength(pulses, t, 0.0)
        return AdiabaticPhase(theta=theta, phi_0=0.5 * math.pi, phi_t=0.5 * math.pi)
    from scipy.integrate import quad

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
    return AdiabaticResult(matrix=matrix, validity_ratio=_adiabatic_ratio(pulses, params, t))


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
