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
* adiabatic form: slowly varying v(t).

Every closed form here broadcasts over array parameters: scalar input
gives one (2, 2) matrix and array input a (..., 2, 2) stack, built by
`su2.su2` from the SU(2) pair (p, q) of each matrix (the free and
degenerate forms by `su2.pauli_exponential`).  So `validate`, the scans
and `floquet` make one call per array pass, not one per sample.

The module needs numpy only.  Its two quadrature routes, the gaussian
`kick_correction_shape_factor` and `adiabatic_phase`, read the one value
of the composite Gauss-Legendre rule `pulses.gauss_legendre`.
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
    envelope_array,
    gauss_legendre,
    gaussian,
    integrated_strength,
)
from .su2 import X_AXIS, Z_AXIS, _require_finite, pauli_exponential, su2


def _sinc(x):
    """sin(x)/x, 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    s = np.ones_like(x)
    np.divide(np.sin(x), x, out=s, where=x != 0.0)
    return s


def _phase(x):
    """e^{i x}."""
    return np.cos(x) + 1j * np.sin(x)


def free_propagator(gamma, t) -> np.ndarray:
    """diag(e^{i gamma t}, e^{-i gamma t}): free evolution under H0."""
    return pauli_exponential(gamma * t, Z_AXIS)


def degenerate_propagator(alpha) -> np.ndarray:
    """exp(-i alpha sigma_x), the exact evolution of a degenerate pair.

    With no level splitting the coupling commutes with itself at all
    times, so only the integrated strength alpha matters.
    """
    return pauli_exponential(-alpha, X_AXIS)


def kick_integral(kicks: Sequence[tuple], lam, gamma):
    """z_lam = sum_k a_k e^{2 i lam gamma T_k} of kicks given as (a_k, T_k) pairs.

    The no-ordering exponent of ideal kicks in the frame lam (see
    `no_ordering_column`).  A completed gaussian of strength alpha and
    width beta = gamma tau enters the rotating frame (lam = 1) as
    a_k = alpha e^{-beta^2}, an ideal kick as a_k = alpha.  It also feeds the
    CSV series (`evolve.interaction_integral_series`), a_k 0 before T_k.
    """
    w = 2.0 * lam * gamma
    zr = zi = 0.0 * w
    for a, tk in kicks:
        zr = zr + a * np.cos(w * tk)
        zi = zi + a * np.sin(w * tk)
    return zr + 1j * zi


def no_ordering_column(z, lam: float, gamma: float, t):
    """First column (u11, u21) of exp(-i Omega_lam), the no-ordering evolution of frame lam.

    The frame splits -lam gamma sigma_z off H0; its averaged (first-order
    Magnus) exponent is Omega_lam = Re z sigma_x + Im z sigma_y
    - c sigma_z, c = (1 - lam) gamma t, z = int_0^t v e^{2 i lam gamma t'} dt'
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  With
    xi = sqrt(|z|^2 + c^2) the column is (cos(xi) + i c sin(xi)/xi,
    -i z sin(xi)/xi).  The frame factor e^{i lam gamma t sigma_z} is
    diagonal, so P2 = |u21|^2 in every frame.  z and t are arrays, one entry
    per time: each no-ordering CSV column of `propagate` is one call.
    """
    c = (1.0 - lam) * gamma * t
    xi = np.hypot(np.abs(z), c)
    s = _sinc(xi)
    return np.cos(xi) + 1j * c * s, -1j * z * s


def no_ordering(z, lam, gamma, t) -> np.ndarray:
    """exp(-i Omega_lam): `su2` of `no_ordering_column`, a matrix per entry of z and t.

    In the rotating frame one kick gives P2 = sin^2 a and a kick-antikick
    pair sin^2(2 a sin(gamma T_s)); in the bare frame a running strength
    alpha gives P2 = (alpha sin(xi)/xi)^2, xi = sqrt(alpha^2 + (gamma t)^2).
    """
    return su2(*no_ordering_column(z, lam, gamma, t))


def kick_sequence_propagator(kicks: Sequence[tuple], gamma, t) -> np.ndarray:
    """Exact evolution from 0 to t through ideal kicks (alpha_k, T_k).

    The kicks must be time-ordered inside [0, t): 0 <= T_1 <= T_2 <= ... < t,
    in every entry when alpha_k, T_k, gamma or t are arrays, and alpha_k,
    gamma and t must be finite.  Free evolution e^{i gamma dt sigma_z} and
    each kick e^{-i alpha_k sigma_x} are composed right to left in SU(2)
    form: each factor and the running product are [[p, -q*], [q, p*]], so
    only (p, q) is carried.  One kick gives
    [[e^{i gamma t} cos a, -i e^{i gamma (t - 2 T)} sin a], ...]; a
    kick-antikick pair gives P2 = sin^2(gamma T_s) sin^2(2 alpha).
    """
    _require_finite(gamma=gamma, t=t)
    p, q = 1.0 + 0.0j, 0.0j
    last = 0.0
    for alpha, tk in kicks:
        _require_finite(alpha_k=alpha)
        if not np.all((last <= tk) & (tk < t)):
            raise ValueError("kicks must be time-ordered inside [0, t)")
        f = _phase(gamma * (tk - last))
        c, s = np.cos(alpha), np.sin(alpha)
        # free factor (f, 0), then the kick (c, -i s)
        p, q = c * f * p - 1j * s * np.conj(f) * q, c * np.conj(f) * q - 1j * s * f * p
        last = tk
    f = _phase(gamma * (t - last))
    return su2(f * p, np.conj(f) * q)


def rectangular_propagator(alpha, beta, gamma, t_kick, t) -> np.ndarray:
    """Exact evolution for a rectangular pulse of area alpha centered at t_kick.

    beta = gamma tau encodes the width.  With a' = sqrt(alpha^2 + beta^2):
    diagonal e^{+-(i gamma t - i beta)} (cos a' +- i beta sin(a')/a'),
    off-diagonal -i e^{+-i gamma (t - 2 t_kick)} alpha sin(a')/a'.
    Valid when the pulse lies inside [0, t]; reduces to the kicked form at
    beta = 0.  Every argument must be finite.
    """
    _require_finite(alpha=alpha, beta=beta, gamma=gamma, t_kick=t_kick, t=t)
    ap = np.hypot(alpha, beta)
    s = _sinc(ap)
    pt, pk = _phase(gamma * t - beta), _phase(gamma * (t - 2.0 * t_kick))
    return su2(pt * (np.cos(ap) + 1j * beta * s), -1j * alpha * s * np.conj(pk))


def kick_correction_shape_factor(alpha: float, shape: PulseShape) -> float:
    """Shape factor g(alpha) of the leading finite-width correction.

    g(alpha) = (2/tau) int dt [cos^2(A(t)) - cos^2(alpha/2)] where A(t) is
    the coupling integrated from the pulse center.  Rectangular pulses give
    sin(alpha)/alpha - cos(alpha) in closed form; the gaussian factor is
    `pulses.gauss_legendre` of cos(2 A(s)) - cos(alpha) over [-9, 9], with A
    from `Pulse.integral` of a unit-width gaussian (erf(9) is 1.0).  alpha
    must be finite.
    """
    _require_finite(alpha=alpha)
    if shape is PulseShape.RECTANGULAR:
        return float(_sinc(alpha)) - math.cos(alpha)
    if shape is PulseShape.GAUSSIAN:
        # 2 [cos^2(A) - cos^2(alpha/2)] = cos(2 A) - cos(alpha)
        unit, cos_alpha = gaussian(alpha, 1.0, 0.0), math.cos(alpha)
        return gauss_legendre(lambda s: np.cos(2.0 * unit.integral(0.0, s)) - cos_alpha, [-9.0, 0.0, 9.0])
    raise ValueError("shape factor defined for rectangular and gaussian pulses")


def kick_correction_leading(
    alpha: float, beta: float, gamma: float, t: float, shape: PulseShape
) -> np.ndarray:
    """Leading O(beta) error of the kicked approximation for a narrow pulse.

    i beta g(alpha) diag(e^{i gamma t}, -e^{-i gamma t}); the numbers must be finite.
    """
    _require_finite(alpha=alpha, beta=beta, gamma=gamma, t=t)
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


def adiabatic_phase(pulses: PulseSequence, params: SystemParams, t: float) -> AdiabaticPhase:
    """Accumulated dressed phase and endpoint mixing angles.

    theta is `pulses.gauss_legendre` over sqrt(gamma^2 + v^2), split at every
    pulse window edge and center inside (0, t).
    """
    gamma = params.gamma
    v0, vt = envelope_array(pulses, [0.0, t]).tolist()  # a kick raises here, on either branch
    if gamma == 0.0:
        # H = v sigma_x commutes with itself: exactly exp(-i theta sigma_x),
        # whether or not v underflows to 0 at the endpoints
        theta = integrated_strength(pulses, 0.0, t) if t >= 0.0 else -integrated_strength(pulses, t, 0.0)
        return AdiabaticPhase(theta=theta, phi_0=0.5 * math.pi, phi_t=0.5 * math.pi)
    breakpoints = sorted(
        {x for p in pulses for x in p.window() if 0.0 < x < t}
        | {p.center for p in pulses if 0.0 < p.center < t}
    )
    theta = gauss_legendre(
        lambda x: np.sqrt(gamma * gamma + envelope_array(pulses, x) ** 2), [0.0, *breakpoints, t]
    )
    return AdiabaticPhase(theta=theta, phi_0=math.atan2(v0, gamma), phi_t=math.atan2(vt, gamma))


def adiabatic_propagator(pulses: PulseSequence, params: SystemParams, t: float) -> np.ndarray:
    """Evolution for a slowly varying coupling.

    Built from the instantaneous splitting Omega(t')/hbar =
    2 sqrt(gamma^2 + v^2), the accumulated phase theta = int Omega/2hbar,
    and the mixing angles phi(t') = atan(v/gamma) at the endpoints, through
    their half sum and half difference.
    """
    phase = adiabatic_phase(pulses, params, t)
    fp, fm = 0.5 * (phase.phi_t + phase.phi_0), 0.5 * (phase.phi_t - phase.phi_0)
    ct, st = math.cos(phase.theta), math.sin(phase.theta)
    return su2(ct * math.cos(fm) + 1j * st * math.cos(fp), -ct * math.sin(fm) - 1j * st * math.sin(fp))


@dataclass(frozen=True)
class FloquetResult:
    """One-period eigenphase chi in [0, pi] and the matched eigenvectors.

    The one-period matrix has eigenvalues e^{+i chi} and e^{-i chi};
    eigenvectors are listed in that order, normalized with their first
    significant component made real and positive.  For array input every
    field holds one entry per point: chi (...,) and each eigenvector (..., 2).
    """

    chi: float | np.ndarray
    eigenvectors: tuple[np.ndarray, np.ndarray]


def floquet_eigenphases(alpha, gamma_period) -> FloquetResult:
    """Eigenphases and eigenvectors of one period of a periodically kicked system.

    The period is a kick of strength alpha followed by free evolution
    accumulating phase gamma_period: M = cos(chi) 1 + i sin(chi) n.sigma with
    chi = arccos(cos alpha cos gamma_period) on the principal branch and
    sin(chi) n = (-cos(gamma_period) sin(alpha), sin(gamma_period) sin(alpha),
    sin(gamma_period) cos(alpha)).  The +1 eigenvector of n.sigma, that of
    e^{+i chi}, is (1 + n_z, n_+) or (conj n_+, 1 - n_z), n_+ = n_x + i n_y,
    whichever has no cancellation; `su2` completes it with the orthogonal
    -1 eigenvector.  Where M = +-1 any basis is valid, and n = z gives the
    standard one.
    """
    _require_finite(alpha=alpha, gamma_period=gamma_period)
    cg, sg, ca, sa = np.cos(gamma_period), np.sin(gamma_period), np.cos(alpha), np.sin(alpha)
    chi = np.arccos(np.clip(ca * cg, -1.0, 1.0))
    mx, my, mz = -cg * sa, sg * sa, sg * ca
    r = np.sqrt(mx * mx + my * my + mz * mz)  # sin(chi), 0 only where M = +-1
    safe = np.where(r > 0.0, r, 1.0)
    nz, n_plus = np.where(r > 0.0, mz / safe, 1.0), (mx + 1j * my) / safe
    k = 1.0 + np.abs(nz)
    up, norm = nz >= 0.0, np.hypot(k, np.abs(n_plus))
    vectors = su2(np.where(up, k, np.conj(n_plus)) / norm, np.where(up, n_plus, k) / norm)
    # columns v+ and v-, each with its first significant component made real and positive
    lead = np.where(np.abs(vectors[..., 0, :]) > 1e-12, vectors[..., 0, :], vectors[..., 1, :])
    vectors *= (np.conj(lead) / np.abs(lead))[..., None, :]
    v_plus, v_minus = vectors[..., 0], vectors[..., 1]
    return FloquetResult(chi=chi, eigenvectors=(v_plus, v_minus))
