"""Fixed-step RK4 integration of the driven two-state Schrodinger equation.

The amplitudes evolve under H/hbar = -gamma sigma_z + v(t) sigma_x:

    da1/dt = +i gamma a1 - i v(t) a2
    da2/dt = -i gamma a2 - i v(t) a1

The step is fixed (no adaptivity) for reproducibility; the default
resolves both the pulse width and the free oscillation.  Integration is
split at rectangular pulse edges so the stepper never crosses a
discontinuity, and ideal kicks inside a sequence are applied as exact
matrix factors exp(-i alpha sigma_x) between segments rather than being
discretized.  `rk4_evolve` records the state only at the times it is
given, one row per requested time.  `rk4_propagator` integrates one basis
state per call: the Hamiltonian is traceless and Hermitian, so the second
column of the propagator is the SU(2) completion of the first.

The stepping kernel `_rk4_span` writes the RK4 step once, in `_step_map`,
as the SU(2) map [[1 + d, -q*], [q, 1 + d*]] with the identity kept apart.
A composer multiplies a block of at most BLOCK such maps into one, and the
state is updated once per block: `_block_map` builds and multiplies them
pairwise with numpy for segments of SMALL or more steps, `_short_map` one
at a time for the short segments a dense sampling grid cuts.  Both call
the scalar envelope closure three times per step, at the step's start,
midpoint and end, on the same floats.  The end of one step is the start of
the next, so one call in three repeats a value; it is kept because
perfbench counts three envelope calls per step.

This module also provides numerically constructed "no time ordering"
evolutions in both frames; they serve as independent cross-checks of the
closed forms in `propagators`.  Both exponentiate with scipy's `expm`.  The
rotating-frame one takes its exponent from `interaction_integral`, which
integrates each pulse window by QUADPACK's Fourier-weighted QAWO rule.
scipy is imported inside these three routes, so the integrator's import
stays numpy-only.  `interaction_integral_series` is the cheap cumulative
trapezoid behind the no-ordering CSV columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pulses import (
    PulseSequence,
    PulseShape,
    SystemParams,
    envelope,
    envelope_array,
    integrated_strength,
)
from .su2 import SIGMA_X, SIGMA_Y, SIGMA_Z, NonUnitaryError, norm_defect, unitarity_defect

#: Ceiling on the RK4 steps of one rk4_evolve call, checked before stepping:
#: with a gaussian pair about 20 s of work in long segments, and about a
#: minute when record times cut the span into segments shorter than SMALL.
MAX_RK4_STEPS = 10_000_000
#: Segments of at least SMALL steps run block by block through numpy step
#: maps (a block's fixed cost, about 150 us, is repaid from about 60 steps
#: on); BLOCK caps a block's length, and so the arrays one segment allocates.
SMALL = 64
BLOCK = 4096


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float | None = None  # fixed step in ps; None = resolve pulse and Rabi scales
    unitarity_tolerance: float = 1e-8

    def resolve_dt(self, pulses: PulseSequence, params: SystemParams, span: float) -> float:
        if self.dt is not None:
            if not (self.dt > 0.0 and math.isfinite(self.dt)):
                raise ValueError("dt must be positive and finite")
            return self.dt
        candidates = [p.tau / 50.0 for p in pulses if p.shape is not PulseShape.IDEAL_KICK]
        if math.isfinite(params.rabi_time):
            candidates.append(params.rabi_time / 2000.0)
        if not candidates:
            candidates.append(span / 1000.0)
        return min(candidates)


@dataclass
class TimeSeries:
    """Sampled trajectory: times (ps), the amplitude pair at each time, the work done."""

    times: np.ndarray
    states: np.ndarray  # shape (n, 2) complex
    dt: float  # resolved RK4 step in ps
    steps: int  # RK4 steps taken, summed over the segments
    segments: int  # uniform-step segments integrated

    @property
    def p1(self) -> np.ndarray:
        return np.abs(self.states[:, 0]) ** 2

    @property
    def p2(self) -> np.ndarray:
        return np.abs(self.states[:, 1]) ** 2

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _rk4_span(
    v,
    v_const: float,
    gamma: float,
    a1: complex,
    a2: complex,
    t0: float,
    t1: float,
    n: int,
):
    """n uniform RK4 steps of the two coupled amplitude equations.

    v is the smooth part of the coupling; v_const carries the rectangular
    contribution, constant within a segment, so that evaluations at the
    segment boundaries never see the wrong side of a discontinuity.

    Each block of at most BLOCK steps becomes one map (d, q) that updates
    the state once: _block_map builds it from SMALL steps on, _short_map
    below, both calling v at the same floats in the same order.
    """
    h = (t1 - t0) / n
    ig = 1j * gamma
    compose = _block_map if n >= SMALL else _short_map
    t = t0
    while n > 0:
        m = min(n, BLOCK)
        d, q, t = compose(v, v_const, ig, t, h, m)
        a1, a2 = a1 + (d * a1 - q.conjugate() * a2), a2 + (q * a1 + d.conjugate() * a2)
        n -= m
    return a1, a2


def _step_map(ig, h: float, ivt, ivm, ive):
    """One RK4 step as the map [[1 + d, -q*], [q, 1 + d*]]; returns (d, q).

    The matrix is a real combination of 1 and i sigma_{x,y,z}, so the step
    run on the column (1, 0) gives it whole.  ivt, ivm and ive are i v at the
    step's start, midpoint and end: scalars, or arrays with one per step.
    """
    half, sixth, mig = 0.5 * h, h / 6.0, -ig
    k1a = ig
    k1b = -ivt
    x1 = 1.0 + half * k1a
    x2 = half * k1b
    k2a = ig * x1 - ivm * x2
    k2b = mig * x2 - ivm * x1
    x1 = 1.0 + half * k2a
    x2 = half * k2b
    k3a = ig * x1 - ivm * x2
    k3b = mig * x2 - ivm * x1
    x1 = 1.0 + h * k3a
    x2 = h * k3b
    k4a = ig * x1 - ive * x2
    k4b = mig * x2 - ive * x1
    return sixth * (k1a + 2.0 * (k2a + k3a) + k4a), sixth * (k1b + 2.0 * (k2b + k3b) + k4b)


def _short_map(v, v_const: float, ig: complex, t: float, h: float, m: int):
    """_block_map's (d, q, t) for m steps, composed one step at a time."""
    for k in range(m):
        dl, ql = _step_map(
            ig, h, 1j * (v(t) + v_const), 1j * (v(t + 0.5 * h) + v_const), 1j * (v(t + h) + v_const)
        )
        if k:  # the later step on the left
            d, q = dl + d + (dl * d - ql.conjugate() * q), ql + q + (ql * d + dl.conjugate() * q)
        else:
            d, q = dl, ql
        t += h
    return d, q, t


def _block_map(v, v_const: float, ig: complex, t: float, h: float, m: int):
    """m RK4 steps from time t as one map (d, q), multiplied pairwise.

    The identity is kept apart: rounding 1 + d at every step would repeat
    the same error over a stretch of equal steps.  Returns (d, q, the time
    after the last step).
    """
    times = np.full(m + 1, h)
    times[0] = t
    times = np.add.accumulate(times)  # sequential: _short_map's t += h, bit for bit
    tk = times[:m]
    grid = np.stack([tk, tk + 0.5 * h, tk + h], axis=1).ravel().tolist()
    iv = 1j * (np.fromiter(map(v, grid), float, count=3 * m).reshape(m, 3) + v_const)
    d, q = _step_map(ig, h, iv[:, 0], iv[:, 1], iv[:, 2])
    # pairwise product, later steps on the left; an odd last map waits a round
    while d.size > 1:
        e = d.size // 2 * 2
        de, qe, dl, ql = d[0:e:2], q[0:e:2], d[1:e:2], q[1:e:2]
        dd = dl + de + (dl * de - ql.conj() * qe)
        qq = ql + qe + (ql * de + dl.conj() * qe)
        if e < d.size:
            dd, qq = np.append(dd, d[-1]), np.append(qq, q[-1])
        d, q = dd, qq
    return complex(d[0]), complex(q[0]), float(times[m])


def _apply_kick(alpha: float, a1: complex, a2: complex):
    c, s = math.cos(alpha), math.sin(alpha)
    return c * a1 - 1j * s * a2, -1j * s * a1 + c * a2


def rk4_evolve(
    pulses: PulseSequence,
    params: SystemParams,
    initial,
    t0: float,
    t1: float,
    cfg: IntegratorConfig | None = None,
    *,
    record_times,
) -> TimeSeries:
    """Integrate from t0 to t1, recording the state at each requested time.

    record_times must be non-decreasing and inside [t0, t1]; the series
    has one row per requested time, repeats included, and a kick at a
    requested time is applied before that row.  The final norm is checked
    against the configured tolerance; exceeding it raises with advice to
    lower dt.  A run that would take more than MAX_RK4_STEPS steps raises
    ValueError before any stepping.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    cfg = cfg or IntegratorConfig()
    dt = cfg.resolve_dt(pulses, params, max(t1 - t0, 1e-12))
    smooth = [p for p in pulses if p.shape is PulseShape.GAUSSIAN]
    rects = [(p.peak, *p.window()) for p in pulses if p.shape is PulseShape.RECTANGULAR]
    v = envelope(smooth) if smooth else (lambda _t: 0.0)

    # kicks grouped by time; rectangular edges become integration breakpoints
    kicks: dict[float, float] = {}
    for p in pulses:
        if p.shape is PulseShape.IDEAL_KICK and t0 <= p.center <= t1:
            kicks[p.center] = kicks.get(p.center, 0.0) + p.alpha
    edges = {e for _, lo, hi in rects for e in (lo, hi) if t0 < e < t1}

    times = np.asarray(record_times, dtype=float)
    if times.size and (times[0] < t0 - 1e-12 or times[-1] > t1 + 1e-12):
        raise ValueError("record times must lie inside [t0, t1]")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("record times must be non-decreasing")
    marks = np.clip(times, t0, t1).tolist()

    stops = sorted(set(kicks) | edges | {t0, t1} | set(marks))
    # each stop can round one segment up by at most a step
    budget = (t1 - t0) / dt + len(stops)
    if budget > MAX_RK4_STEPS:
        raise ValueError(
            f"dt={dt:g} over {t1 - t0:g} ps needs up to {budget:.3g} RK4 steps, "
            f"more than the {MAX_RK4_STEPS:.0e} allowed; use a larger dt"
        )
    a1, a2 = complex(initial[0]), complex(initial[1])
    states: list[tuple[complex, complex]] = []
    j = steps = segments = 0
    # the leading (t0, t0) pair applies a kick at t0 and records t0 without stepping
    for lo, hi in zip([t0] + stops[:-1], stops):
        if hi > lo:
            mid = 0.5 * (lo + hi)
            v_const = sum(amp for amp, rlo, rhi in rects if rlo < mid < rhi)
            n = max(1, math.ceil((hi - lo) / dt))
            a1, a2 = _rk4_span(v, v_const, params.gamma, a1, a2, lo, hi, n)
            steps += n
            segments += 1
        if hi in kicks:
            a1, a2 = _apply_kick(kicks[hi], a1, a2)
        while j < len(marks) and marks[j] == hi:
            states.append((a1, a2))
            j += 1

    series = TimeSeries(
        times=times,
        states=np.array(states, dtype=complex).reshape(-1, 2),
        dt=dt,
        steps=steps,
        segments=segments,
    )
    if norm_defect(np.asarray(initial, dtype=complex)) < 1e-12:
        final_defect = norm_defect(np.array([a1, a2]))
        if not final_defect <= cfg.unitarity_tolerance:
            raise NonUnitaryError(
                f"norm drifted by {final_defect:.3e} during integration; reduce dt"
            )
    return series


def rk4_propagator(
    pulses: PulseSequence,
    params: SystemParams,
    t0: float,
    t1: float,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """Propagator over [t0, t1] from evolving the first basis state.

    H is traceless and Hermitian, so U = [[a, -b*], [b, a*]]: the second
    column is the SU(2) completion of the first.  Each RK4 step keeps
    that form, so the completion equals integrating (0, 1) exactly.
    """
    cfg = cfg or IntegratorConfig()
    a, b = rk4_evolve(pulses, params, (1.0, 0.0), t0, t1, cfg, record_times=[t1]).final_state()
    # 0.0 - conj(b), not -conj(b): a zero b completes to +0, as integrating (0, 1) gives
    u = np.array([[a, 0.0 - np.conj(b)], [b, np.conj(a)]])
    defect = unitarity_defect(u)
    if not defect <= cfg.unitarity_tolerance:
        raise NonUnitaryError(
            f"integrated propagator unitarity defect {defect:.3e}; reduce dt"
        )
    return u


def no_ordering_schrodinger_numeric(
    pulses: PulseSequence, params: SystemParams, t: float
) -> np.ndarray:
    """Matrix exponential of the time-averaged bare-frame Hamiltonian.

    exp(-i (H0 + vbar sigma_x) t) with vbar the running mean of the
    coupling over [0, t]; evaluated with scipy's expm as an independent
    route to the closed form.
    """
    if t == 0.0:
        return np.eye(2, dtype=complex)
    from scipy.linalg import expm

    alpha_running = integrated_strength(pulses, 0.0, t)
    h_mean = -params.gamma * SIGMA_Z + (alpha_running / t) * SIGMA_X
    return expm(-1j * h_mean * t)


def interaction_integral(pulses: PulseSequence, params: SystemParams, t: float) -> complex:
    """z = int_0^t v(t') e^{2 i gamma t'} dt', the rotating-frame coupling integral.

    Kicks contribute exact jumps alpha e^{2 i gamma t_kick}.  Each finite
    pulse's window, clipped to [0, t], is integrated by QUADPACK's QAWO
    routine (scipy's quad with weight 'cos' and 'sin' at frequency
    2 gamma), which builds the oscillating factor into its rule.
    """
    from scipy.integrate import quad

    w = 2.0 * params.gamma
    z = 0.0 + 0.0j
    for p in pulses:
        if p.shape is PulseShape.IDEAL_KICK:
            if 0.0 <= p.center <= t:
                z += p.alpha * complex(math.cos(w * p.center), math.sin(w * p.center))
            continue
        lo, hi = p.window()
        lo, hi = max(lo, 0.0), min(hi, t)
        if hi <= lo:
            continue
        v = envelope([p])
        re = quad(v, lo, hi, weight="cos", wvar=w)[0]
        im = quad(v, lo, hi, weight="sin", wvar=w)[0]
        z += complex(re, im)
    return z


def no_ordering_interaction_numeric(
    pulses: PulseSequence,
    params: SystemParams,
    t: float,
) -> np.ndarray:
    """exp(-i (Re z sigma_x + Im z sigma_y)) with z from interaction_integral, by expm."""
    from scipy.linalg import expm

    z = interaction_integral(pulses, params, t)
    return expm(-1j * (z.real * SIGMA_X + z.imag * SIGMA_Y))


def interaction_integral_series(
    pulses: PulseSequence,
    params: SystemParams,
    t0: float,
    times: np.ndarray,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """Cumulative int_{t0}^t v(t') e^{2 i gamma t'} dt' at each requested time t >= t0.

    Trapezoid on a fine grid that includes the requested times; meant for
    emitting whole no-ordering columns cheaply.  Kicks at or after t0 enter
    as steps.
    """
    cfg = cfg or IntegratorConfig()
    times = np.asarray(times, dtype=float)
    t_max = float(times[-1]) if times.size else t0
    smooth = [p for p in pulses if p.shape is not PulseShape.IDEAL_KICK]
    dt = cfg.resolve_dt(pulses, params, max(t_max - t0, 1e-12)) / 2.0
    grid = np.unique(np.concatenate([np.arange(t0, t_max, dt), times, [t0]]))
    if smooth:
        vals = envelope_array(smooth, grid) * np.exp(2j * params.gamma * grid)
        increments = 0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)
        cumulative = np.concatenate([[0.0 + 0.0j], np.cumsum(increments)])
    else:
        cumulative = np.zeros_like(grid, dtype=complex)
    idx = np.searchsorted(grid, times)
    out = cumulative[idx]
    for p in pulses:
        if p.shape is PulseShape.IDEAL_KICK and p.center >= t0:
            jump = p.alpha * np.exp(2j * params.gamma * p.center)
            out = out + np.where(times >= p.center, jump, 0.0)
    return out

