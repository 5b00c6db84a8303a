"""Fixed-step RK4 integration of the driven two-state Schrodinger equation.

The amplitudes evolve under H/hbar = -gamma sigma_z + v(t) sigma_x:

    da1/dt = +i gamma a1 - i v(t) a2
    da2/dt = -i gamma a2 - i v(t) a1

The step is fixed (no adaptivity) for reproducibility; the default
resolves both the pulse width and the free oscillation.  `rk4_propagator`
integrates one basis state: H is traceless and Hermitian, so the second
column of the propagator is the SU(2) completion of the first.

`rk4_evolve` records the state at each requested time in three passes.
Plan: the segments between consecutive stops (kicks, rectangle edges, so
that no step crosses a discontinuity, the span ends and the record times)
get, as arrays, a step count n = max(1, ceil(length / dt)), a step and a
rectangular coupling.  Compose: each segment becomes one SU(2) map
[[1 + d, -q*], [q, 1 + d*]], identity kept apart, times the exact map
exp(-i alpha sigma_x) of a kick at its end.  `_block_map`, the one
composer, writes each RK4 step as such a map, the four stages multiplied
out into one real polynomial for each part of d and q (`_step_map`), and
multiplies a row's maps pairwise.  Only a sequence with a gaussian has a
smooth coupling, a function of the grid of each step's start, midpoint and
end; rectangles and kicks alone enter through the rectangular coupling and
the kick maps, and then a segment's steps are all one map, whose product
takes log2 m passes.  A segment of SMALL or more steps runs through
`_rk4_span` block by block, and reads the scalar closure `pulses.envelope`
point by point (kept only for the benchmark's count of its calls; see
`_rk4_span`); shorter ones are grouped by step count as rows and read
`envelope_array`, one call a group.  Prefix
products: a Hillis-Steele scan over a chunk's maps (`_prefix_maps`) gives
the state at every segment end, with no Python loop per segment or row.

This module also provides the numeric "no time ordering" evolution,
`no_ordering_numeric`, an independent cross-check of the closed form in
`propagators` for either frame: lam = 0 (bare) or lam = 1 (rotating).
It is two parts.  The exponent comes from `interaction_integral`, one
sample at a time, which integrates each pulse window by
`pulses.gauss_legendre`, one composite Gauss-Legendre rule with two panels
for each pi of phase at frequency 2 lam gamma, which returns its value
alone.  `spectral_exponential` exponentiates the Hermitian exponent through
its spectral decomposition (numpy's `eigh`), not through the closed
rotation, and takes a whole stack of exponents in one `eigh` call, so
`validate` exponentiates each pass of samples at once.  The module needs
numpy only.  `interaction_integral_series`, behind the rotating-frame
no-ordering CSV column, takes kicks and rectangles exactly and gaussians by
a trapezoid at half the RK4 step that `check_step_budget` resolved for the
trajectory.
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
    gauss_legendre,
)
from .su2 import SIGMA_X, SIGMA_Y, SIGMA_Z, UNITARITY_TOLERANCE, NonUnitaryError, norm_defect, su2

#: Ceiling on the RK4 steps of one rk4_evolve call, checked before stepping
#: (with a gaussian pair about 20 s of work).  It also caps scenario
#: n_points and floquet COUNT.
MAX_RK4_STEPS = 10_000_000
#: A segment of at least SMALL steps runs alone through _rk4_span (where
#: perfbench's tracer counts steps and the scalar closure is evaluated) in
#: blocks of up to BLOCK steps; shorter ones are grouped by step count into
#: _block_map calls that evaluate envelope_array once, of up to BLOCK steps
#: with a gaussian, BLOCK // 2 segments a chunk, so every array stays small.
SMALL = 64
BLOCK = 4096


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float | None = None  # fixed step in ps; None: check_step_budget resolves it
    unitarity_tolerance: float = UNITARITY_TOLERANCE


@dataclass
class TimeSeries:
    """Sampled trajectory: times (ps), the amplitude pair at each time, the work done."""

    times: np.ndarray
    states: np.ndarray  # shape (n, 2) complex
    dt: float  # resolved RK4 step in ps
    steps: int  # RK4 steps taken, summed over the segments
    segments: int  # uniform-step segments integrated

    @property
    def p2(self) -> np.ndarray:
        return np.abs(self.states[:, 1]) ** 2

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _rk4_span(v, v_const: float, gamma: float, t0: float, t1: float, n: int):
    """The map (d, q) of n uniform RK4 steps, a _block_map row per block of at most BLOCK.

    v is the smooth part of the coupling as a scalar closure, None if there
    is none; v_const carries the rectangular contribution, constant within a
    segment, so that evaluations at the segment boundaries never see the
    wrong side of a discontinuity.
    """
    # The scalar closure, called three times a step in grid order, stays here
    # only because perfbench pins it: test_counts_repeat_exactly_between_traced_runs
    # asserts pulses.envelope.evals == 3 * steps on sep-overlap, and
    # run.envelope_ns_per_eval times it.  Once those count evaluation points
    # (ROADMAP item 1), passing envelope_array here is a one-argument change
    # (item 2) and the closure goes (item 14).
    coupling = None if v is None else (
        lambda grid: np.fromiter(map(v, grid.ravel().tolist()), float, count=grid.size).reshape(grid.shape)
    )
    t, h, c = np.array([t0]), np.array([(t1 - t0) / n]), np.array([v_const], dtype=float)
    d = q = 0j
    while n > 0:
        m = min(n, BLOCK)
        db, qb, t = _block_map(coupling, c, gamma, t, h, m)
        d, q = _compose(complex(db[0]), complex(qb[0]), d, q)
        n -= m
    return d, q


def _compose(dl, ql, de, qe):
    """The map (dl, ql) after (de, qe), for scalars or arrays of maps (d, q)."""
    return dl + de + (dl * de - ql.conjugate() * qe), ql + qe + (ql * de + dl.conjugate() * qe)


def _prefix_maps(d, q):
    """Inclusive prefix products, in place: entry k becomes map k after ... after map 0.

    Hillis-Steele scan (Commun. ACM 29, 1170 (1986)): pass p composes each
    entry with the one 2^p places earlier, ceil(log2 L) array passes.
    """
    k = 1
    while k < d.size:
        d[k:], q[k:] = _compose(d[k:], q[k:], d[:-k], q[:-k])
        k *= 2
    return d, q


def _step_map(g, h, vt, vm, ve):
    """One RK4 step as the map [[1 + d, -q*], [q, 1 + d*]]; returns (d, q).

    The step of da/dt = A(t) a, A = i (g sigma_z - v sigma_x), with A1, A2
    and A3 at the step's start, midpoint and end, multiplies out to
    1 + (h/6)(A1 + 4 A2 + A3) + (h^2/6)(A2 A1 + A2^2 + A3 A2)
    + (h^3/12)(A2^2 A1 + A3 A2^2) + (h^4/24) A3 A2^2 A1, and A2^2 = -s with
    s = g^2 + vm^2, so each of Re d, Im d, Re q and Im q is one real
    polynomial in g, h and the couplings vt, vm and ve, written straight
    into the parts of two complex arrays.  The identity stays apart: Re d
    is never formed as 1 + d.  g is a float; h broadcasts against vt, vm, ve.
    """
    g2, h2, e = g * g, h * h, vt + ve
    hs = h2 * (g2 + vm * vm)  # h^2 s
    d = np.empty(np.broadcast(h, vt, vm, ve).shape, complex)
    q = np.empty_like(d)
    d.real = h2 * (hs * (g2 + vt * ve) / 24.0 - (3.0 * g2 + vm * (e + vm)) / 6.0)
    d.imag = h * g * (1.0 - hs / 6.0)
    q.imag = h * (hs * e / 12.0 - (e + 4.0 * vm) / 6.0)
    q.real = g * (ve - vt) * h2 * (1.0 / 6.0 - hs / 24.0)
    return d, q


def _block_map(v, v_const, gamma: float, t, h, m: int):
    """m RK4 steps of h[r] from t[r] as one map per row r, multiplied pairwise.

    v maps the (rows, m, 3) grid of each step's start, midpoint and end to
    a new array of the smooth coupling there, in one call, and v_const is
    added into it; every row is composed as it would be alone.  With v None the coupling
    is v_const alone, so a row's steps are one map a: each level of the
    pairwise product holds copies of a and one last entry b, and log2 m
    passes over (rows,) arrays give the bits of the general product, with no
    m-long array of maps.  The identity is kept apart: rounding 1 + d at
    every step would repeat the same error over a stretch of equal steps.
    Returns the arrays (d, q, the time after each row's last step); with v
    None no time is read, so none is built and the third entry is None.
    """
    rows, h = h.size, h[:, None]
    if v is None:  # a zero closure's bits: 0.0 + c == c, and v_const holds no -0.0
        # width w: an odd one pads b with the identity, an even one pairs b with a
        one, w = np.zeros(rows, dtype=complex), m
        with np.errstate(over="ignore", invalid="ignore"):
            a = b = _step_map(gamma, h[:, 0], v_const, v_const, v_const)
            while w > 1:
                b = _compose(one, one, *b) if w % 2 else _compose(*b, *a)
                a, w = _compose(*a, *a), (w + 1) // 2
        return (*b, None)
    times = np.add.accumulate(np.hstack([t[:, None], h.repeat(m, axis=1)]), axis=1)  # t += h, in order
    tk = times[:, :m]  # each step's end, times[:, 1:], is tk + h bit for bit
    grid = np.stack([tk, tk + 0.5 * h, times[:, 1:]], axis=2)
    vs = v(grid)
    vs += v_const[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # the norm guard rejects a NaN
        d, q = _step_map(gamma, h, vs[..., 0], vs[..., 1], vs[..., 2])
        # pairwise product, later steps on the left, over the flat rows; an odd
        # width w gets an identity column, whose products are exact
        d, q, w = d.ravel(), q.ravel(), m
        while w > 1:
            if w % 2:
                one, w = np.zeros((rows, 1), dtype=complex), w + 1
                d, q = (np.hstack([x.reshape(rows, -1), one]).ravel() for x in (d, q))
            d, q = _compose(d[1::2], q[1::2], d[0::2], q[0::2])
            w //= 2
    return d, q, times[:, m]


def _stops(*parts):
    """The distinct values of the parts, ascending, in one numpy sort.

    The same floats as np.array(sorted(set(chain(*parts)))): a stable sort
    keeps the first of equal values (0.0 before a later -0.0) in front.
    """
    s = np.sort(np.concatenate(parts), kind="stable")
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def check_step_budget(
    pulses: PulseSequence, params: SystemParams, t0: float, t1: float, cfg: IntegratorConfig,
    records: int, fewer: str = "record fewer times",
) -> float:
    """The RK4 step of cfg, once [t0, t1] with this many record times fits MAX_RK4_STEPS.

    A given cfg.dt must be positive and finite.  None resolves to the
    smallest of tau / 50 over the finite pulses and the Rabi time / 2000,
    else to a thousandth of the span.  Each stop after t0 can round one
    segment up by a step: t1, each record time, and at most two a pulse (a
    kick, a rectangle's edges).
    """
    dt = cfg.dt
    if dt is None:
        candidates = [p.tau / 50.0 for p in pulses if p.shape is not PulseShape.IDEAL_KICK]
        if math.isfinite(params.rabi_time):
            candidates.append(params.rabi_time / 2000.0)
        dt = min(candidates or [max(t1 - t0, 1e-12) / 1000.0])
    elif not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    span_steps = (t1 - t0) / dt
    if not span_steps <= MAX_RK4_STEPS:
        raise ValueError(
            f"dt={dt:g} over {t1 - t0:g} ps needs {span_steps:.3g} RK4 steps, "
            f"more than the {MAX_RK4_STEPS} allowed; use a larger dt"
        )
    bound = math.ceil(span_steps) + 2 * len(pulses) + 1 + records
    if bound > MAX_RK4_STEPS:
        raise ValueError(
            f"dt={dt:g} over {t1 - t0:g} ps with {records} record times needs up to {bound} "
            f"RK4 steps, more than the {MAX_RK4_STEPS} allowed; "
            + ("use a larger dt" if span_steps >= records else fewer)
        )
    return dt


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
    requested time is applied before that row.  The final norm, relative to
    the initial one (a zero state has nothing to check), must hold to the
    configured tolerance; else, or on a NaN, it raises with advice to lower
    dt.  A run that check_step_budget refuses raises ValueError before any
    stepping.
    """
    if not t1 >= t0:  # refuses a NaN end
        raise ValueError("t1 must be >= t0")
    cfg = cfg or IntegratorConfig()
    times = np.asarray(record_times, dtype=float)
    dt = check_step_budget(pulses, params, t0, t1, cfg, times.size)
    if not ((t0 - 1e-12 <= times) & (times <= t1 + 1e-12)).all():  # and a NaN time
        raise ValueError("record times must lie inside [t0, t1]")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("record times must be non-decreasing")
    smooth = [p for p in pulses if p.shape is PulseShape.GAUSSIAN]
    rects = [(p.peak, *p.window()) for p in pulses if p.shape is PulseShape.RECTANGULAR]
    # long spans take the scalar closure (see _rk4_span), short rows the array envelope
    v = envelope(smooth) if smooth else None
    v_rows = (lambda grid: envelope_array(smooth, grid)) if smooth else None

    # kicks (summed at a shared time) and rectangular edges are breakpoints
    kicks = [p for p in pulses if p.shape is PulseShape.IDEAL_KICK and t0 <= p.center <= t1]
    edges = [e for _, lo, hi in rects for e in (lo, hi) if t0 < e < t1]
    marks = np.clip(times, t0, t1)

    # plan: one uniform-step segment between each pair of consecutive stops
    stops = _stops([t0, t1], [p.center for p in kicks], edges, marks)
    lo, hi = stops[:-1], stops[1:]
    n = np.maximum(1, np.ceil((hi - lo) / dt)).astype(np.int64)
    v_const = np.zeros(n.size)
    for amp, rlo, rhi in rects:  # a rectangle is on where it covers the segment's midpoint
        mid = 0.5 * (lo + hi)
        v_const += np.where((rlo < mid) & (mid < rhi), amp, 0.0)

    # the state (a1, a2) after each stop, kept as the map (a1 - 1, a2) whose first
    # column it is: prefix products of a chunk's maps (one a segment, times
    # exp(-i alpha sigma_x) of the kick ending it) after the state carried in
    sd, sq = np.empty(stops.size, complex), np.empty(stops.size, complex)
    sd[0], sq[0] = complex(initial[0]) - 1.0, complex(initial[1])
    if kicks:  # alpha = 0 (the identity) at a stop without a kick
        at = np.searchsorted(stops, [p.center for p in kicks])
        alpha = np.bincount(at, [p.alpha for p in kicks], stops.size)
        kick_d, kick_q = -2.0 * np.sin(0.5 * alpha) ** 2 + 0j, -1j * np.sin(alpha)
        sd[0], sq[0] = _compose(kick_d[0], kick_q[0], sd[0], sq[0])
    for s in range(0, hi.size, BLOCK // 2):
        a, b, m, c = (x[s : s + BLOCK // 2] for x in (lo, hi, n, v_const))
        d, q, h = np.empty(m.size, complex), np.empty(m.size, complex), (b - a) / m
        # short rows of k steps, up to BLOCK steps a call (np.unique would load numpy.ma);
        # with no envelope a row holds no array of steps, so one call takes them all
        for k in sorted(k for k in set(m.tolist()) if k < SMALL):
            same = np.flatnonzero(m == k)
            width = same.size if v_rows is None else BLOCK // k
            for r in range(0, same.size, width):
                i = same[r : r + width]
                d[i], q[i], _ = _block_map(v_rows, c[i], params.gamma, a[i], h[i], k)
        for i in np.flatnonzero(m >= SMALL).tolist():
            ci, ai, bi, mi = (x[i].item() for x in (c, a, b, m))
            d[i], q[i] = _rk4_span(v, ci, params.gamma, ai, bi, mi)
        ends = slice(s + 1, s + 1 + m.size)
        if kicks:
            d, q = _compose(kick_d[ends], kick_q[ends], d, q)
        d[0], q[0] = _compose(d[0], q[0], sd[s], sq[s])
        sd[ends], sq[ends] = _prefix_maps(d, q)

    rows = np.searchsorted(stops, marks)
    series = TimeSeries(
        times=times,
        states=np.column_stack((1.0 + sd[rows], sq[rows])),
        dt=dt,
        steps=int(n.sum()),
        segments=hi.size,
    )
    start = float(np.sum(np.abs(np.asarray(initial, dtype=complex)) ** 2))
    if start != 0.0:  # (1, 0) divides by exactly 1.0
        final_defect = norm_defect(np.array([1.0 + sd[-1], sq[-1]]) / math.sqrt(start))
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
    return su2(a, b)  # a zero b completes to +0, as integrating (0, 1) gives


def interaction_integral(
    pulses: PulseSequence, params: SystemParams, t: float, lam: float
) -> complex:
    """z_lam = int_0^t v(t') e^{2 i lam gamma t'} dt', the no-ordering exponent of frame lam.

    Kicks contribute exact jumps alpha e^{2 i lam gamma t_kick}.  Each
    finite pulse's window, clipped to [0, t] and split at the pulse center,
    is integrated by `pulses.gauss_legendre` at frequency 2 lam gamma, with
    two panels for each pi of phase over the window.  At frequency 0, the
    bare frame, the imaginary part is exactly 0.
    """
    w = 2.0 * lam * params.gamma
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
        points = [lo, p.center, hi] if lo < p.center < hi else [lo, hi]
        z += gauss_legendre(lambda x: p.value(x) * np.exp(1j * w * x), points, w)
    return z


def spectral_exponential(z, c) -> np.ndarray:
    """exp(-i Omega), Omega = Re z sigma_x + Im z sigma_y - c sigma_z, for each broadcast (z, c).

    Omega is Hermitian, so with Omega = V diag(w) V^dag the exponential is
    V diag(e^{-i w}) V^dag: one `eigh` call and one matmul for a whole stack,
    a scalar pair giving one (2, 2) matrix and arrays a (..., 2, 2) stack.
    Each matrix of a stack has the bits of its own scalar call, and a NaN
    entry gives a NaN matrix.
    """
    z, c = np.asarray(z, dtype=complex)[..., None, None], np.asarray(c, dtype=float)[..., None, None]
    w, v = np.linalg.eigh(z.real * SIGMA_X + z.imag * SIGMA_Y - c * SIGMA_Z)
    return (v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def no_ordering_numeric(
    pulses: PulseSequence, params: SystemParams, t: float, lam: float
) -> np.ndarray:
    """exp(-i Omega_lam), Omega_lam = Re z sigma_x + Im z sigma_y - (1 - lam) gamma t sigma_z.

    z is interaction_integral's quadrature of frame lam: lam = 0 is the bare
    frame, lam = 1 the rotating frame; `spectral_exponential` exponentiates.
    """
    z = interaction_integral(pulses, params, t, lam)
    return spectral_exponential(z, (1.0 - lam) * params.gamma * t)


def interaction_integral_series(
    pulses: PulseSequence, params: SystemParams, t0: float, times: np.ndarray, dt: float
) -> np.ndarray:
    """Cumulative int_{t0}^t v(t') e^{2 i gamma t'} dt' at each requested time t >= t0.

    Kicks at or after t0 enter as exact steps, rectangles as the exact integral
    of each window clipped to [t0, t]; gaussians by trapezoid at half the RK4
    step dt (a trajectory's resolved `TimeSeries.dt`) on a grid that includes
    the requested times, which makes whole no-ordering columns cheap.
    """
    times = np.asarray(times, dtype=float)
    g = params.gamma
    t_max = float(times.max(initial=t0))  # times in any order
    smooth = [p for p in pulses if p.shape is PulseShape.GAUSSIAN]
    grid = _stops(np.arange(t0, t_max, dt / 2.0), times, [t0])
    vals = envelope_array(smooth, grid) * np.exp(2j * g * grid)
    increments = 0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)
    cumulative = np.concatenate([[0.0 + 0.0j], np.cumsum(increments)])
    idx = np.searchsorted(grid, times)
    out = cumulative[idx]
    for p in pulses:
        if p.shape is PulseShape.IDEAL_KICK and p.center >= t0:
            out = out + np.where(times >= p.center, p.alpha * np.exp(2j * g * p.center), 0.0)
        elif p.shape is PulseShape.RECTANGULAR:  # peak int_a^b e^{2 i g t} dt; np.sinc(0) = 1
            a, b = max(p.window()[0], t0), np.minimum(p.window()[1], times)
            w = np.maximum(b - a, 0.0)
            out = out + p.peak * w * np.exp(1j * g * (a + b)) * np.sinc(g * w / math.pi)
    return out

