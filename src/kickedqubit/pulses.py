"""Pulse shapes, pulse sequences, and two-level system parameters.

Units: hbar = 1 and time in picoseconds throughout.  The level splitting
enters only through gamma = Delta_E / (2 hbar) in rad/ps; the period of
free oscillation between the two states is the Rabi time T = pi / gamma.
Couplings are handled as rates v(t) = V(t)/hbar in rad/ps, so the
Hamiltonian reads H/hbar = -gamma sigma_z + v(t) sigma_x.

Shapes, all with signed integrated strength alpha = int v dt:

* gaussian:     v(t) = alpha / (sqrt(pi) tau) * exp(-((t - T_k)/tau)^2)
* rectangular:  v(t) = alpha / tau on [T_k - tau/2, T_k + tau/2]
* ideal kick:   v(t) = alpha * delta(t - T_k), the tau -> 0 limit

`Pulse` is the only place that knows the math of each shape: its peak
rate, its window, its value over an array of times, and its integral over
any interval.  The sequence helpers below (`envelope`, `envelope_array`,
`integrated_strength`) and the integrator and closed forms elsewhere read
from it.  `envelope` is the scalar closure of a gaussian sequence that
the RK4 kernel's long segments read (see `evolve._rk4_span`), the pulse
loop written out once per gaussian count and compiled once; every other
pointwise value, the kernel's short rows included, reads `Pulse.value`.
`gauss_legendre` is one composite Gauss-Legendre rule with one value; its
nodes come from `numpy.polynomial` on first use, so importing stays light.
The package's other quadrature, `evolve.interaction_integral_series`, is a
cumulative trapezoid.

Pointwise evaluation (`Pulse.value`, `envelope`, `envelope_array`) is
exactly zero outside each pulse's `window()`, edges included in the window;
`Pulse.value` evaluates only the times inside it.
`integral` stays analytic over the untruncated gaussian; the gap to the
truncated value is at most alpha erfc(6) / 2.

Ideal kicks cannot be evaluated pointwise; sequence evaluation raises for
them and the closed-form kick propagators should be used instead.
Overlapping pulses in a sequence add linearly.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

HBAR_EV_PS = 6.582119569e-4  # hbar in eV * ps, for Delta_E conversions

#: Gaussian support is truncated at this many widths: every pointwise
#: evaluation is exactly zero outside center +- GAUSSIAN_WINDOW tau, where
#: v < exp(-36) peak; the neglected tail weight is erfc(6) ~ 2e-17 relative.
GAUSSIAN_WINDOW = 6.0


class PulseEvaluationError(ValueError):
    """A pulse evaluated pointwise where it cannot be: a kick, or a non-gaussian in `envelope`."""


class PulseShape(Enum):
    IDEAL_KICK = "kick"
    GAUSSIAN = "gaussian"
    RECTANGULAR = "rectangular"


@dataclass(frozen=True)
class Pulse:
    """One pulse: shape, signed strength alpha (rad), width tau (ps; 0 for a kick), center (ps)."""

    shape: PulseShape
    alpha: float
    tau: float
    center: float

    def __post_init__(self):
        if self.shape is not PulseShape.IDEAL_KICK and not self.tau > 0.0:
            raise ValueError("finite pulse shapes need tau > 0")
        if self.shape is PulseShape.IDEAL_KICK and self.tau != 0.0:
            raise ValueError(f"a kick has no width, got tau={self.tau:g}")
        for name in ("alpha", "tau", "center"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.shape is not PulseShape.IDEAL_KICK and not math.isfinite(self.peak):
            raise ValueError("finite pulse shapes need a finite peak alpha / tau")

    @property
    def peak(self) -> float:
        """Signed peak rate in rad/ps; a kick has none."""
        if self.shape is PulseShape.GAUSSIAN:
            return self.alpha / (math.sqrt(math.pi) * self.tau)
        if self.shape is PulseShape.RECTANGULAR:
            return self.alpha / self.tau
        raise PulseEvaluationError(
            "delta-function kicks have no pointwise value; "
            "use the closed-form kick propagators instead"
        )

    def window(self) -> tuple[float, float]:
        """Interval outside which the pulse is negligible (empty for a kick)."""
        if self.shape is PulseShape.GAUSSIAN:
            half = GAUSSIAN_WINDOW * self.tau
        elif self.shape is PulseShape.RECTANGULAR:
            half = 0.5 * self.tau
        else:
            half = 0.0
        return (self.center - half, self.center + half)

    def value(self, t: np.ndarray) -> np.ndarray:
        """v(t) over an array of times, zero outside the window (kicks rejected).

        Only times inside the window are evaluated, so far ones overflow nothing.
        """
        lo, hi = self.window()
        inside, out = (t >= lo) & (t <= hi), np.zeros(t.shape)
        u = (t[inside] - self.center) / self.tau if self.shape is PulseShape.GAUSSIAN else 0.0
        out[inside] = self.peak * np.exp(-u * u)
        return out

    def integral(self, t0: float, t1):
        """int_{t0}^{t1} v dt for t0 <= t1; a kick counts fully when t0 <= T_k <= t1.

        t1 may be a 1-D array: each entry is the float the scalar call gives.
        """
        if self.shape is PulseShape.GAUSSIAN:
            x = (t1 - self.center) / self.tau
            many = isinstance(x, np.ndarray)
            e1 = np.fromiter(map(math.erf, x.tolist()), float, x.size) if many else math.erf(x)
            return 0.5 * self.alpha * (e1 - math.erf((t0 - self.center) / self.tau))
        if self.shape is PulseShape.RECTANGULAR:
            lo, hi = self.window()
            return self.peak * np.maximum(0.0, np.minimum(t1, hi) - max(t0, lo))
        return self.alpha * ((t0 <= self.center) & (self.center <= t1))


def gaussian(alpha: float, tau: float, center: float) -> Pulse:
    return Pulse(PulseShape.GAUSSIAN, alpha, tau, center)


def rectangular(alpha: float, tau: float, center: float) -> Pulse:
    return Pulse(PulseShape.RECTANGULAR, alpha, tau, center)


def ideal_kick(alpha: float, center: float) -> Pulse:
    return Pulse(PulseShape.IDEAL_KICK, alpha, 0.0, center)


PulseSequence = Sequence[Pulse]


@dataclass(frozen=True)
class SystemParams:
    """Two-level system with splitting gamma = Delta_E / (2 hbar) in rad/ps."""

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError("gamma must be finite and >= 0")

    @property
    def rabi_time(self) -> float:
        """Free oscillation period pi / gamma (inf for a degenerate system)."""
        return math.pi / self.gamma if self.gamma > 0.0 else math.inf

    @classmethod
    def from_rabi_time(cls, rabi_time_ps: float) -> "SystemParams":
        """gamma = pi / period; an infinite period is the degenerate gamma = 0."""
        if not rabi_time_ps > 0.0:
            raise ValueError(f"rabi_time must be > 0 (inf for gamma = 0), got {rabi_time_ps:g}")
        return cls(gamma=math.pi / rabi_time_ps)

    @classmethod
    def from_delta_e_ev(cls, delta_e_ev: float) -> "SystemParams":
        return cls(gamma=delta_e_ev / (2.0 * HBAR_EV_PS))


def hydrogen_2s2p() -> SystemParams:
    """Hydrogen 2s-2p system split by the Lamb shift; Rabi time 972 ps."""
    return SystemParams.from_rabi_time(972.0)


def unit_system() -> SystemParams:
    """Dimensionless testing system with gamma = 1 rad per time unit."""
    return SystemParams(gamma=1.0)


def envelope(pulses: PulseSequence) -> Callable[[float], float]:
    """Fast scalar v(t) closure of a gaussian sequence, for the RK4 kernel's long segments.

    The closure is the pulse loop written out for this many gaussians: each
    term adds amp * exp(-u * u), u = (t - c) * inv_tau, only inside its
    window, in sequence order.  Any other shape raises PulseEvaluationError:
    the kernel takes a rectangle as a constant coupling and a kick as a map.
    """
    values: list[float] = []
    for p in pulses:
        if p.shape is not PulseShape.GAUSSIAN:
            raise PulseEvaluationError(f"the scalar envelope takes gaussians only, got {p.shape.value}")
        values += (p.peak, *p.window(), p.center, 1.0 / p.tau)
    return _envelope_factory(len(pulses))(math.exp, *values)


@functools.cache
def _envelope_factory(count: int):
    """Factory of the closure for count gaussians, compiled once.

    The source holds term indices only; every pulse value is an argument.
    """
    names, body = ["exp"], ["    def v(t):", "        total = 0.0"]
    for k in range(count):
        names += [f"a{k}", f"lo{k}", f"hi{k}", f"c{k}", f"k{k}"]
        body.append(f"        if lo{k} <= t <= hi{k}: u = (t - c{k}) * k{k}; total += a{k} * exp(-u * u)")
    source = [f"def factory({', '.join(names)}):", *body, "        return total", "    return v"]
    namespace: dict = {}
    exec("\n".join(source), namespace)
    return namespace["factory"]


def envelope_array(pulses: PulseSequence, times: np.ndarray) -> np.ndarray:
    """Vectorized v(t) over an array of times (kicks rejected)."""
    t = np.asarray(times, dtype=float)
    total = np.zeros_like(t)
    for p in pulses:
        total += p.value(t)
    return total


#: The composite Gauss-Legendre rule of `gauss_legendre`: GL_NODES nodes a
#: panel, GL_PANELS panels an interval plus two for each pi of phase omega (hi - lo).
GL_NODES = 24
GL_PANELS = 12


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the GL_NODES-point rule on [-1, 1], built on first use, read-only."""
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(f, points, omega: float = 0.0):
    """int f over [points[0], points[-1]] by a composite Gauss-Legendre rule.

    Each interval between consecutive break points is cut into k equal
    panels of GL_NODES nodes (Golub & Welsch, Math. Comp. 23, 221 (1969)),
    with k = GL_PANELS + 2 ceil(|omega| (hi - lo) / pi), so that an integrand
    oscillating at angular frequency omega has at least two panels per half
    period.  f maps a 1-D array of times to values there, float or complex,
    and is called once.  The points run either way; a descending list
    integrates with the opposite sign.  No error estimate is returned: no
    caller has a tolerance to hold one to.
    """
    x, w = _legendre_rule()
    points = np.asarray(points, dtype=float)
    lo, hi = points[:-1], points[1:]
    k = GL_PANELS + 2 * np.ceil(abs(omega) * np.abs(hi - lo) / math.pi).astype(np.int64)
    half = np.repeat(0.5 * (hi - lo) / k, k)  # half-width of each panel
    j = np.arange(half.size) - np.repeat(np.cumsum(k) - k, k)  # panel index in its interval
    mid = np.repeat(lo, k) + (2 * j + 1) * half
    panels = f((mid[:, None] + half[:, None] * x).ravel()).reshape(half.size, x.size) @ w * half
    return np.sum(panels).item()


def integrated_strength(pulses: PulseSequence, t0: float, t1):
    """int_{t0}^{t1} v(t) dt in rad, analytic for every shape.

    Kicks contribute their full alpha when the kick time lies inside the
    window (boundaries inclusive).  t1 may be a 1-D array of end times, as
    in Pulse.integral.
    """
    if not np.all(t1 >= t0):  # refuses a NaN
        raise ValueError("t1 must be >= t0")
    total = np.zeros(t1.size) if isinstance(t1, np.ndarray) else 0.0
    for p in pulses:
        total += p.integral(t0, t1)
    return total
