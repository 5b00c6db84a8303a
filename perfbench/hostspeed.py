"""Host-speed calibration, so timings absorb drift in how fast the host runs.

On a shared machine the same work can take 1.5x longer for seconds at a
time, switching within a fraction of a second, and CPU time grows with
wall time: the process is not waiting, the core itself is slower.  While a
``HostSpeed`` block is active, a wall-clock timer interrupts the program
every ``INTERVAL_S`` and runs ``kernel``, the benchmark's own fixed copy
of RK4 steps with a scalar envelope closure.  Its duration measures the
host's speed, sampled uniformly in time.

``reference_s`` turns a measured interval into *reference seconds*: each
5 ms stretch of it, minus the calibration slice, is divided by the host's
slowness in that stretch, so work done while the host was slow is scaled
by the slowness it actually met.  Slowness is 1.0 on a host on which the
kernel takes ``KERNEL_REF_S``.  No thread is started; the timer's
handler runs in the main thread between bytecodes.
"""
from __future__ import annotations

import bisect
import math
import signal
import time

INTERVAL_S = 0.005
KERNEL_STEPS = 20
KERNEL_REF_S = 8e-5  # 4 us per step


def _envelope():
    pulses = ((0.1, 100.0, 0.1), (-0.1, 586.0, 0.1))
    exp = math.exp

    def v(t):
        total = 0.0
        for amp, center, inv_tau in pulses:
            u = (t - center) * inv_tau
            total += amp * exp(-u * u)
        return total

    return v


_V = _envelope()


def kernel(n: int = KERNEL_STEPS) -> complex:
    """n RK4 steps of a driven two-level system with a scalar envelope closure."""
    v, ig, h = _V, 0.5j, 0.2
    a1, a2, t = 1.0 + 0.0j, 0.0j, 0.0
    for _ in range(n):
        vt, vm, ve = v(t), v(t + 0.5 * h), v(t + h)
        k1a = ig * a1 - 1j * vt * a2
        k1b = -ig * a2 - 1j * vt * a1
        x1, x2 = a1 + 0.5 * h * k1a, a2 + 0.5 * h * k1b
        k2a = ig * x1 - 1j * vm * x2
        k2b = -ig * x2 - 1j * vm * x1
        x1, x2 = a1 + 0.5 * h * k2a, a2 + 0.5 * h * k2b
        k3a = ig * x1 - 1j * vm * x2
        k3b = -ig * x2 - 1j * vm * x1
        x1, x2 = a1 + h * k3a, a2 + h * k3b
        k4a = ig * x1 - 1j * ve * x2
        k4b = -ig * x2 - 1j * ve * x1
        a1 = a1 + h / 6.0 * (k1a + 2.0 * (k2a + k3a) + k4a)
        a2 = a2 + h / 6.0 * (k1b + 2.0 * (k2b + k3b) + k4b)
        t += h
    return a1


class HostSpeed:
    """Context manager sampling ``kernel`` on a timer while it is active."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "HostSpeed":
        kernel()  # the first call pays for bytecode specialisation
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the interval [t0, t1].

        Slice k stands for the stretch since slice k-1 ended; each stretch's
        share of [t0, t1], minus the slice itself, is divided by that
        slice's slowness.  Time after the last slice uses the last one.
        """
        ends, last = self.ends, len(self.ends) - 1
        if last < 0:
            raise RuntimeError("no calibration sample was taken")
        k = bisect.bisect_right(ends, t0)
        total, t = 0.0, t0
        while t < t1:
            stop = min(ends[k], t1) if k <= last else t1
            net = stop - t
            if k <= last and ends[k] <= t1:
                net -= self.durations[k]
            total += net * KERNEL_REF_S / self.durations[min(k, last)]
            t, k = stop, k + 1
        return total

    def slowness(self, t0: float, t1: float) -> float:
        """Effective slowness over [t0, t1]: measured time per reference second."""
        lo, hi = bisect.bisect_right(self.ends, t0), bisect.bisect_right(self.ends, t1)
        return (t1 - t0 - sum(self.durations[lo:hi])) / self.reference_s(t0, t1)
