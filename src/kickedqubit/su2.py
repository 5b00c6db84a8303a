"""2x2 complex algebra on the Pauli basis: the Pauli matrices, rotations
exp(i phi n.sigma), unitarity and norm defects, occupation probabilities.

States are length-2 complex ndarrays (amplitudes of the two basis
states); propagators are 2x2 complex ndarrays.  Inside, each function
works on Python complex scalars and builds at most one ndarray for its
result, because numpy dispatch costs far more than the arithmetic on a
2x2 matrix; numpy arrays appear only at the API boundary.  The
largest-absolute-entry norm is used for all matrix defect measurements,
and a NaN entry gives a NaN defect, which fails every `not defect <= tol`
guard.  The one numeric no-ordering route, `evolve.no_ordering_numeric`,
serves the bare (lam = 0) and rotating (lam = 1) frames alike; it
exponentiates through numpy's `eigh` (a spectral decomposition), not with
`pauli_exponential`, so it shares no code with the closed form
`propagators.no_ordering` it checks.
"""
from __future__ import annotations

import math

import numpy as np

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _m in (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.flags.writeable = False

X_AXIS = (1.0, 0.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)


class NonUnitaryError(ValueError):
    """A matrix that must be unitary failed the unitarity check."""


def pauli_exponential(phi: float, axis) -> np.ndarray:
    """exp(i phi n.sigma) = cos(phi) 1 + i sin(phi) n.sigma for a unit 3-vector n."""
    try:
        nx, ny, nz = axis
    except (TypeError, ValueError):
        raise ValueError("axis must be a 3-vector") from None
    nx, ny, nz = float(nx), float(ny), float(nz)
    if not abs(math.sqrt(nx * nx + ny * ny + nz * nz) - 1.0) <= 1e-12:
        raise ValueError(f"axis must have unit norm to 1e-12, got {axis!r}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    return _rotation(math.cos(phi), math.sin(phi), nx, ny, nz)


def _rotation(c: float, s: float, nx: float, ny: float, nz: float) -> np.ndarray:
    """c 1 + i s n.sigma, unchecked: exp(i phi n.sigma) for c, s = cos, sin of phi and |n| = 1."""
    return np.array([[c + 1j * s * nz, 1j * s * (nx - 1j * ny)],
                     [1j * s * (nx + 1j * ny), c - 1j * s * nz]])


def unitarity_defect(m: np.ndarray) -> float:
    """max |(M^dag M - 1)_ij|, NaN if any entry is NaN."""
    (a, b), (c, d) = m.tolist()
    # (M^dag M)_10 is the conjugate of (M^dag M)_01, so one off-diagonal term covers both
    d00 = abs(a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag - 1.0)
    d11 = abs(b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag - 1.0)
    d01 = abs(a.conjugate() * b + c.conjugate() * d)
    # max() keeps or drops a NaN depending on where it sits
    return math.nan if math.isnan(d00 + d11 + d01) else max(d00, d11, d01)


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def norm_defect(state: np.ndarray) -> float:
    """| |a1|^2 + |a2|^2 - 1 |"""
    return abs(float(np.sum(np.abs(state) ** 2)) - 1.0)


def probabilities(u: np.ndarray, initial) -> tuple[float, float]:
    """Occupation probabilities (P1, P2) after applying the propagator u.

    Requires u unitary to 1e-8; P1 + P2 is then conserved to the same level.
    """
    defect = unitarity_defect(u)
    if not defect <= 1e-8:
        raise NonUnitaryError(f"propagator is not unitary (defect {defect:.3e})")
    a = u @ np.asarray(initial, dtype=complex)
    return float(abs(a[0]) ** 2), float(abs(a[1]) ** 2)
