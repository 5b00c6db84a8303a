"""2x2 complex algebra on the Pauli basis: the Pauli matrices, the SU(2)
builder, rotations exp(i phi n.sigma), unitarity and norm defects,
occupation probabilities.

States are length-2 complex ndarrays (amplitudes of the two basis
states); propagators are 2x2 complex ndarrays.  `su2`,
`pauli_exponential` and every closed form in `propagators` broadcast over
array parameters: a scalar call returns one (2, 2) matrix and an array
call a (..., 2, 2) stack, one matrix per entry; `unitarity_defect` and
`probabilities` take either, and read the four entries of each matrix
elementwise.  The closed forms compute the pair (p, q) of each matrix and
build it with `su2`; `pauli_exponential` writes its four entries directly
(see its docstring).  The largest-absolute-entry norm is
used for all matrix defect measurements, and a NaN entry gives a NaN
defect, which fails every `not defect <= tol` guard.  The one numeric
no-ordering route serves the bare (lam = 0) and rotating (lam = 1)
frames alike: `evolve.interaction_integral` gives the exponent and
`evolve.spectral_exponential` exponentiates it through numpy's `eigh` (a
spectral decomposition), not with `pauli_exponential`, so it shares no
code with the closed form `propagators.no_ordering` it checks.
"""
from __future__ import annotations

import numpy as np

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _m in (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.flags.writeable = False

X_AXIS = (1.0, 0.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)
#: The unitarity and norm defect every propagator and integrated state must hold to.
UNITARITY_TOLERANCE = 1e-8


class NonUnitaryError(ValueError):
    """A matrix that must be unitary failed the unitarity check."""


def su2(p, q) -> np.ndarray:
    """[[p, -q*], [q, p*]] for each broadcast pair (p, q): shape (..., 2, 2).

    Written 0.0 - conj(q), not -conj(q), so that a zero q completes to +0.
    """
    p, q = np.broadcast_arrays(np.asarray(p, dtype=complex), np.asarray(q, dtype=complex))
    m = np.empty(p.shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1] = p, 0.0 - np.conj(q)
    m[..., 1, 0], m[..., 1, 1] = q, np.conj(p)
    return m


def _require_finite(**args) -> None:
    """ValueError naming the first argument with a NaN or infinite entry; a stack names that entry."""
    for name, x in args.items():
        bad = ~np.isfinite(x)
        if bad.any():
            shown = x if np.ndim(x) == 0 else np.asarray(x)[bad][0]
            raise ValueError(f"{name} must be finite, got {shown!r}")


def pauli_exponential(phi, axis) -> np.ndarray:
    """exp(i phi n.sigma) = cos(phi) 1 + i sin(phi) n.sigma for unit 3-vectors n.

    phi broadcasts against the rows of an axis of shape (..., 3).  Each
    entry is written from its own term of the sum rather than through
    `su2`: the upper right one, i sin(phi) (nx - i ny), keeps signed zeros
    that no function of the lower left one can reproduce.
    """
    try:
        n = np.asarray(axis, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("axis must be a 3-vector") from None
    if n.shape[-1:] != (3,):
        raise ValueError("axis must be a 3-vector")
    nx, ny, nz = n[..., 0], n[..., 1], n[..., 2]
    bad = ~(np.abs(np.sqrt(nx * nx + ny * ny + nz * nz) - 1.0) <= 1e-12)
    if bad.any():  # a stack names its first bad row
        shown = axis if n.ndim == 1 else n[bad][0]
        raise ValueError(f"axis must have unit norm to 1e-12, got {shown!r}")
    _require_finite(phi=phi)
    c, s = np.cos(phi), np.sin(phi)
    m = np.empty(np.broadcast_shapes(np.shape(c), nx.shape) + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1] = c + 1j * s * nz, 1j * s * (nx - 1j * ny)
    m[..., 1, 0], m[..., 1, 1] = 1j * s * (nx + 1j * ny), c - 1j * s * nz
    return m


def unitarity_defect(m) -> float:
    """max |(M^dag M - 1)_ij| over a matrix or a stack of them, NaN if any entry is NaN.

    Of M = [[a, b], [c, d]]: |a|^2 + |c|^2 - 1, |b|^2 + |d|^2 - 1 and
    a* b + c* d, elementwise; each entry enters a* b + c* d, so a NaN shows.
    """
    m = np.asarray(m)
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    col0 = a.real * a.real + a.imag * a.imag + (c.real * c.real + c.imag * c.imag) - 1.0
    col1 = b.real * b.real + b.imag * b.imag + (d.real * d.real + d.imag * d.imag) - 1.0
    off = np.abs(np.conj(a) * b + np.conj(c) * d)
    return float(np.maximum(np.maximum(np.abs(col0), np.abs(col1)), off).max())


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def norm_defect(state: np.ndarray) -> float:
    """| |a1|^2 + |a2|^2 - 1 |"""
    return abs(float(np.sum(np.abs(state) ** 2)) - 1.0)


def probabilities(u, initial):
    """Occupation probabilities (P1, P2) after applying u, a matrix or a stack.

    Requires every matrix unitary to UNITARITY_TOLERANCE; P1 + P2 is then
    conserved to the same level.  A stack gives one array of each.
    """
    defect = unitarity_defect(u)
    if not defect <= UNITARITY_TOLERANCE:
        raise NonUnitaryError(f"propagator is not unitary (defect {defect:.3e})")
    u, (x1, x2) = np.asarray(u), np.asarray(initial, dtype=complex)
    p1, p2 = np.moveaxis(np.abs(u[..., 0] * x1 + u[..., 1] * x2) ** 2, -1, 0)
    return p1, p2
