"""2x2 complex algebra on the Pauli basis.

States are length-2 complex ndarrays (amplitudes of the two basis
states); propagators are 2x2 complex ndarrays.  Everything is plain
double-precision numpy; the largest-absolute-entry norm is used for all
matrix defect measurements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    if abs(math.sqrt(float(n @ n)) - 1.0) > 1e-12:
        raise ValueError("axis must have unit norm to 1e-12")
    c, s = math.cos(phi), math.sin(phi)
    nx, ny, nz = n
    return np.array(
        [
            [c + 1j * s * nz, 1j * s * (nx - 1j * ny)],
            [1j * s * (nx + 1j * ny), c - 1j * s * nz],
        ]
    )


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def unitarity_defect(m: np.ndarray) -> float:
    """max |(M^dag M - 1)_ij|"""
    return float(np.max(np.abs(dagger(m) @ m - IDENTITY)))


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def norm_defect(state: np.ndarray) -> float:
    """| |a1|^2 + |a2|^2 - 1 |"""
    return abs(float(np.sum(np.abs(state) ** 2)) - 1.0)


def probabilities(u: np.ndarray, initial) -> tuple[float, float]:
    """Occupation probabilities (P1, P2) after applying the propagator u.

    Requires u unitary to 1e-8; P1 + P2 is then conserved to the same level.
    """
    defect = unitarity_defect(u)
    if defect > 1e-8:
        raise NonUnitaryError(f"propagator is not unitary (defect {defect:.3e})")
    a = u @ np.asarray(initial, dtype=complex)
    return float(abs(a[0]) ** 2), float(abs(a[1]) ** 2)


@dataclass(frozen=True)
class PauliVector:
    """Coefficients (c0, cx, cy, cz) of a matrix on the basis (1, sx, sy, sz)."""

    c0: complex = 0.0
    cx: complex = 0.0
    cy: complex = 0.0
    cz: complex = 0.0

    def to_matrix(self) -> np.ndarray:
        return (
            self.c0 * IDENTITY
            + self.cx * SIGMA_X
            + self.cy * SIGMA_Y
            + self.cz * SIGMA_Z
        )

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "PauliVector":
        return cls(
            c0=complex(m[0, 0] + m[1, 1]) / 2,
            cx=complex(m[0, 1] + m[1, 0]) / 2,
            cy=complex(m[1, 0] - m[0, 1]) / 2j,
            cz=complex(m[0, 0] - m[1, 1]) / 2,
        )

    def pauli_norm(self) -> float:
        """Euclidean norm of the (cx, cy, cz) part."""
        return math.sqrt(abs(self.cx) ** 2 + abs(self.cy) ** 2 + abs(self.cz) ** 2)

    def exp_minus_i(self) -> np.ndarray:
        """exp(-i (c0 + c.sigma)) for real coefficients.

        Uses cos(|c|) 1 - i sin(|c|) c.sigma/|c|, so the result is exactly
        unitary instead of unitary to matrix-exponential accuracy.
        """
        coeffs = np.array([self.c0, self.cx, self.cy, self.cz], dtype=complex)
        if np.max(np.abs(coeffs.imag)) > 1e-12:
            raise ValueError("exp_minus_i requires real Pauli coefficients")
        c0, cx, cy, cz = coeffs.real
        m = math.sqrt(cx * cx + cy * cy + cz * cz)
        if m == 0.0:
            rot = IDENTITY.copy()
        else:
            rot = pauli_exponential(-m, (cx / m, cy / m, cz / m))
        return complex(math.cos(c0), -math.sin(c0)) * rot
