import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickedqubit.su2 import (
    IDENTITY,
    NonUnitaryError,
    PauliVector,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    X_AXIS,
    Z_AXIS,
    max_abs_diff,
    pauli_exponential,
    probabilities,
    unitarity_defect,
)

angles = st.floats(-20.0, 20.0, allow_nan=False)
axes = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
).filter(lambda n: np.linalg.norm(n) > 1e-3).map(
    lambda n: tuple(np.asarray(n) / np.linalg.norm(n))
)




# The numpy routes these scalar kernels replaced, kept as independent references.
def reference_pauli_exponential(phi, axis):
    n = np.asarray(axis, dtype=float)
    c, s = math.cos(phi), math.sin(phi)
    nx, ny, nz = n
    return np.array(
        [
            [c + 1j * s * nz, 1j * s * (nx - 1j * ny)],
            [1j * s * (nx + 1j * ny), c - 1j * s * nz],
        ]
    )


def reference_unitarity_defect(m):
    return float(np.max(np.abs(m.conj().T @ m - IDENTITY)))


def reference_to_matrix(pv):
    return pv.c0 * IDENTITY + pv.cx * SIGMA_X + pv.cy * SIGMA_Y + pv.cz * SIGMA_Z


def reference_from_matrix(m):
    return (
        complex(m[0, 0] + m[1, 1]) / 2,
        complex(m[0, 1] + m[1, 0]) / 2,
        complex(m[1, 0] - m[0, 1]) / 2j,
        complex(m[0, 0] - m[1, 1]) / 2,
    )


# unit axes that hit signed zeros and exact +-1 components as well as generic ones
axis_components = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0)
)
any_axes = st.tuples(axis_components, axis_components, axis_components).filter(
    lambda n: np.linalg.norm(n) > 1e-3
).map(lambda n: tuple((np.asarray(n) / np.linalg.norm(n)).tolist()))
any_angles = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2]), st.floats(-1e3, 1e3)
)


@given(any_angles, any_axes, st.booleans())
@settings(max_examples=500, deadline=None)
def test_pauli_exponential_matches_the_numpy_route_bit_for_bit(phi, n, as_array):
    axis = np.array(n) if as_array else n
    u, ref = pauli_exponential(phi, axis), reference_pauli_exponential(phi, axis)
    assert u.dtype == ref.dtype and u.shape == ref.shape
    # tobytes compares signed zeros too, which == would not
    assert u.tobytes() == ref.tobytes()


def _random_matrices():
    """Unitary, slightly perturbed and far-from-unitary 2x2 matrices."""
    complex_entries = st.tuples(*(st.floats(-3.0, 3.0) for _ in range(8))).map(
        lambda x: np.array(x[:4]).reshape(2, 2) + 1j * np.array(x[4:]).reshape(2, 2)
    )
    unitary = st.tuples(angles, axes, st.floats(-math.pi, math.pi)).map(
        lambda a: complex(math.cos(a[2]), math.sin(a[2])) * pauli_exponential(a[0], a[1])
    )
    perturbed = st.tuples(unitary, complex_entries, st.floats(1e-12, 1e-3)).map(
        lambda a: a[0] + a[2] * a[1]
    )
    return st.one_of(unitary, perturbed, complex_entries)


@given(_random_matrices())
@settings(max_examples=500, deadline=None)
def test_unitarity_defect_matches_the_numpy_route(m):
    defect, ref = unitarity_defect(m), reference_unitarity_defect(m)
    assert abs(defect - ref) <= 4 * np.finfo(float).eps * max(1.0, ref)


@given(_random_matrices(), st.integers(0, 3), st.sampled_from([complex(math.nan, 0.0),
                                                               complex(0.0, math.nan)]))
@settings(max_examples=100, deadline=None)
def test_unitarity_defect_is_nan_when_any_entry_is_nan(m, k, bad):
    m = m.copy()
    m.flat[k] = bad
    assert math.isnan(unitarity_defect(m))


@given(st.tuples(*(st.floats(-1e6, 1e6) for _ in range(8))))
@settings(max_examples=300, deadline=None)
def test_pauli_vector_matches_the_numpy_route(parts):
    pv = PauliVector(*(complex(parts[i], parts[i + 1]) for i in range(0, 8, 2)))
    m = pv.to_matrix()
    assert m.dtype == complex
    assert np.array_equal(m, reference_to_matrix(pv))
    back = PauliVector.from_matrix(m)
    assert (back.c0, back.cx, back.cy, back.cz) == reference_from_matrix(m)


def test_zero_angle_is_identity():
    assert max_abs_diff(pauli_exponential(0.0, X_AXIS), IDENTITY) == 0.0


def test_half_pi_about_x_is_i_sigma_x():
    u = pauli_exponential(math.pi / 2, X_AXIS)
    assert max_abs_diff(u, 1j * SIGMA_X) < 1e-15


def test_z_rotation_is_diagonal_phase():
    phi = 0.8
    u = pauli_exponential(phi, Z_AXIS)
    expected = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    assert max_abs_diff(u, expected) < 1e-15


def test_non_unit_axis_rejected():
    with pytest.raises(ValueError):
        pauli_exponential(1.0, (1.0, 1.0, 0.0))


@pytest.mark.parametrize("axis", [(math.nan, 0.0, 0.0), (1.0, math.nan, 0.0), (math.inf, 0.0, 0.0)])
def test_non_finite_axis_rejected(axis):
    # abs(nan - 1) > 1e-12 is False, so a '>' guard would let a NaN axis through
    with pytest.raises(ValueError, match="axis"):
        pauli_exponential(1.0, axis)


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_non_finite_angle_rejected(phi):
    with pytest.raises(ValueError, match="phi"):
        pauli_exponential(phi, X_AXIS)


@pytest.mark.parametrize("axis", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0), 1.0])
def test_axis_must_have_three_components(axis):
    with pytest.raises(ValueError, match="3-vector"):
        pauli_exponential(1.0, axis)


@given(angles, axes)
@settings(max_examples=200, deadline=None)
def test_pauli_exponential_is_special_unitary(phi, n):
    u = pauli_exponential(phi, n)
    assert unitarity_defect(u) < 1e-12
    assert abs(np.linalg.det(u) - 1.0) < 1e-12


@given(angles, angles, axes)
@settings(max_examples=200, deadline=None)
def test_same_axis_composition(a, b, n):
    combined = pauli_exponential(b, n) @ pauli_exponential(a, n)
    assert max_abs_diff(combined, pauli_exponential(a + b, n)) < 1e-12


def test_bulk_random_sweep():
    # the property above at hypothesis scale; here the full 1e4-sample sweep
    rng = np.random.default_rng(1)
    worst_u = worst_det = 0.0
    for _ in range(10_000):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        u = pauli_exponential(rng.uniform(-30, 30), n)
        worst_u = max(worst_u, unitarity_defect(u))
        worst_det = max(worst_det, abs(np.linalg.det(u) - 1.0))
    assert worst_u < 1e-12
    assert worst_det < 1e-12


def test_mat_mul_and_dagger():
    x = pauli_exponential(0.3, (0.6, 0.8, 0.0))
    assert max_abs_diff(IDENTITY @ x, x) == 0.0
    assert max_abs_diff(x.conj().T.conj().T, x) == 0.0
    assert max_abs_diff(x.conj().T @ x, IDENTITY) < 1e-15
    assert unitarity_defect(pauli_exponential(1.3, Z_AXIS)) < 1e-14


class TestProbabilities:
    def test_identity(self):
        assert probabilities(IDENTITY, (1.0, 0.0)) == (1.0, 0.0)

    def test_full_transfer_at_half_pi_kick(self):
        u = pauli_exponential(-math.pi / 2, X_AXIS)
        p1, p2 = probabilities(u, (1.0, 0.0))
        assert p1 == pytest.approx(0.0, abs=1e-15)
        assert p2 == pytest.approx(1.0, abs=1e-15)

    def test_half_transfer_at_quarter_pi(self):
        _, p2 = probabilities(pauli_exponential(-math.pi / 4, X_AXIS), (1.0, 0.0))
        assert p2 == pytest.approx(0.5, abs=1e-15)

    def test_norm_conserved_for_random_unitaries(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            u = pauli_exponential(rng.uniform(-5, 5), n)
            state = rng.normal(size=2) + 1j * rng.normal(size=2)
            state /= np.linalg.norm(state)
            p1, p2 = probabilities(u, state)
            assert abs(p1 + p2 - 1.0) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryError):
            probabilities(1.5 * IDENTITY, (1.0, 0.0))

    def test_rejects_nan(self):
        # a 'defect > tol' guard passes a NaN defect and returns (nan, nan)
        with pytest.raises(NonUnitaryError):
            probabilities(np.full((2, 2), np.nan, dtype=complex), (1, 0))


@given(
    st.tuples(*(st.floats(-3, 3) for _ in range(8))),
)
@settings(max_examples=200, deadline=None)
def test_pauli_vector_round_trip(parts):
    pv = PauliVector(
        complex(parts[0], parts[1]),
        complex(parts[2], parts[3]),
        complex(parts[4], parts[5]),
        complex(parts[6], parts[7]),
    )
    back = PauliVector.from_matrix(pv.to_matrix())
    for a, b in zip((pv.c0, pv.cx, pv.cy, pv.cz), (back.c0, back.cx, back.cy, back.cz)):
        assert abs(a - b) < 1e-14


def test_pauli_vector_basis_decomposition():
    assert PauliVector.from_matrix(SIGMA_X) == PauliVector(cx=1.0)
    assert PauliVector.from_matrix(SIGMA_Y) == PauliVector(cy=1.0)
    assert PauliVector.from_matrix(SIGMA_Z) == PauliVector(cz=1.0)


def test_exp_minus_i_matches_direct_rotation():
    pv = PauliVector(c0=0.4, cx=0.3, cy=-1.1, cz=0.7)
    m = math.sqrt(0.3**2 + 1.1**2 + 0.7**2)
    axis = (0.3 / m, -1.1 / m, 0.7 / m)
    expected = np.exp(-0.4j) * pauli_exponential(-m, axis)
    assert max_abs_diff(pv.exp_minus_i(), expected) < 1e-14
    assert unitarity_defect(pv.exp_minus_i()) < 1e-14


def test_exp_minus_i_rejects_complex_coefficients():
    with pytest.raises(ValueError):
        PauliVector(cx=1j).exp_minus_i()
