import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kickedqubit.su2 import (
    IDENTITY,
    NonUnitaryError,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    X_AXIS,
    Z_AXIS,
    max_abs_diff,
    pauli_exponential,
    probabilities,
    su2,
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


_unitaries = st.tuples(angles, axes, st.floats(-math.pi, math.pi)).map(
    lambda a: complex(math.cos(a[2]), math.sin(a[2])) * pauli_exponential(a[0], a[1])
)


def _random_matrices():
    """Unitary, slightly perturbed and far-from-unitary 2x2 matrices."""
    complex_entries = st.tuples(*(st.floats(-3.0, 3.0) for _ in range(8))).map(
        lambda x: np.array(x[:4]).reshape(2, 2) + 1j * np.array(x[4:]).reshape(2, 2)
    )
    perturbed = st.tuples(_unitaries, complex_entries, st.floats(1e-12, 1e-3)).map(
        lambda a: a[0] + a[2] * a[1]
    )
    return st.one_of(_unitaries, perturbed, complex_entries)


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


def test_pauli_exponential_matches_expm():
    # exp(-i (c0 + c.sigma)) = e^{-i c0} exp(i (-|c|) c.sigma/|c|), against scipy's expm
    c0, c = 0.4, np.array([0.3, -1.1, 0.7])
    m = float(np.linalg.norm(c))
    expected = expm(-1j * (c0 * IDENTITY + c[0] * SIGMA_X + c[1] * SIGMA_Y + c[2] * SIGMA_Z))
    u = np.exp(-1j * c0) * pauli_exponential(-m, tuple((c / m).tolist()))
    assert max_abs_diff(u, expected) < 1e-14


def test_unitarity_defect_of_a_stack_is_the_worst_of_its_matrices():
    rng = np.random.default_rng(3)
    mats = rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2))
    mats[:32] = pauli_exponential(rng.uniform(-3.0, 3.0, 32), X_AXIS)
    for stack in (mats[:32], mats[32:]):
        want = max(reference_unitarity_defect(m) for m in stack)
        assert unitarity_defect(stack) == pytest.approx(want, rel=1e-14, abs=1e-15)
    mats[40, 1, 0] = math.nan
    assert math.isnan(unitarity_defect(mats))


def test_probabilities_of_a_stack_match_each_matrix():
    rng = np.random.default_rng(4)
    phis, axes = rng.uniform(-5.0, 5.0, 20), rng.normal(size=(20, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    stack = pauli_exponential(phis, axes)
    p1, p2 = probabilities(stack, (1.0, 0.0))
    assert p1.shape == p2.shape == (20,)
    for k in range(20):
        assert (p1[k], p2[k]) == probabilities(stack[k], (1.0, 0.0))
    stack[7] *= 1.5
    with pytest.raises(NonUnitaryError):
        probabilities(stack, (1.0, 0.0))


def _stacks(matrices):
    """(a, b, 2, 2) stacks of the given matrices, a in 1..3 and b in 1..5."""
    return st.tuples(st.integers(1, 3), st.integers(1, 5)).flatmap(
        lambda ab: st.lists(matrices, min_size=ab[0] * ab[1], max_size=ab[0] * ab[1]).map(
            lambda ms: np.stack(ms).reshape(*ab, 2, 2)
        )
    )


@given(_stacks(_random_matrices()))
@settings(max_examples=200, deadline=None)
def test_unitarity_defect_of_any_stack_is_its_worst_matrix(stack):
    want = max(reference_unitarity_defect(m) for m in stack.reshape(-1, 2, 2))
    for shaped in (stack, stack.reshape(-1, 2, 2)):
        assert abs(unitarity_defect(shaped) - want) <= 4 * np.finfo(float).eps * max(1.0, want)


@given(_stacks(_random_matrices()), st.integers(0, 59),
       st.sampled_from([complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.nan, math.inf)]))
@settings(max_examples=100, deadline=None)
def test_unitarity_defect_of_a_stack_is_nan_when_any_entry_is_nan(stack, k, bad):
    stack = stack.copy()
    stack.flat[k % stack.size] = bad
    for shaped in (stack, stack.reshape(-1, 2, 2)):
        with np.errstate(invalid="ignore"):  # an infinite part makes inf * 0, as in a matmul
            assert math.isnan(unitarity_defect(shaped))


@given(_stacks(_unitaries), st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.6, 0.8j), (0.28 - 0.96j, 0.0)]))
@settings(max_examples=100, deadline=None)
def test_probabilities_of_a_2d_stack_match_each_matrix_bit_for_bit(stack, initial):
    p1, p2 = probabilities(stack, initial)
    assert p1.shape == p2.shape == stack.shape[:2]
    ref = np.abs(stack @ np.asarray(initial, dtype=complex)) ** 2  # the matmul route
    assert np.max(np.abs(np.stack([p1, p2], axis=-1) - ref)) <= 4 * np.finfo(float).eps
    for i, j in np.ndindex(*stack.shape[:2]):
        one = probabilities(stack[i, j], initial)
        assert (p1[i, j].tobytes(), p2[i, j].tobytes()) == (one[0].tobytes(), one[1].tobytes())


def test_su2_builds_the_pair_form_with_a_positive_zero_completion():
    u = su2(0.6 + 0.0j, 0.0j)
    assert u.shape == (2, 2)
    assert u[0, 1].real == 0.0 and math.copysign(1.0, u[0, 1].real) == 1.0
    p, q = np.array([0.6, 0.8j]), np.array([0.8j, 0.6])
    stack = su2(p, q)
    assert stack.shape == (2, 2, 2)
    for k in range(2):
        assert np.array_equal(stack[k], [[p[k], -np.conj(q[k])], [q[k], np.conj(p[k])]])
    assert unitarity_defect(stack) < 1e-15
