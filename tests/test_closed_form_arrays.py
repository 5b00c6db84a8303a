"""The closed forms on arrays: one matrix per entry, as the scalar formulas give.

The references below are the scalar implementations the array forms
replaced (Python complex arithmetic, one matrix a call), kept as
independent routes in the way tests/test_su2.py keeps
`reference_pauli_exponential`.
"""
import math
import warnings

import numpy as np
import pytest

from kickedqubit import propagators as prop
from kickedqubit.su2 import X_AXIS, Z_AXIS, pauli_exponential


def reference_kick_sequence_propagator(kicks, gamma, t):
    p, q = 1.0 + 0.0j, 0.0j
    last = 0.0
    for alpha, tk in kicks:
        assert last <= tk < t
        f = complex(math.cos(gamma * (tk - last)), math.sin(gamma * (tk - last)))
        c, s = math.cos(alpha), math.sin(alpha)
        p, q = c * f * p - 1j * s * f.conjugate() * q, c * f.conjugate() * q - 1j * s * f * p
        last = tk
    f = complex(math.cos(gamma * (t - last)), math.sin(gamma * (t - last)))
    p, q = f * p, f.conjugate() * q
    return np.array([[p, -q.conjugate()], [q, p.conjugate()]])


def reference_rectangular_propagator(alpha, beta, gamma, t_kick, t):
    ap = math.hypot(alpha, beta)
    if abs(ap) < 1e-4:
        s = 1.0 - ap * ap / 6.0 * (1.0 - ap * ap / 20.0)
    else:
        s = math.sin(ap) / ap
    c = math.cos(ap)
    pt = complex(math.cos(gamma * t - beta), math.sin(gamma * t - beta))
    pk = complex(math.cos(gamma * (t - 2.0 * t_kick)), math.sin(gamma * (t - 2.0 * t_kick)))
    return np.array(
        [
            [pt * (c + 1j * beta * s), -1j * pk * alpha * s],
            [-1j * alpha * s / pk, (c - 1j * beta * s) / pt],
        ]
    )


def reference_no_ordering(z, lam, gamma, t):
    """exp(-i xi n.sigma), n = Omega_lam / xi, written as a rotation."""
    c = (1.0 - lam) * gamma * t
    xi = math.hypot(z.real, z.imag, c)
    r = xi or 1.0
    cx, sx = math.cos(xi), -math.sin(xi)
    nx, ny, nz = z.real / r, z.imag / r, -c / r
    return np.array([[cx + 1j * sx * nz, 1j * sx * (nx - 1j * ny)],
                     [1j * sx * (nx + 1j * ny), cx - 1j * sx * nz]])


N = 400


@pytest.fixture
def draws():
    rng = np.random.default_rng(21)
    d = {
        "alpha": rng.uniform(-6.0, 6.0, N),
        "beta": rng.uniform(0.0, 2.0, N),
        "gamma": rng.uniform(-2.0, 2.0, N),
        "lam": rng.uniform(0.0, 1.0, N),
        "t1": rng.uniform(0.0, 10.0, N),
    }
    d["t2"] = d["t1"] + rng.uniform(0.0, 10.0, N)
    d["t3"] = d["t2"] + rng.uniform(0.0, 5.0, N)
    d["t"] = d["t3"] + rng.uniform(0.01, 10.0, N)
    d["z"] = rng.uniform(-6.0, 6.0, N) + 1j * rng.uniform(-6.0, 6.0, N)
    return d


def _worst(stack, reference, *columns):
    assert stack.shape == (N, 2, 2)
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return max(float(np.max(np.abs(stack[k] - reference(*row)))) for k, row in enumerate(rows))


def test_kick_sequences_match_the_scalar_reference(draws):
    a, g, t1, t2, t3, t = (draws[k] for k in ("alpha", "gamma", "t1", "t2", "t3", "t"))
    one = prop.kick_sequence_propagator(((a, t1),), g, t)
    assert _worst(one, lambda *r: reference_kick_sequence_propagator(((r[0], r[1]),), r[2], r[3]),
                  a, t1, g, t) <= 1e-14
    three = prop.kick_sequence_propagator(((a, t1), (-a, t2), (0.5 * a, t3)), g, t)
    worst = _worst(
        three,
        lambda a_, t1_, t2_, t3_, g_, t_: reference_kick_sequence_propagator(
            ((a_, t1_), (-a_, t2_), (0.5 * a_, t3_)), g_, t_),
        a, t1, t2, t3, g, t,
    )
    assert worst <= 1e-14


def test_rectangular_matches_the_scalar_reference(draws):
    a, b, g, t1, t = (draws[k] for k in ("alpha", "beta", "gamma", "t1", "t"))
    b = np.where(np.arange(N) % 10 == 0, 1e-6 * b, b)  # some inside the old series branch
    stack = prop.rectangular_propagator(a, b, g, t1, t)
    assert _worst(stack, reference_rectangular_propagator, a, b, g, t1, t) <= 1e-14


def test_no_ordering_matches_the_rotation_reference(draws):
    z, lam, g, t = (draws[k] for k in ("z", "lam", "gamma", "t"))
    for frame in (0.0, 1.0, lam):
        stack = prop.no_ordering(z, frame, g, t)
        assert _worst(stack, reference_no_ordering, z, np.broadcast_to(frame, N), g, t) <= 1e-14
    # xi = 0 is the identity on both routes
    assert np.array_equal(prop.no_ordering(np.zeros(3, complex), 0.0, 1.0, 0.0)[1], np.eye(2))


@pytest.mark.parametrize(
    "build",
    [
        lambda x: pauli_exponential(x, X_AXIS),
        lambda x: prop.free_propagator(0.7, x),
        lambda x: prop.degenerate_propagator(x),
        lambda x: prop.no_ordering(x, 0.0, 0.7, 2.0),
        lambda x: prop.no_ordering(prop.kick_integral(((x, 0.5), (-x, 1.5)), 1.0, 0.7), 1.0, 0.7, 2.0),
        lambda x: prop.kick_sequence_propagator(((x, 0.5), (-x, 1.5)), 0.7, 2.0),
        lambda x: prop.rectangular_propagator(x, 0.3, 0.7, 1.0, 2.0),
        lambda x: prop.floquet_eigenphases(x, 0.7).one_period,
    ],
)
def test_scalar_gives_a_matrix_and_an_array_gives_a_stack(build):
    xs = np.linspace(-2.0, 2.0, 7)
    assert build(0.4).shape == (2, 2)
    stack = build(xs)
    assert stack.shape == (7, 2, 2)
    for k, x in enumerate(xs.tolist()):
        assert np.max(np.abs(stack[k] - build(x))) <= 1e-15


def test_floquet_fields_have_one_entry_per_point():
    res = prop.floquet_eigenphases(np.linspace(0.0, 3.0, 5), 0.7)
    assert res.chi.shape == (5,)
    assert [v.shape for v in res.eigenvectors] == [(5, 2), (5, 2)]
    one = prop.floquet_eigenphases(1.1, 0.7)
    assert np.ndim(one.chi) == 0 and one.eigenvectors[0].shape == (2,)


@pytest.mark.parametrize(
    "t2",
    [
        np.array([2.0, 0.5, 3.0]),  # the second kick of one entry before its first
        np.array([2.0, math.nan, 3.0]),
        np.array([2.0, 9.0, 3.0]),  # a kick at or after t
    ],
)
def test_one_bad_kick_in_a_batch_raises(t2):
    with pytest.raises(ValueError, match="kicks must be time-ordered inside"):
        prop.kick_sequence_propagator(((1.0, np.ones(3)), (-1.0, t2)), 0.7, np.full(3, 5.0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "build, name",
    [
        (lambda x: prop.kick_sequence_propagator(((x, 1.0),), 1.0, 2.0), "alpha_k"),
        (lambda x: prop.kick_sequence_propagator(((1.0, 0.5), (x, 1.0)), 1.0, 2.0), "alpha_k"),
        (lambda x: prop.kick_sequence_propagator(((1.0, 1.0),), x, 2.0), "gamma"),
        (lambda x: prop.kick_sequence_propagator(((1.0, 1.0),), 1.0, np.array([2.0, x])), "t"),
        (lambda x: prop.rectangular_propagator(x, 0.1, 1.0, 1.0, 2.0), "alpha"),
        (lambda x: prop.rectangular_propagator(1.0, np.array([0.1, x, 0.2]), 1.0, 1.0, 2.0), "beta"),
        (lambda x: prop.rectangular_propagator(1.0, 0.1, x, 1.0, 2.0), "gamma"),
        (lambda x: prop.rectangular_propagator(1.0, 0.1, 1.0, x, 2.0), "t_kick"),
        (lambda x: prop.rectangular_propagator(1.0, 0.1, 1.0, 1.0, x), "t"),
    ],
    ids=["kick", "second-kick", "kick-gamma", "kick-t-row", "rect-alpha", "rect-beta-row",
         "rect-gamma", "rect-t_kick", "rect-t"],
)
def test_non_finite_input_names_the_argument(build, name, bad):
    # a clean ValueError, not numpy's invalid-value warning and a NaN matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got .*{bad!r}"):
            build(bad)


def test_one_bad_axis_row_or_angle_raises():
    axes = np.tile(X_AXIS, (4, 1))
    pauli_exponential(np.zeros(4), axes)
    axes[2] = (1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match=r"axis must have unit norm to 1e-12, got array\(\[1\., 1\., 0\.\]\)"):
        pauli_exponential(np.zeros(4), axes)
    axes[2] = (math.nan, 0.0, 0.0)
    with pytest.raises(ValueError, match="unit norm"):
        pauli_exponential(np.zeros(4), axes)
    with pytest.raises(ValueError, match=r"phi must be finite, got np.float64\(inf\)"):
        pauli_exponential(np.array([0.0, math.inf]), X_AXIS)


def test_scalar_messages_are_unchanged():
    with pytest.raises(ValueError, match=r"^axis must have unit norm to 1e-12, got \(1\.0, 1\.0, 0\.0\)$"):
        pauli_exponential(1.0, (1.0, 1.0, 0.0))
    with pytest.raises(ValueError, match=r"^phi must be finite, got nan$"):
        pauli_exponential(math.nan, Z_AXIS)
    with pytest.raises(ValueError, match=r"^kicks must be time-ordered inside \[0, t\)$"):
        prop.kick_sequence_propagator(((1.0, 2.0), (0.5, 1.0)), 1.0, 3.0)


def _floquet_points():
    axis = np.linspace(0.0, math.pi, 50)
    alphas, gts = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    # alpha = pi with gamma T = 0 or pi: the one-period matrix is +-1 up to rounding
    return np.append(alphas, [math.pi, math.pi]), np.append(gts, [0.0, math.pi])


def _phase_fixed(v):
    v = v / np.linalg.norm(v)
    lead = v[0] if abs(v[0]) > 1e-12 else v[1]
    return v * (abs(lead) / lead)


def test_closed_form_floquet_vectors():
    alphas, gts = _floquet_points()
    res = prop.floquet_eigenphases(alphas, gts)
    v_plus, v_minus = res.eigenvectors
    for v, sign in ((v_plus, 1.0), (v_minus, -1.0)):
        lam = np.exp(sign * 1j * res.chi)[:, None]
        assert np.max(np.abs(np.einsum("nij,nj->ni", res.one_period, v) - lam * v)) <= 1e-12
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) <= 1e-12
        lead = np.where(np.abs(v[:, 0]) > 1e-12, v[:, 0], v[:, 1])
        assert np.all(lead.real > 0.0)
        assert np.max(np.abs(lead.imag)) <= 1e-15
    assert np.max(np.abs(np.sum(np.conj(v_plus) * v_minus, axis=1))) <= 1e-12
    compared = 0
    for k in np.flatnonzero(np.sin(res.chi) >= 1e-6).tolist():
        eigvals, eigvecs = np.linalg.eig(res.one_period[k])
        plus = int(np.argmin(np.abs(eigvals - np.exp(1j * res.chi[k]))))
        assert np.max(np.abs(_phase_fixed(eigvecs[:, plus]) - v_plus[k])) <= 1e-12
        assert np.max(np.abs(_phase_fixed(eigvecs[:, 1 - plus]) - v_minus[k])) <= 1e-12
        compared += 1
    assert compared > 2000
