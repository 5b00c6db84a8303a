import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kickedqubit import propagators as prop
from kickedqubit.analysis import error_scaling_fit
from kickedqubit.evolve import IntegratorConfig, no_ordering_numeric, rk4_propagator
from kickedqubit.pulses import (
    PulseEvaluationError,
    PulseShape,
    SystemParams,
    gaussian,
    hydrogen_2s2p,
    ideal_kick,
    rectangular,
    unit_system,
)
from kickedqubit.su2 import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    X_AXIS,
    Z_AXIS,
    max_abs_diff,
    pauli_exponential,
    probabilities,
    unitarity_defect,
)


class TestFreeAndDegenerate:
    def test_free_at_t_zero(self):
        assert max_abs_diff(prop.free_propagator(1.0, 0.0), IDENTITY) == 0.0

    def test_free_half_period_is_minus_identity(self):
        u = prop.free_propagator(1.0, math.pi)
        assert max_abs_diff(u, -IDENTITY) < 1e-15

    def test_free_never_transfers(self):
        for t in (0.3, 2.0, 11.0):
            p1, p2 = probabilities(prop.free_propagator(1.0, t), (1.0, 0.0))
            assert p1 == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_full_transfer(self):
        _, p2 = probabilities(prop.degenerate_propagator(math.pi / 2), (1.0, 0.0))
        assert p2 == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_identity_and_half(self):
        assert max_abs_diff(prop.degenerate_propagator(0.0), IDENTITY) == 0.0
        _, p2 = probabilities(prop.degenerate_propagator(math.pi / 4), (1.0, 0.0))
        assert p2 == pytest.approx(0.5, abs=1e-14)


def _bare(alpha, gamma_t):
    """The bare-frame (lam = 0) no-ordering matrix of a running strength alpha."""
    return prop.no_ordering(alpha, 0.0, gamma_t, 1.0)


def _rotating(kicks, gamma):
    """The rotating-frame (lam = 1) no-ordering matrix of kicks (a_k, T_k)."""
    return prop.no_ordering(prop.kick_integral(kicks, 1.0, gamma), 1.0, gamma, 0.0)


class TestNoOrderingSchrodinger:
    def test_reduces_to_degenerate(self):
        u = _bare(0.9, 0.0)
        assert max_abs_diff(u, prop.degenerate_propagator(0.9)) < 1e-15

    def test_reduces_to_free(self):
        u = _bare(0.0, 1.3)
        assert max_abs_diff(u, prop.free_propagator(1.0, 1.3)) < 1e-15

    def test_transfer_zero_at_full_rotation(self):
        # alpha = pi/2 with gamma t = sqrt(3)/2 pi makes xi = pi
        u = _bare(math.pi / 2, math.sqrt(3) / 2 * math.pi)
        _, p2 = probabilities(u, (1.0, 0.0))
        assert p2 == pytest.approx(0.0, abs=1e-25)

    @given(st.floats(-4, 4), st.floats(-4, 4))
    @settings(max_examples=100, deadline=None)
    def test_matches_matrix_exponential(self, alpha, gamma_t):
        u = _bare(alpha, gamma_t)
        h = -gamma_t * np.array([[1, 0], [0, -1]]) + alpha * np.array([[0, 1], [1, 0]])
        assert max_abs_diff(u, expm(-1j * h)) < 1e-12


class TestNoOrderingInteraction:
    def test_single_full_transfer(self):
        u = _rotating(((math.pi / 2, 0.35),), 1.0)
        _, p2 = probabilities(u, (1.0, 0.0))
        assert p2 == pytest.approx(1.0, abs=1e-14)

    def test_single_width_damping(self):
        beta = math.sqrt(math.log(2.0))  # e^{-beta^2} = 1/2
        u = _rotating(((math.pi / 2 * math.exp(-beta * beta), 0.0),), 1.0)
        _, p2 = probabilities(u, (1.0, 0.0))
        assert p2 == pytest.approx(0.5, rel=1e-12)

    def test_single_equals_rotated_kick(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            alpha = rng.uniform(-3, 3)
            gamma = rng.uniform(0, 2)
            tk = rng.uniform(0, 5)
            t = tk + rng.uniform(0.01, 5)
            kick = ((alpha, tk),)
            rotated = pauli_exponential(-gamma * t, Z_AXIS) @ prop.kick_sequence_propagator(
                kick, gamma, t
            )
            u0 = _rotating(kick, gamma)
            assert max_abs_diff(rotated, u0) < 1e-12

    def test_double_identity_at_full_period(self):
        a = 1.1 * math.exp(-0.3**2)
        u = _rotating(((a, 0.0), (-a, math.pi)), 1.0)  # gamma Ts = pi
        assert max_abs_diff(u, IDENTITY) < 1e-15

    def test_double_full_transfer(self):
        pair = ((math.pi / 4, 0.0), (-math.pi / 4, math.pi / 2))
        u = _rotating(pair, 1.0)
        assert abs(u[0, 1]) == pytest.approx(1.0, rel=1e-14)

    def test_double_matches_exponential_of_average(self):
        # independent route: exponentiate the averaged rotated coupling
        gamma, t1, t2 = 0.9, 0.7, 0.7 + math.pi / 3 / 0.9
        a = 3 * math.pi / 8 * math.exp(-0.0323**2)
        # each completed gaussian contributes alpha_k e^{-beta^2} e^{2 i gamma T_k}
        avg = a * (np.exp(2j * gamma * t1) - np.exp(2j * gamma * t2))
        u_ref = expm(-1j * (avg.real * SIGMA_X + avg.imag * SIGMA_Y))
        u = _rotating(((a, t1), (-a, t2)), gamma)
        assert max_abs_diff(u, u_ref) < 1e-10


class TestKickedPropagator:
    def test_full_transfer_any_times(self):
        for gamma, tk, t in ((0.0, 1.0, 2.0), (0.8, 3.0, 9.0), (2.0, 0.1, 0.2)):
            u = prop.kick_sequence_propagator(((math.pi / 2, tk),), gamma, t)
            _, p2 = probabilities(u, (1.0, 0.0))
            assert p2 == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_form(self):
        u = prop.kick_sequence_propagator(((0.9, 1.0),), 0.0, 2.0)
        assert max_abs_diff(u, prop.degenerate_propagator(0.9)) < 1e-15

    def test_requires_time_after_kick(self):
        with pytest.raises(ValueError):
            prop.kick_sequence_propagator(((1.0, 2.0),), 1.0, 2.0)

    def test_factor_product_structure(self):
        alpha, gamma, tk, t = 1.2, 0.7, 1.5, 4.0
        product = (
            pauli_exponential(gamma * (t - tk), Z_AXIS)
            @ prop.degenerate_propagator(alpha)
            @ pauli_exponential(gamma * tk, Z_AXIS)
        )
        u = prop.kick_sequence_propagator(((alpha, tk),), gamma, t)
        assert max_abs_diff(u, product) < 1e-14

    def test_narrow_gaussian_rk4_extrapolation(self):
        # tau -> 0 oracle: two RK4 runs, linear extrapolation in tau removes
        # the O(beta) width correction and leaves ~beta^2 ~ 1e-7
        params = hydrogen_2s2p()
        target = prop.kick_sequence_propagator(((math.pi / 2, 150.0),), params.gamma, 300.0)
        u_01 = rk4_propagator([gaussian(math.pi / 2, 0.1, 150.0)], params, 0.0, 300.0,
                              IntegratorConfig(dt=0.002))
        u_005 = rk4_propagator([gaussian(math.pi / 2, 0.05, 150.0)], params, 0.0, 300.0,
                               IntegratorConfig(dt=0.001))
        assert max_abs_diff(2.0 * u_005 - u_01, target) < 1e-6
        # the un-extrapolated deviation is the known O(beta) diagonal term
        g = prop.kick_correction_shape_factor(math.pi / 2, PulseShape.GAUSSIAN)
        beta = params.gamma * 0.1
        assert max_abs_diff(u_01, target) == pytest.approx(beta * g, rel=0.05)


class TestKickAntikick:
    def test_full_return(self):
        # gamma Ts = pi/2 with alpha = pi/2: on at t1, back off at t2
        pair = ((math.pi / 2, 1.0), (-math.pi / 2, 1.0 + math.pi / 2))
        _, p2 = probabilities(prop.kick_sequence_propagator(pair, 1.0, 4.0), (1.0, 0.0))
        assert p2 == pytest.approx(0.0, abs=1e-15)

    def test_full_transfer(self):
        pair = ((math.pi / 4, 1.0), (-math.pi / 4, 1.0 + math.pi / 2))
        _, p2 = probabilities(prop.kick_sequence_propagator(pair, 1.0, 4.0), (1.0, 0.0))
        assert p2 == pytest.approx(1.0, abs=1e-12)

    def test_coalescing_kicks_give_free_evolution(self):
        u = prop.kick_sequence_propagator(((1.3, 1.0), (-1.3, 1.0)), 0.8, 5.0)
        assert max_abs_diff(u, prop.free_propagator(0.8, 5.0)) < 1e-14

    def test_requires_time_after_second_kick(self):
        with pytest.raises(ValueError):
            prop.kick_sequence_propagator(((1.0, 0.0), (-1.0, 2.0)), 1.0, 2.0)

    @given(
        st.floats(-6, 6), st.floats(-2, 2), st.floats(0, 10), st.floats(0, 10),
        st.floats(1e-3, 10),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_five_factor_numpy_product(self, alpha, gamma, t1, ts, dt_after):
        # the (p, q) composition against the same factors multiplied as numpy matrices
        t2 = t1 + ts
        t = t2 + dt_after
        reference = (
            pauli_exponential(gamma * (t - t2), Z_AXIS)
            @ pauli_exponential(alpha, X_AXIS)
            @ pauli_exponential(gamma * (t2 - t1), Z_AXIS)
            @ pauli_exponential(-alpha, X_AXIS)
            @ pauli_exponential(gamma * t1, Z_AXIS)
        )
        u = prop.kick_sequence_propagator(((alpha, t1), (-alpha, t2)), gamma, t)
        assert max_abs_diff(u, reference) <= 1e-15

    @given(st.floats(-3, 3), st.floats(0.01, 2), st.floats(0, 4), st.floats(0.01, 6), st.floats(0.01, 5))
    @settings(max_examples=150, deadline=None)
    def test_closed_form_elements(self, alpha, gamma, t1, ts, dt_after):
        # the factor product must reproduce the closed-form matrix entries
        t2 = t1 + ts
        t = t2 + dt_after
        u = prop.kick_sequence_propagator(((alpha, t1), (-alpha, t2)), gamma, t)
        zeta = gamma * (t - ts)
        gts = gamma * ts
        u11 = np.exp(1j * zeta) * (math.cos(gts) + 1j * math.sin(gts) * math.cos(2 * alpha))
        u12 = np.exp(1j * gamma * (t - t1 - t2)) * math.sin(gts) * math.sin(2 * alpha)
        assert abs(u[0, 0] - u11) < 1e-12
        assert abs(u[0, 1] - u12) < 1e-12
        assert abs(u[1, 0] + np.conj(u12)) < 1e-12
        assert abs(u[1, 1] - np.conj(u11)) < 1e-12
        p2_closed = math.sin(gts) ** 2 * math.sin(2 * alpha) ** 2
        assert abs(probabilities(u, (1.0, 0.0))[1] - p2_closed) < 1e-12

    def test_probability_closed_form_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            alpha, gamma = rng.uniform(-3, 3), rng.uniform(0.01, 2)
            t1, t2 = rng.uniform(0, 3), rng.uniform(3, 8)
            t = t2 + rng.uniform(0.1, 4)
            u = prop.kick_sequence_propagator(((alpha, t1), (-alpha, t2)), gamma, t)
            _, p2 = probabilities(u, (1.0, 0.0))
            expected = math.sin(gamma * (t2 - t1)) ** 2 * math.sin(2 * alpha) ** 2
            assert abs(p2 - expected) < 1e-12


def _flip(u, gamma):
    # sigma_x H(gamma) sigma_x = H(-gamma): the routes that need gamma >= 0 cover gamma < 0
    return SIGMA_X @ u @ SIGMA_X if gamma < 0.0 else u


class TestKickSequence:
    """Any number of ideal kicks, against routes that share no code with it."""

    KICKS = st.lists(st.tuples(st.floats(-3, 3), st.floats(0, 30)), min_size=1, max_size=6).map(
        lambda ks: sorted(ks, key=lambda k: k[1])
    )

    @given(KICKS, st.floats(-2, 2), st.floats(1e-3, 5))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_explicit_factor_product(self, kicks, gamma, dt_after):
        t = kicks[-1][1] + dt_after
        product, last = IDENTITY, 0.0
        for alpha, tk in kicks:
            free = prop.free_propagator(abs(gamma), tk - last)
            product = prop.degenerate_propagator(alpha) @ free @ product
            last = tk
        product = prop.free_propagator(abs(gamma), t - last) @ product
        u = prop.kick_sequence_propagator(kicks, gamma, t)
        assert max_abs_diff(u, _flip(product, gamma)) <= 1e-13

    @given(KICKS, st.floats(-2, 2))
    @settings(max_examples=200, deadline=None)
    def test_no_ordering_matches_the_numeric_kick_sum(self, kicks, gamma):
        pulses = [ideal_kick(alpha, tk) for alpha, tk in kicks]
        u_num = no_ordering_numeric(pulses, SystemParams(abs(gamma)), 30.0, 1.0)
        u = _rotating(kicks, gamma)
        assert max_abs_diff(u, _flip(u_num, gamma)) <= 1e-13

    @given(KICKS, st.floats(0, 2), st.floats(0, 1), st.floats(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_no_ordering_family_matches_the_numeric_route(self, kicks, gamma, lam, dt_after):
        # every frame lam in [0, 1], not only the bare (0) and rotating (1) ones
        t = kicks[-1][1] + dt_after
        pulses = [ideal_kick(alpha, tk) for alpha, tk in kicks]
        u = prop.no_ordering(prop.kick_integral(kicks, lam, gamma), lam, gamma, t)
        u_num = no_ordering_numeric(pulses, SystemParams(gamma), t, lam)
        assert max_abs_diff(u, u_num) <= 1e-12
        assert unitarity_defect(u) <= 1e-13

    def test_no_kicks_is_free_evolution(self):
        u = prop.kick_sequence_propagator((), 0.8, 5.0)
        assert max_abs_diff(u, prop.free_propagator(0.8, 5.0)) < 1e-15
        assert max_abs_diff(_rotating((), 0.8), IDENTITY) == 0.0

    @pytest.mark.parametrize(
        "kicks, t",
        [
            (((1.0, 2.0), (0.5, 1.0)), 3.0),  # out of time order
            (((1.0, 4.0),), 3.0),  # a kick after t
            (((1.0, -0.5),), 3.0),  # a kick before 0
            (((1.0, math.nan),), 3.0),
        ],
    )
    def test_rejects_kicks_outside_time_order(self, kicks, t):
        with pytest.raises(ValueError, match="time-ordered"):
            prop.kick_sequence_propagator(kicks, 1.0, t)


class TestRectangular:
    def test_beta_zero_is_kicked(self):
        u = prop.rectangular_propagator(1.1, 0.0, 0.7, 2.0, 5.0)
        assert max_abs_diff(u, prop.kick_sequence_propagator(((1.1, 2.0),), 0.7, 5.0)) < 1e-15

    def test_alpha_zero_is_free(self):
        u = prop.rectangular_propagator(0.0, 0.4, 0.8, 2.0, 5.0)
        assert max_abs_diff(u, prop.free_propagator(0.8, 5.0)) < 1e-14

    def test_matches_rk4(self):
        alpha = beta = 0.5
        gamma = 0.8
        tau = beta / gamma
        u = prop.rectangular_propagator(alpha, beta, gamma, tau, 3.0 * tau)
        u_num = rk4_propagator([rectangular(alpha, tau, tau)], SystemParams(gamma),
                               0.0, 3.0 * tau, IntegratorConfig(dt=tau / 1e4))
        assert max_abs_diff(u, u_num) < 1e-8


class TestKickCorrections:
    def test_rect_shape_factor_at_half_pi(self):
        g = prop.kick_correction_shape_factor(math.pi / 2, PulseShape.RECTANGULAR)
        assert g == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_rect_shape_factor_small_alpha_series(self):
        for alpha in (1e-3, 3e-3, 1e-2):
            g = prop.kick_correction_shape_factor(alpha, PulseShape.RECTANGULAR)
            assert g == pytest.approx(alpha**2 / 3.0, rel=1e-4)

    def test_gaussian_shape_factor_frozen(self):
        # quadrature oracle value, frozen
        g = prop.kick_correction_shape_factor(math.pi / 2, PulseShape.GAUSSIAN)
        assert g == pytest.approx(1.4897897047672695, rel=1e-12)

    def test_leading_residual_scales_as_beta_squared(self):
        alpha, gamma, tk, t = 1.2, 0.7, 2.0, 5.0
        betas = np.geomspace(1e-3, 3e-2, 8)
        resid = []
        for beta in betas:
            delta = (
                prop.rectangular_propagator(alpha, float(beta), gamma, tk, t)
                - prop.kick_sequence_propagator(((alpha, tk),), gamma, t)
                - prop.kick_correction_leading(alpha, float(beta), gamma, t, PulseShape.RECTANGULAR)
            )
            resid.append(float(np.max(np.abs(delta))))
        fit = error_scaling_fit(betas, resid)
        assert fit.slope == pytest.approx(2.0, abs=0.2)

    def test_gaussian_leading_correction_vs_rk4(self):
        # finite-width deviation of a gaussian pulse matches i beta g(alpha) structure
        params = hydrogen_2s2p()
        alpha, tk, t = 1.1, 150.0, 300.0
        uk = prop.kick_sequence_propagator(((alpha, tk),), params.gamma, t)
        for tau in (2.0, 4.0):
            beta = params.gamma * tau
            u = rk4_propagator([gaussian(alpha, tau, tk)], params, 0.0, t,
                               IntegratorConfig(dt=tau / 2000.0))
            corr = prop.kick_correction_leading(alpha, beta, params.gamma, t, PulseShape.GAUSSIAN)
            assert max_abs_diff(u, uk + corr) < 2.0 * beta * beta

class TestCommutatorCorrection:
    """Leading term of (kick - bare-frame average): i gamma sigma_y int (t - 2 t') v dt'."""

    def test_symmetric_pulse_centered_at_half_time(self):
        # the leading term vanishes for an envelope symmetric about t / 2
        alpha, gamma, t = 1e-3, 1e-3, 10.0
        u = rk4_propagator([gaussian(alpha, 1.0, 5.0)], SystemParams(gamma), 0.0, t)
        diff = u - prop.no_ordering(alpha, 0.0, gamma, t)
        assert np.max(np.abs(diff)) < 0.01 * gamma * alpha * t

    def test_constant_envelope_vanishes(self):
        # a rectangle filling [0, t] is a constant Hamiltonian: no ordering effect at all
        alpha, gamma, t = 1.0, 0.7, 10.0
        u = prop.rectangular_propagator(alpha, gamma * t, gamma, 0.5 * t, t)
        assert max_abs_diff(u, prop.no_ordering(alpha, 0.0, gamma, t)) < 1e-12

    def test_kick_off_center_structure(self):
        # J = alpha (t - 2 T_k): the term flips sign when the kick is mirrored about t / 2
        alpha, gamma, t = 1e-3, 1e-3, 10.0
        u0 = prop.no_ordering(alpha, 0.0, gamma, t)
        for tk in (1.0, 3.0, 7.0, 9.0):
            diff = prop.kick_sequence_propagator(((alpha, tk),), gamma, t) - u0
            predicted = 1j * gamma * alpha * (t - 2.0 * tk) * SIGMA_Y
            assert max_abs_diff(diff, predicted) < 0.01 * np.max(np.abs(predicted))

    def test_predicts_leading_ordering_effect(self):
        # small alpha, small gamma*t: U_kick - U_average approaches this term
        alpha, gamma, tk, t = 1e-3, 1e-3, 6.0, 10.0
        u0 = prop.no_ordering(alpha, 0.0, gamma, t)
        diff = prop.kick_sequence_propagator(((alpha, tk),), gamma, t) - u0
        predicted = 1j * gamma * alpha * (t - 2.0 * tk) * SIGMA_Y
        assert max_abs_diff(diff, predicted) < 0.05 * np.max(np.abs(predicted))


class TestAdiabatic:
    def test_no_coupling_gives_free(self):
        u = prop.adiabatic_propagator([], unit_system(), 4.0)
        assert max_abs_diff(u, prop.free_propagator(1.0, 4.0)) < 1e-12

    def test_degenerate_constant_coupling(self):
        # splitting zero: reduces to a pure strength rotation
        pulse = [gaussian(0.4, 1.0, 10.0)]
        u = prop.adiabatic_propagator(pulse, SystemParams(0.0), 20.0)
        assert max_abs_diff(u, prop.degenerate_propagator(0.4)) < 1e-9

    @pytest.mark.parametrize(
        "pulses, t, alpha",
        [
            # v is exactly 0 at both endpoints, so atan2(v, 0) cannot give the mixing angle
            ([gaussian(0.4, 1.0, 10.0)], 50.0, 0.4),
            ([gaussian(0.4, 1.0, 40.0)], 80.0, 0.4),
            ([gaussian(-0.7, 2.0, 20.0)], 40.0, -0.7),
            # a cancelling pair: theta is signed, so the net rotation is the identity
            ([gaussian(1.0, 5.0, 50.0), gaussian(-1.0, 5.0, 60.0)], 100.0, 0.0),
            # backwards in time, U(t, 0) undoes the pulse
            ([gaussian(0.4, 0.5, -3.0)], -6.0, -0.4),
        ],
    )
    def test_degenerate_is_the_signed_strength_rotation(self, pulses, t, alpha):
        u = prop.adiabatic_propagator(pulses, SystemParams(0.0), t)
        assert max_abs_diff(u, prop.degenerate_propagator(alpha)) < 1e-12

    def test_degenerate_theta_is_not_monotone(self):
        pair = [gaussian(1.0, 5.0, 50.0), gaussian(-1.0, 5.0, 60.0)]
        between = prop.adiabatic_phase(pair, SystemParams(0.0), 55.0)
        after = prop.adiabatic_phase(pair, SystemParams(0.0), 100.0)
        assert between.theta > 0.5 > abs(after.theta)
        assert between.phi_0 == between.phi_t == after.phi_t == math.pi / 2

    def test_deep_adiabatic_matches_rk4(self):
        params = unit_system()
        pulse = [gaussian(0.05, 5.0, 40.0)]  # alpha = 0.05, beta = 5
        u = prop.adiabatic_propagator(pulse, params, 80.0)
        u_num = rk4_propagator(pulse, params, 0.0, 80.0, IntegratorConfig(dt=0.02))
        assert max_abs_diff(u, u_num) < 1e-2
        assert unitarity_defect(u) < 1e-12

    def test_theta_monotone(self):
        params = unit_system()
        pulse = [gaussian(0.8, 2.0, 15.0)]
        thetas = [prop.adiabatic_phase(pulse, params, t).theta for t in (5.0, 10.0, 15.0, 20.0, 30.0)]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))

    def test_phase_angles_at_endpoints(self):
        # constant coupling: both endpoint mixing angles equal atan(v/gamma)
        phase = prop.adiabatic_phase([rectangular(0.6, 4.0, 2.0)], unit_system(), 4.0)
        expected = math.atan2(0.15, 1.0)
        assert phase.phi_0 == pytest.approx(expected, rel=1e-12)
        assert phase.phi_t == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_kick_rejected_at_any_splitting(self, gamma):
        # a kick has no mixing angle; gamma = 0 needs no angle either, yet rejects it too
        pulses = [gaussian(0.4, 1.0, 10.0), ideal_kick(0.3, 5.0)]
        with pytest.raises(PulseEvaluationError):
            prop.adiabatic_phase(pulses, SystemParams(gamma), 20.0)


class TestFloquet:
    def test_alpha_zero(self):
        res = prop.floquet_eigenphases(0.0, 0.7)
        assert res.chi == pytest.approx(0.7, rel=1e-12)

    def test_half_pi_kick_pins_chi(self):
        for gt in (0.0, 0.3, 1.5, 3.0):
            assert prop.floquet_eigenphases(math.pi / 2, gt).chi == pytest.approx(
                math.pi / 2, rel=1e-12
            )

    def test_reference_point(self):
        res = prop.floquet_eigenphases(math.pi / 3, math.pi / 4)
        assert res.chi == pytest.approx(1.2094292028881888, rel=1e-10)

    def test_eigenpairs_on_grid(self):
        for alpha in np.linspace(0.0, math.pi, 50):
            for gt in np.linspace(0.0, math.pi, 50):
                res = prop.floquet_eigenphases(float(alpha), float(gt))
                eigvals = np.linalg.eigvals(res.one_period)
                chi_num = float(np.max(np.abs(np.angle(eigvals))))
                assert abs(chi_num - res.chi) < 1e-10

    def test_eigenvectors_are_eigenvectors(self):
        res = prop.floquet_eigenphases(1.1, 0.9)
        v_plus, v_minus = res.eigenvectors
        assert np.linalg.norm(res.one_period @ v_plus - np.exp(1j * res.chi) * v_plus) < 1e-12
        assert np.linalg.norm(res.one_period @ v_minus - np.exp(-1j * res.chi) * v_minus) < 1e-12
        assert v_plus[0].imag == pytest.approx(0.0, abs=1e-14)
        assert v_plus[0].real > 0.0


class TestLimitWeb:
    """Each closed form reduces to its neighbors at small parameter offsets."""

    OFFSET = 1e-6
    TOL = 1e-5

    def test_bare_average_to_degenerate(self):
        d = max_abs_diff(
            _bare(1.1, self.OFFSET), prop.degenerate_propagator(1.1)
        )
        assert d < self.TOL

    def test_bare_average_to_free(self):
        d = max_abs_diff(
            prop.no_ordering(self.OFFSET, 0.0, 0.8, 3.0),
            prop.free_propagator(0.8, 3.0),
        )
        assert d < self.TOL

    def test_kick_antikick_to_free(self):
        d = max_abs_diff(
            prop.kick_sequence_propagator(((1.1, 1.0), (-1.1, 1.0 + self.OFFSET)), 0.8, 3.0),
            prop.free_propagator(0.8, 3.0),
        )
        assert d < self.TOL

    def test_rectangular_to_kicked(self):
        d = max_abs_diff(
            prop.rectangular_propagator(1.1, self.OFFSET, 0.8, 1.0, 3.0),
            prop.kick_sequence_propagator(((1.1, 1.0),), 0.8, 3.0),
        )
        assert d < self.TOL

    def test_adiabatic_to_degenerate(self):
        # constant coupling over the whole window, splitting offset from zero
        u = prop.adiabatic_propagator([rectangular(0.3, 4.0, 2.0)], SystemParams(self.OFFSET), 4.0)
        assert max_abs_diff(u, prop.degenerate_propagator(0.3)) < self.TOL

    def test_adiabatic_to_free(self):
        u = prop.adiabatic_propagator([gaussian(self.OFFSET, 0.5, 4.0)], SystemParams(0.8), 8.0)
        assert max_abs_diff(u, prop.free_propagator(0.8, 8.0)) < self.TOL


def test_unitarity_random_sweep():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        alpha, beta = rng.uniform(-6, 6), rng.uniform(0, 2)
        gamma = rng.uniform(0, 2)
        t1 = rng.uniform(0, 10)
        t2 = t1 + rng.uniform(0, 10)
        t = t2 + rng.uniform(0.1, 10)
        a = alpha * math.exp(-beta * beta)
        for u in (
            prop.no_ordering(alpha, 0.0, gamma, t),
            _rotating(((a, t1),), gamma),
            _rotating(((a, t1), (-a, t2)), gamma),
            prop.kick_sequence_propagator(((alpha, t1),), gamma, t),
            prop.kick_sequence_propagator(((alpha, t1), (-alpha, t2)), gamma, t),
            prop.rectangular_propagator(alpha, beta, gamma, t1, t),
        ):
            worst = max(worst, unitarity_defect(u))
    assert worst < 1e-10


def test_perturbative_ordering_onset_in_rotating_frame():
    # kick-antikick: ordering effects start at alpha^2; off-diagonals at alpha^3
    gamma, t = 0.9, 4.5
    alphas = np.geomspace(3e-4, 3e-2, 8)
    full, offdiag = [], []
    for alpha in alphas.tolist():
        pair = ((alpha, 1.0), (-alpha, 3.0))
        u_i = pauli_exponential(-gamma * t, Z_AXIS) @ prop.kick_sequence_propagator(pair, gamma, t)
        diff = u_i - _rotating(pair, gamma)
        full.append(float(np.max(np.abs(diff))))
        offdiag.append(float(max(abs(diff[0, 1]), abs(diff[1, 0]))))
    assert error_scaling_fit(alphas, full).slope >= 1.95
    assert error_scaling_fit(alphas, offdiag).slope >= 2.95


def test_time_reversal_composition():
    rng = np.random.default_rng(5)
    for _ in range(300):
        alpha, gamma = rng.uniform(-3, 3), rng.uniform(0, 2)
        tk = rng.uniform(0.1, 5)
        t = tk + rng.uniform(0.1, 5)
        u = prop.kick_sequence_propagator(((alpha, tk),), gamma, t)
        u_rev = prop.kick_sequence_propagator(((-alpha, t - tk),), -gamma, t)
        assert max_abs_diff(u_rev @ u, IDENTITY) < 1e-10
        tf = t + rng.uniform(0.1, 3)
        u = prop.kick_sequence_propagator(((alpha, tk), (-alpha, t)), gamma, tf)
        u_rev = prop.kick_sequence_propagator(((alpha, tf - t), (-alpha, tf - tk)), -gamma, tf)
        assert max_abs_diff(u_rev @ u, IDENTITY) < 1e-10
