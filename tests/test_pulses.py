import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from kickedqubit import propagators as prop
from kickedqubit.evolve import interaction_integral, no_ordering_numeric
from kickedqubit.pulses import (
    HBAR_EV_PS,
    Pulse,
    PulseEvaluationError,
    PulseShape,
    SystemParams,
    envelope,
    envelope_array,
    gauss_legendre,
    gaussian,
    hydrogen_2s2p,
    ideal_kick,
    integrated_strength,
    rectangular,
    unit_system,
)
from kickedqubit.su2 import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    X_AXIS,
    max_abs_diff,
    pauli_exponential,
    probabilities,
)


class TestSystemParams:
    def test_hydrogen_preset(self):
        params = hydrogen_2s2p()
        assert params.rabi_time == pytest.approx(972.0)
        assert params.rabi_time * params.gamma == pytest.approx(math.pi, abs=1e-12)

    def test_unit_system(self):
        assert unit_system().gamma == 1.0

    def test_ev_round_trip(self):
        params = SystemParams.from_delta_e_ev(4.37e-6)
        # gamma = Delta_E / (2 hbar)
        assert params.gamma == pytest.approx(4.37e-6 / (2.0 * HBAR_EV_PS), rel=1e-14)
        # the eV value quoted alongside the 972 ps preset implies ~946 ps instead
        assert params.rabi_time == pytest.approx(946.3, abs=0.5)

    def test_degenerate(self):
        assert SystemParams(0.0).rabi_time == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(-1.0)

    @pytest.mark.parametrize("period", [0.0, -0.0, -3.0, math.nan, -math.inf])
    def test_rabi_time_must_be_positive(self, period):
        with pytest.raises(ValueError, match="rabi_time must be > 0"):
            SystemParams.from_rabi_time(period)

    def test_infinite_rabi_time_is_degenerate(self):
        assert SystemParams.from_rabi_time(math.inf).gamma == 0.0


class TestPulseEvaluation:
    def test_gaussian_peak_value(self):
        p = [gaussian(1.3, 2.0, 5.0)]
        assert envelope(p)(5.0) == pytest.approx(1.3 / (math.sqrt(math.pi) * 2.0), rel=1e-14)

    def test_gaussian_tail_negligible(self):
        p = [gaussian(1.0, 2.0, 5.0)]
        assert envelope(p)(5.0 + 16.0) < 1e-27 / 2.0

    def test_rectangular_top(self):
        top, outside = envelope_array([rectangular(0.8, 4.0, 10.0)], np.array([9.0, 12.5]))
        assert top == pytest.approx(0.2, rel=1e-14)
        assert outside == 0.0

    def test_kick_not_evaluable(self):
        with pytest.raises(PulseEvaluationError):
            envelope([ideal_kick(1.0, 0.0)])
        with pytest.raises(PulseEvaluationError):
            envelope([gaussian(1.0, 2.0, 5.0), ideal_kick(1.0, 0.0)])
        with pytest.raises(PulseEvaluationError):
            envelope_array([gaussian(1.0, 2.0, 5.0), ideal_kick(1.0, 0.0)], np.zeros(1))

    @pytest.mark.parametrize("make", [gaussian, rectangular])
    def test_overflowing_peak_rejected(self, make):
        # alpha / tau overflows to inf; envelope would give inf * 0 = nan everywhere
        with pytest.raises(ValueError, match="finite peak"):
            make(1e300, 1e-300, 1.0)

    @pytest.mark.parametrize("make", [gaussian, rectangular])
    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_finite_pulse_needs_a_width(self, make, tau):
        with pytest.raises(ValueError, match=r"^finite pulse shapes need tau > 0$"):
            make(1.0, tau, 5.0)

    @pytest.mark.parametrize("tau", [5.0, -1e-300, math.nan])
    def test_kick_has_no_width(self, tau):
        with pytest.raises(ValueError, match="a kick has no width, got tau="):
            Pulse(PulseShape.IDEAL_KICK, 1.0, tau, 0.0)

    def test_overlapping_pulses_add(self):
        p = [gaussian(1.0, 2.0, 5.0), gaussian(-1.0, 2.0, 5.0)]
        assert envelope(p)(4.0) == 0.0

    def test_envelope_array_matches_scalar(self):
        g, r = gaussian(0.7, 3.0, 8.0), rectangular(-0.2, 2.0, 4.0)
        ts = np.linspace(0.0, 16.0, 37)
        vals = envelope_array([g, r], ts)
        v = envelope([g])
        for t, val, rect in zip(ts, vals, r.value(ts)):
            assert val == pytest.approx(v(float(t)) + rect, abs=1e-15)


# The closure before each term was restricted to its window, kept as an
# independent reference: every gaussian at every t, then the rectangles.
def reference_envelope(pulses):
    gauss = [(p.peak, p.center, 1.0 / p.tau) for p in pulses if p.shape is PulseShape.GAUSSIAN]
    rect = [(p.peak, *p.window()) for p in pulses if p.shape is not PulseShape.GAUSSIAN]

    def v(t):
        total = 0.0
        for amp, c, inv_tau in gauss:
            u = (t - c) * inv_tau
            total += amp * math.exp(-u * u)
        for amp, lo, hi in rect:
            if lo <= t <= hi:
                total += amp
        return total

    return v


pulse_args = (
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)),
    st.floats(0.05, 5.0),
    st.floats(-20.0, 20.0),
)
gaussian_pulse = st.builds(gaussian, *pulse_args)
finite_pulse = st.one_of(gaussian_pulse, st.builds(rectangular, *pulse_args))
finite_pulses = st.lists(finite_pulse, min_size=1, max_size=4)


@st.composite
def pulses_and_time(draw):
    """A pulse mix and a time inside, exactly at an edge of, or outside one window."""
    pulses = draw(finite_pulses)
    lo, hi = draw(st.sampled_from(pulses)).window()
    t = draw(
        st.one_of(
            st.sampled_from([lo, hi]),
            st.floats(lo, hi),
            st.sampled_from([math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]),
            st.floats(-60.0, 60.0),
        )
    )
    return pulses, t


def _inside(p, t):
    lo, hi = p.window()
    return lo <= t <= hi


@given(pulses_and_time())
@settings(max_examples=400, deadline=None)
def test_envelope_matches_the_untruncated_closure(case):
    # the closure takes the gaussians; the rectangles follow through Pulse.value
    pulses, t = case
    got = envelope([p for p in pulses if p.shape is PulseShape.GAUSSIAN])(t)
    for p in pulses:
        if p.shape is PulseShape.RECTANGULAR:
            got += p.value(np.array(t)).item()
    want = reference_envelope(pulses)(t)
    skipped = [p for p in pulses if p.shape is PulseShape.GAUSSIAN and not _inside(p, t)]
    scale = sum(abs(p.peak) for p in pulses)
    if not skipped:
        assert got == want
    else:
        # each skipped tail is below |peak| e^-36; without it the running sum
        # may round differently, by at most an ulp of the sum per term
        tails = sum(abs(p.peak) for p in skipped) * math.exp(-36.0)
        assert abs(got - want) <= tails + len(pulses) * 2.0**-52 * scale
    for p in pulses:
        if p.shape is PulseShape.RECTANGULAR:
            assert p.value(np.array(t)) == (p.peak if _inside(p, t) else 0.0)
    array = envelope_array(pulses, np.array([t]))[0]
    assert abs(array - got) <= 1e-15 * max(1.0, scale)


# The closure as one loop over (amp, lo, hi, c, inv_tau) terms, before it was
# written out per gaussian count: the reference for bit-for-bit agreement.
def loop_envelope(pulses):
    terms = [(p.peak, *p.window(), p.center, 1.0 / p.tau) for p in pulses]

    def v(t):
        total = 0.0
        for amp, lo, hi, c, inv_tau in terms:
            if lo <= t <= hi:
                u = (t - c) * inv_tau
                total += amp * math.exp(-u * u)
        return total

    return v


@given(st.lists(gaussian_pulse, max_size=4), st.lists(st.floats(-60.0, 60.0), max_size=8))
@settings(max_examples=300, deadline=None)
def test_envelope_is_the_term_loop_bit_for_bit(pulses, times):
    # random times, every center and edge, and the floats either side of each edge
    edges = [x for p in pulses for x in p.window()]
    times += [p.center for p in pulses] + edges
    times += [math.nextafter(x, d) for x in edges for d in (-math.inf, math.inf)]
    got, want = envelope(pulses), loop_envelope(pulses)
    for t in times:
        assert got(t).hex() == want(t).hex()  # value and sign of zero


def test_one_compiled_closure_per_shape_signature():
    # one code object per gaussian count; the kernel adds a rectangle as its
    # constant coupling, so the closure refuses one
    pair = envelope([gaussian(1.0, 2.0, 5.0), gaussian(-0.5, 1.0, 9.0)])
    other_pair = envelope([gaussian(0.3, 4.0, -2.0), gaussian(2.0, 0.5, 40.0)])
    triple = envelope([gaussian(1.0, 2.0, 5.0), gaussian(-0.5, 1.0, 9.0), gaussian(0.2, 1.0, 0.0)])
    assert other_pair.__code__ is pair.__code__
    assert triple.__code__ is not pair.__code__
    with pytest.raises(PulseEvaluationError):
        envelope([gaussian(1.0, 2.0, 5.0), rectangular(0.5, 1.0, 9.0)])
    # a compile per call would give each closure a code object of its own
    closures = [envelope([gaussian(0.1, 1.0 + k, k), gaussian(-1.0, 2.0, 3.0)]) for k in range(400)]
    assert all(v.__code__ is pair.__code__ for v in closures)


class TestIntegratedStrength:
    def test_full_gaussian(self):
        p = [gaussian(math.pi / 2, 3.0, 30.0)]
        got = integrated_strength(p, 30.0 - 18.0, 30.0 + 18.0)
        assert got == pytest.approx(math.pi / 2, abs=1e-12)

    def test_kick_antikick_cancels(self):
        p = [ideal_kick(1.2, 2.0), ideal_kick(-1.2, 7.0)]
        assert integrated_strength(p, 0.0, 10.0) == 0.0

    def test_half_gaussian_by_symmetry(self):
        p = [gaussian(0.9, 1.0, 50.0)]
        assert integrated_strength(p, 44.0, 50.0) == pytest.approx(0.45, abs=1e-9)

    def test_rectangular_partial_overlap(self):
        p = [rectangular(1.0, 4.0, 10.0)]
        assert integrated_strength(p, 10.0, 20.0) == pytest.approx(0.5)

    def test_window_order_enforced(self):
        with pytest.raises(ValueError):
            integrated_strength([], 1.0, 0.0)

    @given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_gaussian_window_error_bound(self, tau, alpha):
        p = [gaussian(alpha, tau, 0.0)]
        got = integrated_strength(p, -6.0 * tau, 6.0 * tau)
        assert abs(got - alpha) <= abs(alpha) * 1e-9 + 1e-15


class TestPulseKernel:
    def test_kick_moment_and_window(self):
        kick = ideal_kick(0.9, 4.0)
        assert kick.window() == (4.0, 4.0)


class TestPhaseAngles:
    """alpha, beta = gamma tau and gamma t as they enter the closed forms."""

    def test_hydrogen_beta(self):
        # a completed gaussian is damped by e^{-beta^2} in the rotating frame
        z = interaction_integral([gaussian(1.0, 10.0, 100.0)], hydrogen_2s2p(), 300.0, 1.0)
        beta = math.pi * 10.0 / 972.0
        assert abs(z) == pytest.approx(math.exp(-beta * beta), rel=1e-9)

    def test_degenerate(self):
        # gamma = 0: beta = gamma t = 0 and xi = alpha, so the bare average is degenerate
        u0 = no_ordering_numeric([gaussian(0.7, 10.0, 70.0)], SystemParams(0.0), 140.0, 0.0)
        assert max_abs_diff(u0, prop.degenerate_propagator(0.7)) < 1e-12

    def test_xi_combines_strength_and_phase(self):
        # alpha = pi/2 and gamma t = sqrt(3)/2 pi make xi = pi: no bare-frame transfer
        t = math.sqrt(3) / 2 * math.pi
        u0 = no_ordering_numeric([gaussian(math.pi / 2, 0.1, t / 2)], unit_system(), t, 0.0)
        assert probabilities(u0, (1.0, 0.0))[1] == pytest.approx(0.0, abs=1e-24)

    def test_alpha_prime(self):
        # a rectangle rotates by alpha' = sqrt(alpha^2 + beta^2) = 5 inside the pulse
        u = prop.rectangular_propagator(3.0, 4.0, 0.5, 10.0, 30.0)
        assert abs(u[0, 1]) == pytest.approx(3.0 * abs(math.sin(5.0)) / 5.0, rel=1e-14)


def exp_rotating(z):
    """exp(-i (Re z sigma_x + Im z sigma_y)) by scipy's expm."""
    return expm(-1j * (z.real * SIGMA_X + z.imag * SIGMA_Y))


def _rotating(kicks, gamma):
    """The rotating-frame (lam = 1) no-ordering matrix of kicks (a_k, T_k)."""
    return prop.no_ordering(prop.kick_integral(kicks, 1.0, gamma), 1.0, gamma, 0.0)


class TestInteractionPicture:
    MIXES = [
        [gaussian(1.0, 2.0, 15.0)],
        [gaussian(1.0, 2.0, 15.0), gaussian(-0.4, 0.5, 38.0)],  # the second clipped at t
        [rectangular(0.8, 3.0, 10.0), rectangular(-1.3, 4.0, 39.0)],
        [ideal_kick(0.9, 0.0), ideal_kick(-0.3, 12.0), ideal_kick(0.5, 40.0)],
        [gaussian(0.7, 3.0, 20.0), rectangular(-0.6, 2.0, 30.0), ideal_kick(1.1, 25.0)],
    ]

    def test_degenerate_frame_coincides(self):
        # gamma = 0 in the rotating frame, and the bare frame (lam = 0) at gamma != 0:
        # the frequency-0 quadrature is the running strength the erf route gives
        for pulses in self.MIXES:
            for params, lam in ((SystemParams(0.0), 1.0), (unit_system(), 0.0)):
                z = interaction_integral(pulses, params, 40.0, lam)
                assert z.imag == 0.0
                assert abs(z.real - integrated_strength(pulses, 0.0, 40.0)) <= 1e-13

    def test_t_zero_has_no_phase(self):
        z = interaction_integral([ideal_kick(1.0, 0.0)], unit_system(), 1.0, 1.0)
        assert (z.real, z.imag) == (1.0, 0.0)

    @given(st.floats(0.0, 2.0), st.floats(-3.0, 3.0), st.floats(0.0, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_rotation_preserves_magnitude(self, gamma, alpha, t):
        z = interaction_integral([ideal_kick(alpha, 8.0)], SystemParams(gamma), 8.0 + t, 1.0)
        assert abs(z) == pytest.approx(abs(alpha), abs=1e-12)

    def test_single_pulse_closed_form_vs_quadrature(self):
        params = hydrogen_2s2p()
        pulse = gaussian(math.pi / 2, 10.0, 150.0)
        z = interaction_integral([pulse], params, 300.0, 1.0)
        beta = params.gamma * pulse.tau
        u = _rotating(
            ((pulse.alpha * math.exp(-beta * beta), pulse.center),), params.gamma
        )
        assert max_abs_diff(exp_rotating(z), u) < 1e-10

    def test_closed_form_at_generic_phase(self):
        # arbitrary center so both quadrature components are exercised
        params = SystemParams(0.0323)
        pulse = gaussian(1.9, 7.0, 111.0)
        z = interaction_integral([pulse], params, 300.0, 1.0)
        assert abs(z.real) > 0.1 and abs(z.imag) > 0.1
        beta = params.gamma * pulse.tau
        u = _rotating(
            ((pulse.alpha * math.exp(-beta * beta), pulse.center),), params.gamma
        )
        assert max_abs_diff(exp_rotating(z), u) < 1e-10


class TestAveragedInteractionSingle:
    def test_centered_pulse_is_pure_x(self):
        u = _rotating(((1.2, 0.0),), 1.0)
        assert max_abs_diff(u, pauli_exponential(-1.2, X_AXIS)) < 1e-15

    def test_kick_magnitude_has_no_width_damping(self):
        u = _rotating(((0.8, 1.5),), 2.0)
        assert abs(u[0, 1]) == pytest.approx(math.sin(0.8), rel=1e-14)


class TestAveragedInteractionDouble:
    def test_full_period_separation_cancels(self):
        a = 1.3 * math.exp(-0.2**2)
        u = _rotating(((a, 1.0), (-a, 1.0 + math.pi)), 1.0)  # gamma Ts = pi
        assert max_abs_diff(u, IDENTITY) < 1e-15

    def test_degenerate_system_cancels(self):
        u = _rotating(((1.3, 1.0), (-1.3, 4.0)), 0.0)
        assert max_abs_diff(u, IDENTITY) == 0.0

    def test_direct_evaluation(self):
        # gamma Ts = pi/2 and gamma Tbar = pi/4 make the exponent pi/2 sigma_x
        u = _rotating(((math.pi / 4, 0.0), (-math.pi / 4, math.pi / 2)), 1.0)
        assert max_abs_diff(u, pauli_exponential(-math.pi / 2, X_AXIS)) < 1e-12

    def test_matches_narrow_pulse_quadrature_extrapolation(self):
        # tau -> 0 limit of gaussian pair quadratures, Richardson in tau^2
        params = hydrogen_2s2p()
        alpha, t1, t2 = 1.1, 120.0, 420.0
        target = _rotating(((alpha, t1), (-alpha, t2)), params.gamma)

        def integral(tau):
            return interaction_integral(
                [gaussian(alpha, tau, t1), gaussian(-alpha, tau, t2)], params, 700.0, 1.0
            )

        tau = 0.03 / params.gamma  # beta = 0.03
        z = 2.0 * integral(tau / math.sqrt(2.0)) - integral(tau)
        assert max_abs_diff(exp_rotating(z), target) < 1e-6


class TestAveragedSchrodinger:
    """The bare-frame average exponentiates int_0^t v dt on sigma_x alone."""

    def test_single_full_pulse(self):
        u0 = no_ordering_numeric([gaussian(1.3, 2.0, 30.0)], unit_system(), 60.0, 0.0)
        assert max_abs_diff(u0, prop.no_ordering(1.3, 0.0, 1.0, 60.0)) < 1e-12

    def test_kick_antikick_window_cancels(self):
        kicks = [ideal_kick(2.0, 10.0), ideal_kick(-2.0, 40.0)]
        u0 = no_ordering_numeric(kicks, unit_system(), 100.0, 0.0)
        assert max_abs_diff(u0, prop.free_propagator(1.0, 100.0)) < 1e-12

    def test_before_onset(self):
        u0 = no_ordering_numeric([gaussian(1.0, 1.0, 50.0)], unit_system(), 10.0, 0.0)
        assert max_abs_diff(u0, prop.free_propagator(1.0, 10.0)) < 1e-12



class TestGaussLegendre:
    """The composite rule, and its three routes against scipy's adaptive quad."""

    def test_polynomials_are_exact(self):
        # 24 nodes a panel integrate degree 47 exactly, on any break points
        value = gauss_legendre(lambda x: 7.0 * x**6 - 2.0 * x, [-1.0, 0.5, 2.0])
        assert value == pytest.approx(2.0**7 + 1.0 - (4.0 - 1.0), rel=1e-15)

    def test_reversed_span_changes_sign(self):
        forward = gauss_legendre(np.cos, [0.0, 1.0, 3.0])
        assert gauss_legendre(np.cos, [3.0, 1.0, 0.0]) == pytest.approx(-forward, rel=1e-15)
        assert gauss_legendre(np.cos, [2.0, 2.0]) == 0.0

    def test_panels_grow_with_the_phase(self):
        # 500 periods of e^{i omega x} over one interval
        omega, span = 1000.0 * math.pi, 1.0
        value = gauss_legendre(lambda x: np.exp(1j * omega * x + 0.5j), [0.0, span], omega)
        exact = (np.exp(1j * omega * span) - 1.0) * np.exp(0.5j) / (1j * omega)
        assert abs(value - exact) <= 1e-15

    def test_gaussian_shape_factor_matches_quad(self):
        for alpha in np.linspace(0.05, 3.0, 40).tolist():
            ref, _ = quad(lambda s: math.cos(alpha * math.erf(s)) - math.cos(alpha), -9.0, 9.0,
                          epsabs=1e-13, epsrel=1e-12, limit=200)
            g = prop.kick_correction_shape_factor(alpha, PulseShape.GAUSSIAN)
            assert abs(g - ref) <= 1e-14

    def test_adiabatic_theta_matches_quad(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            gamma, tau, t = rng.uniform(0.05, 2.0), rng.uniform(0.5, 20.0), rng.uniform(1.0, 100.0)
            pulses = [gaussian(rng.uniform(-3.0, 3.0), tau, rng.uniform(0.0, 50.0))]
            v = envelope(pulses)
            points = sorted({x for p in pulses for x in (*p.window(), p.center) if 0.0 < x < t})
            ref, _ = quad(lambda x: math.sqrt(gamma * gamma + v(x) ** 2), 0.0, t,
                          points=points or None, epsabs=0.0, epsrel=1e-13, limit=400)
            theta = prop.adiabatic_phase(pulses, SystemParams(gamma), t).theta
            assert abs(theta / ref - 1.0) <= 1e-12

    def test_interaction_integral_matches_quad(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            params, lam, t = SystemParams(rng.uniform(0.0, 2.0)), rng.uniform(0.0, 1.0), rng.uniform(1.0, 60.0)
            pulse = gaussian(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0), rng.uniform(-10.0, 60.0))
            w, v = 2.0 * lam * params.gamma, envelope([pulse])
            lo, hi = max(pulse.window()[0], 0.0), min(pulse.window()[1], t)  # clipped to [0, t]
            ref = 0j
            if hi > lo:
                parts = (quad(v, lo, hi, weight=weight, wvar=w, epsabs=1e-15)[0] for weight in ("cos", "sin"))
                ref = complex(*parts)
            assert abs(interaction_integral([pulse], params, t, lam) - ref) <= 1e-12
