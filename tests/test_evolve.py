import math
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kickedqubit import evolve
from kickedqubit import propagators as prop
from kickedqubit.analysis import error_scaling_fit, no_ordering_p2_columns
from kickedqubit.evolve import (
    IntegratorConfig,
    check_step_budget,
    interaction_integral,
    interaction_integral_series,
    no_ordering_numeric,
    rk4_evolve,
    rk4_propagator,
    spectral_exponential,
)
from kickedqubit.pulses import (
    PulseShape,
    SystemParams,
    envelope,
    envelope_array,
    gaussian,
    hydrogen_2s2p,
    ideal_kick,
    integrated_strength,
    rectangular,
    unit_system,
)
from kickedqubit.su2 import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    NonUnitaryError,
    max_abs_diff,
    norm_defect,
    pauli_exponential,
    probabilities,
    unitarity_defect,
)

HYDROGEN = hydrogen_2s2p()
FIG1_PULSE = [gaussian(math.pi / 2, 10.0, 150.0)]


class TestRk4Evolve:
    def test_free_evolution_phases(self):
        params = unit_system()
        series = rk4_evolve([], params, (1.0, 0.0), 0.0, 3.0, IntegratorConfig(dt=0.002),
                            record_times=np.linspace(0.0, 3.0, 1501))
        assert np.allclose(np.abs(series.states[:, 0]) ** 2, 1.0, atol=1e-12)
        # a1(t) = e^{i gamma t}
        expected = np.exp(1j * series.times)
        assert np.max(np.abs(series.states[:, 0] - expected)) < 1e-10

    def test_single_pulse_transfer_regression(self):
        # frozen from a dt-halving study (change 6e-14 between dt=0.05, 0.025)
        series = rk4_evolve(FIG1_PULSE, HYDROGEN, (1.0, 0.0), 0.0, 300.0,
                            record_times=[300.0])
        assert series.p2[-1] == pytest.approx(0.9976840741525, abs=1e-9)

    def test_wide_pulse_transfer_regression(self):
        series = rk4_evolve([gaussian(math.pi / 2, 100.0, 150.0)], HYDROGEN, (1.0, 0.0),
                            0.0, 300.0, record_times=[300.0])
        assert series.p2[-1] == pytest.approx(0.8196049007317, abs=1e-9)

    def test_norm_conserved(self):
        series = rk4_evolve(FIG1_PULSE, HYDROGEN, (1.0, 0.0), 0.0, 300.0,
                            record_times=[300.0])
        assert norm_defect(series.states[-1]) < 1e-8

    def test_record_times_subset(self):
        marks = np.array([0.0, 120.0, 150.0, 300.0])
        series = rk4_evolve(FIG1_PULSE, HYDROGEN, (1.0, 0.0), 0.0, 300.0, record_times=marks)
        assert np.array_equal(series.times, marks)
        assert len(series.states) == 4

    def test_repeated_record_times_each_get_a_row(self):
        marks = [0.0, 150.0, 150.0, 300.0, 300.0]
        series = rk4_evolve(FIG1_PULSE, HYDROGEN, (1.0, 0.0), 0.0, 300.0, record_times=marks)
        assert np.array_equal(series.times, marks)
        assert np.array_equal(series.states[1], series.states[2])
        assert np.array_equal(series.states[3], series.states[4])

    def test_no_record_times_gives_empty_series(self):
        series = rk4_evolve(FIG1_PULSE, HYDROGEN, (1.0, 0.0), 0.0, 300.0, record_times=[])
        assert series.states.shape == (0, 2) and series.p2.size == 0

    def test_record_times_count_against_the_budget_before_use(self):
        # a zero-copy view of MAX_RK4_STEPS + 1 times is refused before it is read
        times = np.broadcast_to(0.0, (evolve.MAX_RK4_STEPS + 1,))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="10000001 record times .* record fewer times"):
            rk4_evolve([], unit_system(), (1.0, 0.0), 0.0, 2.0, record_times=times)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("t0, t1, marks, message", [
        (0.0, 10.0, [math.nan, 1.0, 3.0], "record times must lie inside"),
        (0.0, 10.0, [1.0, math.nan, 3.0], "record times must lie inside"),
        (0.0, 10.0, [1.0, 3.0, math.nan], "record times must lie inside"),
        (0.0, 10.0, [math.nan], "record times must lie inside"),
        (0.0, 10.0, [1.0, 11.0, 3.0], "record times must lie inside"),
        (math.nan, 10.0, [1.0], "t1 must be >= t0"),
        (0.0, math.nan, [1.0], "t1 must be >= t0"),
        (5.0, 4.0, [4.5], "t1 must be >= t0"),
        (0.0, 10.0, [1.0, 3.0, 2.0], "record times must be non-decreasing"),
    ], ids=["nan-first", "nan-middle", "nan-last", "nan-alone", "outside-middle",
            "nan-t0", "nan-t1", "t1-before-t0", "decreasing"])
    def test_bad_times_are_refused(self, t0, t1, marks, message):
        # a NaN record time used to give a row at t = nan and a negative step count
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                rk4_evolve([gaussian(1.0, 1.0, 5.0)], unit_system(), (1.0, 0.0), t0, t1,
                           record_times=marks)

    def test_coarse_step_raises(self):
        with pytest.raises(NonUnitaryError):
            rk4_evolve(FIG1_PULSE, HYDROGEN, (1.0, 0.0), 0.0, 300.0,
                       IntegratorConfig(dt=10.0), record_times=[300.0])

    @pytest.mark.parametrize("scale", [1.0, 2.0, 0.5])
    def test_norm_drift_is_relative_to_the_start(self, scale):
        # a state off norm 1 used to switch the check off: from (2, 0) a 5.7 %
        # drift went unreported
        with pytest.raises(NonUnitaryError, match=r"norm drifted by 5\.74\de-02"):
            rk4_evolve([gaussian(math.pi / 2, 1.0, 3.0)], unit_system(), (scale, 0.0), 0.0, 6.0,
                       IntegratorConfig(dt=0.9), record_times=[6.0])

    def test_zero_state_has_no_norm_to_check(self):
        series = rk4_evolve([gaussian(math.pi / 2, 1.0, 3.0)], unit_system(), (0.0, 0.0), 0.0, 6.0,
                            IntegratorConfig(dt=0.9), record_times=[6.0])
        assert not np.any(series.final_state())

    @pytest.mark.parametrize("pulses, t1, dt", [
        ([gaussian(1e300, 1.0, 1.0)], 2.0, 0.5),  # the RK4 stages overflow
        ([rectangular(1e150, 1.0, 5.0)], 10.0, 1.0),  # the step maps' prefix products overflow
        ([rectangular(1e308, 1.0, 1.0)] * 2, 3.0, 1e-3),  # the planned coupling sum overflows
    ], ids=["stages", "prefix-products", "coupling-sum"])
    def test_nan_state_raises(self, pulses, t1, dt):
        # a finite peak that overflows, so the state goes NaN; a NaN norm defect
        # must not pass, and under pytest's error::RuntimeWarning filter no numpy
        # warning may come first (the last two raised one outside the kernel)
        with pytest.raises(NonUnitaryError, match="nan"):
            rk4_evolve(pulses, unit_system(), (1.0, 0.0), 0.0, t1, IntegratorConfig(dt=dt),
                       record_times=np.linspace(0.0, t1, 3))

    def test_kick_inside_sequence_is_exact_factor(self):
        params = unit_system()
        series = rk4_evolve([ideal_kick(0.8, 1.0)], params, (1.0, 0.0), 0.0, 2.0,
                            IntegratorConfig(dt=0.002), record_times=[2.0])
        expected = prop.kick_sequence_propagator(((0.8, 1.0),), 1.0, 2.0) @ np.array([1.0, 0.0])
        assert np.max(np.abs(series.final_state() - expected)) < 1e-10

    def test_kick_and_gaussian_mixture(self):
        params = unit_system()
        mix = [gaussian(0.5, 0.2, 0.8), ideal_kick(-0.3, 1.5)]
        u = rk4_propagator(mix, params, 0.0, 2.5, IntegratorConfig(dt=0.001))
        # independent route: split the evolution at the kick
        u_before = rk4_propagator([mix[0]], params, 0.0, 1.5, IntegratorConfig(dt=0.001))
        u_after = rk4_propagator([mix[0]], params, 1.5, 2.5, IntegratorConfig(dt=0.001))
        kick = prop.degenerate_propagator(-0.3)
        assert max_abs_diff(u, u_after @ kick @ u_before) < 1e-10


_START = st.floats(0.0, 3.0)
_STRENGTH = st.floats(-2.0, 2.0)
_PULSE = st.one_of(
    st.builds(gaussian, _STRENGTH, st.floats(0.1, 1.0), _START),
    st.builds(rectangular, _STRENGTH, st.floats(0.1, 1.0), _START),
    st.builds(ideal_kick, _STRENGTH, _START),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_PULSE, min_size=1, max_size=3), st.floats(0.0, 1.0), st.floats(0.0, 3.0))
def test_completed_column_matches_direct_integration(pulses, t0, span):
    # the SU(2) completion must equal integrating (0, 1), at any step size
    cfg = IntegratorConfig(dt=0.01, unitarity_tolerance=math.inf)
    t1 = t0 + span
    u = rk4_propagator(pulses, unit_system(), t0, t1, cfg)
    direct = rk4_evolve(pulses, unit_system(), (0.0, 1.0), t0, t1, cfg, record_times=[t1])
    assert np.max(np.abs(u[:, 1] - direct.final_state())) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_PULSE, max_size=3),
    st.floats(0.0, 2.0),
    st.lists(st.floats(0.0, 4.0), min_size=1, max_size=10),
    st.sampled_from([0.0, 1e-6, 1.0, 300.0]),
)
@example(pulses=[], t0=0.5, offsets=[0.0], gamma=1.0)  # xi = 0
@example(pulses=[ideal_kick(3e-5, 0.2)], t0=0.0, offsets=[0.3, 0.5], gamma=1e-6)  # xi < 1e-4
@example(pulses=[ideal_kick(40.0, 1.0)], t0=0.0, offsets=[2.0, 4.0], gamma=300.0)  # large xi
def test_columns_match_the_matrix_route(pulses, t0, offsets, gamma):
    # each row of the array columns is the P2 of the scalar matrix, in both frames
    params, dt = SystemParams(gamma), 0.01
    times = np.array(sorted(t0 + x for x in offsets + offsets[:2]))  # with repeats
    columns = no_ordering_p2_columns(pulses, params, t0, times, dt)
    zs = (
        integrated_strength(pulses, t0, times),
        interaction_integral_series(pulses, params, t0, times, dt),
    )
    for lam, column, z in zip((0.0, 1.0), columns, zs):
        for p2, zk, t in zip(column.tolist(), z.tolist(), (times - t0).tolist()):
            _, expected = probabilities(prop.no_ordering(zk, lam, gamma, t), (1.0, 0.0))
            xi = math.hypot(abs(zk), (1.0 - lam) * gamma * t)
            assert abs(p2 - expected) <= 1e-14 * max(1.0, xi)


_SPAN_STEPS = st.sampled_from(
    [evolve.SMALL - 1, evolve.SMALL, evolve.BLOCK, evolve.BLOCK + 1, 2 * evolve.BLOCK + 3]
)


def _pointwise(v):
    """The scalar closure v as the coupling of a time array, called in grid order, as _rk4_span passes it."""
    return lambda grid: np.fromiter(map(v, grid.ravel().tolist()), float, count=grid.size).reshape(grid.shape)


def _coupling(smooth, route):
    """The coupling of a time array for these gaussians: the short rows' or _rk4_span's."""
    if route == "array":
        return lambda grid: envelope_array(smooth, grid)
    return _pointwise(envelope(smooth) if smooth else (lambda _t: 0.0))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(_PULSE, min_size=1, max_size=3),
    st.sampled_from([1, 2, 3, evolve.SMALL - 1, evolve.SMALL, evolve.BLOCK]),
    st.lists(
        st.tuples(st.floats(0.0, 2.0), st.floats(0.01, 2.0), st.floats(-2.0, 2.0)),
        min_size=2, max_size=4,
    ),
    st.floats(-2.0, 2.0),
)
def test_rows_compose_as_each_row_alone(pulses, k, rows, gamma):
    # one call over rows (t0, span, rectangular coupling) of k steps gives each
    # row's map and end time bit for bit as that row alone, on either route;
    # its one coupling call reads the rows' grids, one after another
    t, span, c = (np.array(x) for x in zip(*rows))
    h = span / k
    for route in ("array", "pointwise"):
        shape, grids = _coupling([p for p in pulses if p.shape is PulseShape.GAUSSIAN], route), []

        def v(grid):
            grids.append(grid.copy())
            return shape(grid)

        together = [x.tolist() for x in evolve._block_map(v, c, gamma, t, h, k)]
        together_grids, grids[:] = grids[:], []
        alone = [[], [], []]
        for r in range(t.size):
            one = slice(r, r + 1)
            for out, x in zip(alone, evolve._block_map(v, c[one], gamma, t[one], h[one], k)):
                out += x.tolist()
        assert len(together_grids) == 1 and together_grids[0].shape == (t.size, k, 3)
        assert together_grids[0].tobytes() == np.concatenate(grids).tobytes()
        assert together == alone


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.builds(gaussian, _STRENGTH, st.floats(0.1, 1.0), _START), min_size=1, max_size=2),
    st.integers(1, evolve.SMALL - 1),
    st.lists(
        st.tuples(st.floats(0.0, 3.0), st.floats(1e-3, 0.02), st.one_of(st.just(0.0), st.floats(-2.0, 2.0))),
        min_size=1, max_size=4,
    ),
    st.floats(-2.0, 2.0),
)
def test_array_and_pointwise_couplings_agree(smooth, k, rows, gamma):
    # the same rows (t0, step, rectangular coupling) through envelope_array, as
    # short rows run, and through the scalar closure, as _rk4_span runs
    t, h, c = (np.array(x) for x in zip(*rows))
    array = evolve._block_map(_coupling(smooth, "array"), c, gamma, t, h, k)
    pointwise = evolve._block_map(_coupling(smooth, "pointwise"), c, gamma, t, h, k)
    for x, y in zip(array[:2], pointwise[:2]):
        assert np.max(np.abs(x - y)) <= 1e-14
    assert array[2].tobytes() == pointwise[2].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.integers(1, evolve.BLOCK),
        st.integers(0, evolve.BLOCK // 2 - 1).map(lambda k: 2 * k + 1),
        st.sampled_from([2**k for k in range(13)]),
    ),
    st.lists(
        # v_const is a sum started at +0.0, so it never holds -0.0: x + 0.0 maps -0.0 to 0.0
        st.tuples(st.floats(-100.0, 100.0), st.floats(1e-6, 1.0), st.floats(-3.0, 3.0).map(lambda x: x + 0.0)),
        min_size=1, max_size=4,
    ),
    st.floats(-2.0, 2.0),
)
# an unstable step (h sqrt(gamma^2 + c^2) > 2.8): both routes overflow to NaN in
# the same places, and one NaN of the second row differs in its sign bit
@example(m=4087, rows=[(0.0, 1.0, 0.0), (0.0, 0.9375, 2.9375)], gamma=1.375)
def test_constant_coupling_block_is_the_pairwise_tree(m, rows, gamma):
    # with no coupling function a row's m steps are one repeated map, composed
    # in log2 m passes; a zero coupling runs the general pairwise product on the
    # same couplings (0.0 + c == c), so the two give the same bits.  With no
    # coupling function nothing reads a time, so no end time is returned.  A
    # NaN's sign and payload bits do not count: NaNs must sit at the same
    # floats, and every other float must match bit for bit
    t, h, c = (np.array(x) for x in zip(*rows))
    with np.errstate(over="ignore", invalid="ignore"):  # rk4_evolve's policy for its kernel
        fast = evolve._block_map(None, c, gamma, t, h, m)
        tree = evolve._block_map(lambda grid: np.zeros(grid.shape), c, gamma, t, h, m)
    assert fast[2] is None
    for x, y in zip(fast[:2], tree[:2]):
        x, y = x.view(float), y.view(float)
        nan = np.isnan(x)
        assert np.array_equal(nan, np.isnan(y))
        assert x[~nan].tobytes() == y[~nan].tobytes()


def _stagewise_step(g, h, vt, vm, ve):
    """One RK4 step run stage by stage (k1 .. k4) on the column (1, 0), in complex arithmetic: (d, q)."""
    ig, ivt, ivm, ive = 1j * g, 1j * vt, 1j * vm, 1j * ve
    half, sixth, h, mig = 0.5 * h + 0j, h / 6.0 + 0j, h + 0j, -ig
    k1a, k1b = ig, -ivt
    x1, x2 = 1.0 + half * k1a, half * k1b
    k2a, k2b = ig * x1 - ivm * x2, mig * x2 - ivm * x1
    x1, x2 = 1.0 + half * k2a, half * k2b
    k3a, k3b = ig * x1 - ivm * x2, mig * x2 - ivm * x1
    x1, x2 = 1.0 + h * k3a, h * k3b
    k4a, k4b = ig * x1 - ive * x2, mig * x2 - ive * x1
    return sixth * (k1a + 2.0 * (k2a + k3a) + k4a), sixth * (k1b + 2.0 * (k2b + k3b) + k4b)


_COUPLING = st.floats(-5.0, 5.0)


def _rows_of_steps(shape):
    """h as (rows, 1) and vt, vm, ve as (rows, m), nested lists."""
    rows, m = shape
    block = st.lists(st.lists(_COUPLING, min_size=m, max_size=m), min_size=rows, max_size=rows)
    return st.tuples(st.lists(st.floats(0.0, 1.0), min_size=rows, max_size=rows), block, block, block)


@settings(max_examples=200, deadline=None)
@given(
    _COUPLING,
    st.floats(0.0, 1.0),
    st.one_of(
        st.tuples(_COUPLING, _COUPLING, _COUPLING),
        st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(_rows_of_steps),
    ),
)
def test_step_map_is_the_stagewise_rk4_step(g, h, couplings):
    # the closed real expansion agrees with the k1 .. k4 stages within
    # 8 eps (1 + h w)^4, w the largest coupling magnitude
    if len(couplings) == 4:
        h, *couplings = couplings
        h = np.array(h)[:, None]
    vt, vm, ve = (np.array(x) for x in couplings)
    d, q = evolve._step_map(g, h, vt, vm, ve)
    d_ref, q_ref = _stagewise_step(g, h, vt, vm, ve)
    w = np.maximum.reduce([np.full_like(vt, abs(g)), abs(vt), abs(vm), abs(ve)])
    bound = 8.0 * np.finfo(float).eps * (1.0 + h * w) ** 4
    assert d.shape == q.shape == np.broadcast(h, vt).shape
    assert np.all(abs(d - d_ref) <= bound)
    assert np.all(abs(q - q_ref) <= bound)


@pytest.mark.parametrize("h", [0.0, 1e-3, 0.7, np.array([[0.1], [2.0]])])
def test_step_map_without_coupling_is_exactly_the_identity(h):
    zero = np.zeros(np.broadcast(h, np.zeros((1, 5))).shape)
    d, q = evolve._step_map(0.0, h, zero, zero, zero)
    assert np.all(d == 0.0) and np.all(q == 0.0)


def test_one_block_row_stays_small():
    # one 4096-step row of a gaussian pair, on either route: the grid, the
    # envelope values and the real step expansion, about 600 KB at peak; the
    # complex stage-by-stage step held about 1.1 MB, enough heap that freeing
    # it let glibc return pages that the next block faulted in again
    pair = [gaussian(math.pi / 2, 10.0, 100.0), gaussian(-math.pi / 2, 10.0, 110.0)]
    for route in ("array", "pointwise"):
        args = (_coupling(pair, route), np.zeros(1), HYDROGEN.gamma, np.array([60.0]), np.array([0.02]),
                evolve.BLOCK)
        evolve._block_map(*args)
        tracemalloc.start()
        try:
            evolve._block_map(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 800 * 1024, route


def _applied(d, q, a1, a2):
    """The state (a1, a2) after the map (d, q), as rk4_evolve applies it."""
    d, q = evolve._compose(d, q, a1 - 1.0, a2)
    return 1.0 + d, q


def _as_span(v, v_const, gamma, a1, a2, t0, t1, n):
    """_rk4_span's map of n steps over [t0, t1], applied to (a1, a2)."""
    return _applied(*evolve._rk4_span(v, v_const, gamma, t0, t1, n), a1, a2)


def _as_rows(v, v_const, gamma, a1, a2, t0, t1, n):
    """_rk4_span's n steps over [t0, t1], as the first of three rows of one call."""
    c = np.array([v_const, -2.0 * v_const, 3.0 * v_const])
    t, h = np.array([t0, t0 + 1.0, t0 - 1.0]), np.full(3, (t1 - t0) / n)
    d, q, _ = evolve._block_map(_pointwise(v), c, gamma, t, h, n)
    return _applied(complex(d[0]), complex(q[0]), a1, a2)


@pytest.mark.parametrize("integrate", [_as_span, _as_rows], ids=["block", "rows"])
def test_both_composers_are_exact_over_near_identity_steps(integrate):
    # gamma = 0 and a constant coupling: the exact amplitudes are cos, sin of (theta - v t)
    v, theta, span, n = 1e-8, 1.0, 1.0, evolve.BLOCK
    a1, a2 = integrate(lambda _t: 0.0, v, 0.0, math.cos(theta), 1j * math.sin(theta), 0.0, span, n)
    assert abs(a1 - math.cos(theta - v * span)) <= 1e-15
    assert abs(a2 - 1j * math.sin(theta - v * span)) <= 1e-15


def test_short_segments_do_not_drift():
    # the same exact rotation cut by 66 record times into 66 segments of 63
    # steps: their maps are multiplied before the state sees them, so the
    # final state is as exact as one 4096-step segment's
    v, theta = 1e-8, 1.0
    marks = [k / 66 for k in range(1, 67)]
    series = rk4_evolve([rectangular(v, 1.0, 0.5)], SystemParams(0.0),
                        (math.cos(theta), -1j * math.sin(theta)), 0.0, 1.0,
                        IntegratorConfig(dt=1.0 / 4096), record_times=marks)
    assert (series.segments, series.steps) == (66, 66 * 63)
    a1, a2 = series.final_state()
    assert abs(a1 - math.cos(theta + v)) <= 4.5e-16
    assert abs(a2 + 1j * math.sin(theta + v)) <= 4.5e-16


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2, 3, 5, 2048]), st.integers(0, 2**32 - 1))
def test_prefix_products_equal_the_left_fold(size, seed):
    # random near-identity SU(2) maps: entry k of the scan is map k after ... after map 0
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(size, 3))
    u = [pauli_exponential(phi, n / np.linalg.norm(n))
         for phi, n in zip(rng.uniform(-1e-3, 1e-3, size), axes)]
    d, q = np.array([m[0, 0] - 1.0 for m in u]), np.array([m[1, 0] for m in u])
    fold, (dk, qk) = [], (0j, 0j)
    for x in zip(d.tolist(), q.tolist()):
        dk, qk = evolve._compose(*x, dk, qk)
        fold.append((dk, qk))
    scan = np.column_stack(evolve._prefix_maps(d, q))
    assert np.max(np.abs(scan - np.array(fold))) <= 1e-14


def test_grouped_short_segments_stay_within_a_block():
    # 200 segments of 63 steps: rows of one step count share a call, and no
    # call composes more than BLOCK steps
    dt, k = 1.0 / 64.0, evolve.SMALL - 1
    marks = [i * k * dt for i in range(1, 201)]
    cfg = IntegratorConfig(dt=dt)
    with mock.patch.object(evolve, "_block_map", wraps=evolve._block_map) as block_map:
        series = rk4_evolve([gaussian(1.0, 0.5, 2.0)], unit_system(), (1.0, 0.0), 0.0,
                            marks[-1], cfg, record_times=marks)
    sizes = [call.args[3].size * call.args[5] for call in block_map.call_args_list]
    assert series.steps == sum(sizes) == 200 * k
    assert max(sizes) == evolve.BLOCK // k * k
    assert all(size <= evolve.BLOCK for size in sizes)


def test_closure_free_short_rows_share_one_call_per_step_count():
    # a rectangle and a kick cut by 3201 record times into segments of 63 steps:
    # with no closure a row holds no array of steps, so each chunk of BLOCK // 2
    # segments makes one call per step count, and the rows come out bit for bit
    # as in calls of at most BLOCK // 63 rows each
    pulses = [rectangular(0.5, 0.1, 0.1), ideal_kick(0.3, 0.05)]
    marks, cfg, block_map = np.linspace(0.0, 0.2, 3201), IntegratorConfig(dt=1e-6), evolve._block_map

    def states():
        return rk4_evolve(pulses, unit_system(), (1.0, 0.0), 0.0, 0.2, cfg, record_times=marks).states

    def in_block_rows(v, c, gamma, t, h, m):
        assert v is None
        w = evolve.BLOCK // m
        parts = [block_map(v, c[r : r + w], gamma, t[r : r + w], h[r : r + w], m) for r in range(0, h.size, w)]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]), None

    with mock.patch.object(evolve, "_block_map", wraps=block_map) as grouped:
        together = states()
    with mock.patch.object(evolve, "_block_map", wraps=in_block_rows):
        apart = states()
    assert grouped.call_count <= 4
    assert together.tobytes() == apart.tobytes()


def _sequential_reference(pulses, params, t0, t1, dt, marks):
    """The state at each mark from a left fold of each segment's map, the kicks as exact matrices."""
    smooth = [p for p in pulses if p.shape is PulseShape.GAUSSIAN]
    rects = [(p.peak, *p.window()) for p in pulses if p.shape is PulseShape.RECTANGULAR]
    v = envelope(smooth) if smooth else (lambda _t: 0.0)
    kicks = {}
    for p in pulses:
        if p.shape is PulseShape.IDEAL_KICK and t0 <= p.center <= t1:
            kicks[p.center] = kicks.get(p.center, 0.0) + p.alpha
    edges = {e for _, lo, hi in rects for e in (lo, hi) if t0 < e < t1}
    stops = sorted(set(kicks) | edges | {t0, t1} | set(marks))
    u, at = np.eye(2, dtype=complex), {}
    for lo, hi in zip([t0] + stops[:-1], stops):
        if hi > lo:
            mid = 0.5 * (lo + hi)
            v_const = sum(amp for amp, rlo, rhi in rects if rlo < mid < rhi)
            n = max(1, math.ceil((hi - lo) / dt))
            d, q = evolve._rk4_span(v, v_const, params.gamma, lo, hi, n)
            u = np.array([[1.0 + d, -q.conjugate()], [q, 1.0 + d.conjugate()]]) @ u
        if hi in kicks:
            c, s = math.cos(kicks[hi]), math.sin(kicks[hi])
            u = np.array([[c, -1j * s], [-1j * s, c]]) @ u
        at[hi] = u[:, 0]
    return np.array([at[t] for t in marks]).reshape(-1, 2)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_PULSE, min_size=1, max_size=4),
    st.floats(0.0, 1.0),
    st.one_of(st.just(0.0), st.floats(0.5, 4.0)),
    st.lists(st.floats(0.0, 1.0), max_size=40),
    st.sampled_from([0.003, 0.02, 0.3]),
    st.sampled_from([64, evolve.BLOCK]),
    st.booleans(),
)
def test_batched_plan_matches_per_segment_spans(pulses, t0, span, fractions, dt, block, kick_t0):
    # record times that repeat and that fall on kicks and rectangle edges, a
    # kick at t0 recorded there, runs of short segments on either side of a
    # long one, t0 == t1; a small BLOCK splits the batch into many chunks
    t1 = t0 + span
    if kick_t0:
        pulses = [ideal_kick(0.7, t0), *pulses]
    breaks = [e for p in pulses for e in {p.window()[0], p.center, p.window()[1]}]
    runs = [t0 + k * 1e-3 * span for k in range(5)] + [t1 - k * 1e-3 * span for k in range(5)]
    marks = [t0 + f * span for f in fractions] + runs + [t for t in breaks if t0 <= t <= t1]
    marks = sorted(marks + marks[::3])
    cfg = IntegratorConfig(dt=dt, unitarity_tolerance=math.inf)
    with mock.patch.object(evolve, "BLOCK", block):
        series = rk4_evolve(pulses, unit_system(), (1.0, 0.0), t0, t1, cfg, record_times=marks)
        expected = _sequential_reference(pulses, unit_system(), t0, t1, dt, marks)
    assert series.states.shape == (len(marks), 2)
    assert np.max(np.abs(series.states - expected), initial=0.0) <= 1e-13


def _per_block_map(v_const, gamma, t0, t1, n):
    """The map of n constant-coupling steps over [t0, t1] as BLOCK-step _block_map calls, left-folded."""
    h, d, q = (t1 - t0) / n, 0j, 0j
    for start in range(0, n, evolve.BLOCK):
        m = min(evolve.BLOCK, n - start)
        db, qb, _ = evolve._block_map(None, np.array([v_const]), gamma, np.array([t0]), np.array([h]), m)
        d, q = evolve._compose(complex(db[0]), complex(qb[0]), d, q)
    return d, q


def test_long_constant_coupling_segments_match_the_exact_propagator():
    # a rectangle then a kick, every segment over 2 BLOCK steps, so each runs
    # through _rk4_span: within RK4 error of the rectangular propagator times
    # the kick, and within rounding of a per-BLOCK product built here
    gamma, dt, t1 = 0.7, 2e-4, 8.0
    rect, kick = rectangular(0.8, 2.0, 3.0), ideal_kick(0.5, 6.0)
    cfg = IntegratorConfig(dt=dt)
    series = rk4_evolve([rect, kick], SystemParams(gamma), (1.0, 0.0), 0.0, t1, cfg, record_times=[t1])
    stops = [0.0, *rect.window(), kick.center, t1]
    assert min(np.diff(stops)) > 2 * evolve.BLOCK * dt
    exact = prop.free_propagator(gamma, t1 - kick.center) @ prop.degenerate_propagator(kick.alpha) \
        @ prop.rectangular_propagator(rect.alpha, gamma * rect.tau, gamma, rect.center, kick.center)
    assert np.max(np.abs(series.final_state() - exact[:, 0])) <= 1e-10
    u = np.eye(2, dtype=complex)
    for lo, hi in zip(stops, stops[1:]):
        v_const = rect.peak if lo == rect.window()[0] else 0.0
        d, q = _per_block_map(v_const, gamma, lo, hi, math.ceil((hi - lo) / dt))
        u = np.array([[1.0 + d, -q.conjugate()], [q, 1.0 + d.conjugate()]]) @ u
        if hi == kick.center:
            u = prop.degenerate_propagator(kick.alpha) @ u
    assert np.max(np.abs(series.final_state() - u[:, 0])) <= 1e-13


_RECT_OR_KICK = st.one_of(
    st.builds(rectangular, _STRENGTH, st.floats(0.1, 1.0), _START),
    st.builds(ideal_kick, _STRENGTH, _START),
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_RECT_OR_KICK, max_size=4),
    st.floats(0.1, 1.0),
    _START,
    st.floats(0.0, 1.0),
    st.lists(st.floats(0.0, 1.0), max_size=10),
    st.floats(0.0, 2.0),
)
def test_rectangles_and_kicks_step_as_with_a_zero_gaussian(pulses, tau, center, t0, fractions, gamma):
    # a zero-strength gaussian adds only the envelope closure, whose 0.0 enters
    # as 0.0 + c == c: the closure-free run agrees bit for bit, signed zeros included
    t1 = t0 + 3.0
    marks = sorted(t0 + 3.0 * f for f in fractions) + [t1]
    cfg = IntegratorConfig(dt=0.01, unitarity_tolerance=math.inf)

    def states(sequence):
        series = rk4_evolve(sequence, SystemParams(gamma), (1.0, 0.0), t0, t1, cfg, record_times=marks)
        return series.states.tobytes()

    assert states(pulses) == states([*pulses, gaussian(0.0, tau, center)])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(_RECT_OR_KICK, st.builds(ideal_kick, _STRENGTH, st.just(0.0))), max_size=4),
    st.sampled_from([0.0, -0.0, 1.0]),
    st.floats(0.0, 3.0),
    st.lists(st.floats(0.0, 1.0), max_size=12),
    st.lists(st.sampled_from([-1e-12, -5e-13, -0.0, 0.0, 5e-13, 1e-12]), max_size=4),
)
def test_stops_are_the_sorted_set(pulses, t0, span, fractions, nudges):
    # record times that repeat, fall on kicks and rectangle edges, and lie
    # within the 1e-12 clip of either end: the planned stops are the floats
    # (signed zeros included) of the sorted set they were built from before
    t1 = t0 + span
    breaks = [t for p in pulses for t in {p.window()[0], p.center, p.window()[1]} if t0 <= t <= t1]
    ends = [t0 + x for x in nudges[::2]] + [t1 + x for x in nudges[1::2]]
    marks = [t0 + f * span for f in fractions] + breaks + ends
    marks = np.sort(np.clip(marks + marks[::2], t0, t1))
    kicks = [p.center for p in pulses if p.shape is PulseShape.IDEAL_KICK and t0 <= p.center <= t1]
    edges = [e for p in pulses if p.shape is PulseShape.RECTANGULAR for e in p.window() if t0 < e < t1]
    before = np.array(sorted({t0, t1, *kicks, *edges, *marks.tolist()}))
    assert evolve._stops([t0, t1], kicks, edges, marks).tobytes() == before.tobytes()
    cfg = IntegratorConfig(dt=1.0, unitarity_tolerance=math.inf)
    series = rk4_evolve(pulses, unit_system(), (1.0, 0.0), t0, t1, cfg, record_times=marks)
    assert series.segments == before.size - 1


def test_rectangles_and_kicks_build_no_envelope(monkeypatch):
    def refuse(_pulses):
        raise AssertionError("envelope built for a sequence without a gaussian")

    monkeypatch.setattr(evolve, "envelope", refuse)
    pulses = [rectangular(0.7, 0.5, 1.0), ideal_kick(0.3, 2.0)]
    with mock.patch.object(evolve, "_block_map", wraps=evolve._block_map) as block_map:
        series = rk4_evolve(pulses, unit_system(), (1.0, 0.0), 0.0, 3.0, IntegratorConfig(dt=0.01),
                            record_times=[0.5, 1.0, 1.001, 2.0, 3.0])
    # long spans and short rows alike take their coupling from v_const alone
    assert block_map.call_count > 1
    assert all(call.args[0] is None for call in block_map.call_args_list)
    exact = (prop.free_propagator(1.0, 1.0) @ prop.degenerate_propagator(0.3)
             @ prop.rectangular_propagator(0.7, 0.5, 1.0, 1.0, 2.0))
    assert np.max(np.abs(series.final_state() - exact[:, 0])) < 1e-8


def test_a_gaussian_pair_is_evaluated_three_times_a_step(monkeypatch):
    # long spans (the scalar closure) and short rows (envelope_array) alike:
    # start, midpoint and end of every step, counted as the grid points that
    # each _block_map coupling is given
    points, calls, block_map = [0], [0], evolve._block_map

    def counted_points(v, *args):
        def w(grid):
            points[0] += grid.size
            return v(grid)

        return block_map(None if v is None else w, *args)

    def counted(pulses):
        v = envelope(pulses)

        def w(t):
            calls[0] += 1
            return v(t)

        return w

    monkeypatch.setattr(evolve, "_block_map", counted_points)
    monkeypatch.setattr(evolve, "envelope", counted)
    pair = [gaussian(math.pi / 2, 10.0, 100.0), gaussian(-math.pi / 2, 10.0, 300.0)]
    series = rk4_evolve(pair, HYDROGEN, (1.0, 0.0), 0.0, 400.0, record_times=[150.0, 150.1, 400.0])
    assert points[0] == 3 * series.steps > 0
    assert 0 < calls[0] < points[0]  # both routes ran


@settings(max_examples=40, deadline=None)
@given(st.lists(_PULSE, max_size=4), st.floats(0.0, 1.0), st.lists(st.floats(0.0, 4.0), max_size=20))
def test_array_integrated_strength_matches_the_scalar_calls(pulses, t0, offsets):
    times = t0 + np.array(offsets)
    scalar = [integrated_strength(pulses, t0, t) for t in times.tolist()]
    assert integrated_strength(pulses, t0, times).tolist() == scalar


@settings(max_examples=20, deadline=None)
@given(st.lists(_PULSE, min_size=1, max_size=3), _SPAN_STEPS, st.floats(0.0, 1.0),
       st.floats(0.5, 3.0))
def test_long_segments_keep_the_propagator_unitary(pulses, n, t0, span):
    # at least n steps, each short enough against gamma = 1 and the summed peaks
    peaks = sum(abs(p.peak) for p in pulses if p.shape is not PulseShape.IDEAL_KICK)
    cfg = IntegratorConfig(dt=min(span / n, 0.01 / (1.0 + peaks)))
    u = rk4_propagator(pulses, unit_system(), t0, t0 + span, cfg)
    assert unitarity_defect(u) <= cfg.unitarity_tolerance


class TestRk4Propagator:
    def test_free_matches_closed_form(self):
        params = unit_system()
        u = rk4_propagator([], params, 0.0, 2.0, IntegratorConfig(dt=0.002))
        assert max_abs_diff(u, prop.free_propagator(params.gamma, 2.0)) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(4)
        state = rng.normal(size=2) + 1j * rng.normal(size=2)
        state /= np.linalg.norm(state)
        u = rk4_propagator(FIG1_PULSE, HYDROGEN, 0.0, 300.0)
        direct = rk4_evolve(FIG1_PULSE, HYDROGEN, state, 0.0, 300.0,
                            record_times=[300.0]).final_state()
        assert np.max(np.abs(u @ state - direct)) < 1e-10

    def test_rectangular_pulse_vs_exact(self):
        gamma, alpha, beta = 0.9, 0.7, 0.4
        tau = beta / gamma
        u = rk4_propagator([rectangular(alpha, tau, 1.5 * tau)], SystemParams(gamma),
                           0.0, 4.0 * tau, IntegratorConfig(dt=tau / 1e4))
        exact = prop.rectangular_propagator(alpha, beta, gamma, 1.5 * tau, 4.0 * tau)
        assert max_abs_diff(u, exact) < 1e-8

    def test_narrow_gaussian_error_is_order_beta(self):
        # element error against the kick limit shrinks linearly with tau
        params = HYDROGEN
        target = prop.kick_sequence_propagator(((math.pi / 2, 150.0),), params.gamma, 300.0)
        errs, taus = [], (2.0, 1.0, 0.5)
        for tau in taus:
            u = rk4_propagator([gaussian(math.pi / 2, tau, 150.0)], params, 0.0, 300.0)
            errs.append(max_abs_diff(u, target))
        fit = error_scaling_fit(taus, errs)
        assert fit.slope == pytest.approx(1.0, abs=0.1)

    def test_unitary_to_tolerance(self):
        u = rk4_propagator(FIG1_PULSE, HYDROGEN, 0.0, 300.0)
        assert unitarity_defect(u) < 1e-8

    def test_nan_propagator_raises(self):
        # used to return an all-NaN matrix
        with pytest.raises(NonUnitaryError):
            rk4_propagator([gaussian(1e300, 1.0, 1.0)], unit_system(), 0.0, 2.0,
                           IntegratorConfig(dt=0.5))


class TestNoOrderingNumeric:
    def test_schrodinger_matches_closed_form(self):
        t = 300.0
        u_num = no_ordering_numeric(FIG1_PULSE, HYDROGEN, t, 0.0)
        alpha_running = math.pi / 2  # pulse complete well before t
        u_closed = prop.no_ordering(alpha_running, 0.0, HYDROGEN.gamma, t)
        assert max_abs_diff(u_num, u_closed) < 1e-12

    def test_schrodinger_kick_antikick_never_transfers(self):
        params = unit_system()
        kicks = [ideal_kick(1.1, 1.0), ideal_kick(-1.1, 2.5)]
        u0 = no_ordering_numeric(kicks, params, 4.0, 0.0)
        assert abs(u0[1, 0]) == 0.0

    def test_schrodinger_transfer_dies_at_large_times(self):
        pulse = [gaussian(math.pi / 2, 5.0, 100.0)]
        p2s = []
        for tf in (300.0, 1000.0, 3000.0):
            u0 = no_ordering_numeric(pulse, HYDROGEN, tf, 0.0)
            p2s.append(abs(u0[1, 0]) ** 2)
        assert p2s[0] > p2s[1] > p2s[2]
        assert p2s[2] < 0.03

    def test_interaction_single_matches_closed_form(self):
        params = HYDROGEN
        tau = 10.0
        beta = params.gamma * tau
        pulse = [gaussian(1.2, tau, 150.0)]
        u_num = no_ordering_numeric(pulse, params, 400.0, 1.0)
        z = prop.kick_integral(((1.2 * math.exp(-beta * beta), 150.0),), 1.0, params.gamma)
        u_closed = prop.no_ordering(z, 1.0, params.gamma, 400.0)
        assert max_abs_diff(u_num, u_closed) < 1e-8

    def test_interaction_degenerate_equals_schrodinger(self):
        params = SystemParams(0.0)
        pulse = [gaussian(0.9, 2.0, 20.0)]
        u_i = no_ordering_numeric(pulse, params, 50.0, 1.0)
        u_s = no_ordering_numeric(pulse, params, 50.0, 0.0)
        assert max_abs_diff(u_i, u_s) < 1e-10

    def test_interaction_double_matches_closed_form(self):
        params = HYDROGEN
        tau = 0.03 / params.gamma  # beta = 0.03
        pair = [gaussian(0.9, tau, 120.0), gaussian(-0.9, tau, 420.0)]
        u_num = no_ordering_numeric(pair, params, 600.0, 1.0)
        a = 0.9 * math.exp(-0.03**2)
        z = prop.kick_integral(((a, 120.0), (-a, 420.0)), 1.0, params.gamma)
        u_closed = prop.no_ordering(z, 1.0, params.gamma, 600.0)
        assert max_abs_diff(u_num, u_closed) < 1e-6

    def test_interaction_kick_jumps(self):
        params = unit_system()
        kicks = [ideal_kick(0.7, 1.0), ideal_kick(-0.7, 2.0)]
        z = interaction_integral(kicks, params, 3.0, 1.0)
        expected = 0.7 * (np.exp(2j * 1.0) - np.exp(2j * 2.0))
        assert z == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize(
        "gamma, t",
        [(0.7, 20.0), (0.05, 20.0), (1.9, 20.0), (0.7, 9.0)],  # the last clips at t
    )
    def test_interaction_integral_of_rectangles(self, gamma, t):
        # (peak / 2 i gamma)(e^{2 i gamma hi} - e^{2 i gamma lo}) per window clipped to [0, t]
        pulses = [rectangular(0.8, 3.0, 1.0), rectangular(-1.3, 4.0, 8.0)]
        expected = 0.0
        for p in pulses:
            lo, hi = max(p.window()[0], 0.0), min(p.window()[1], t)
            expected += p.peak / (2j * gamma) * (np.exp(2j * gamma * hi) - np.exp(2j * gamma * lo))
        z = interaction_integral(pulses, SystemParams(gamma), t, 1.0)
        assert abs(z - expected) < 1e-13

    def test_integral_series_matches_single_time_quadrature(self):
        params = HYDROGEN
        times = np.array([50.0, 150.0, 350.0, 500.0])
        # gaussians by trapezoid; rectangles exactly, one clipped at t0 = 0 and
        # one at t = 150 that ends inside [0, 500]
        for pulses, tol in (
            ([gaussian(1.0, 10.0, 100.0), gaussian(-1.0, 10.0, 300.0)], 1e-7),
            ([rectangular(1.0, 20.0, 5.0), rectangular(-1.0, 40.0, 140.0)], 1e-12),
        ):
            dt = check_step_budget(pulses, params, 0.0, 500.0, IntegratorConfig(), times.size)
            series_vals = interaction_integral_series(pulses, params, 0.0, times, dt)
            for t, val in zip(times, series_vals):
                assert abs(interaction_integral(pulses, params, float(t), 1.0) - val) < tol

    def test_integral_series_without_a_gaussian_builds_no_grid(self, monkeypatch):
        # the rectangle pair on the benchmark's 19951-sample grid, and a kick:
        # the series is exact, so no envelope is sampled
        def no_grid(*args):
            raise AssertionError("envelope_array called")

        monkeypatch.setattr(evolve, "envelope_array", no_grid)
        params = HYDROGEN
        times = np.linspace(0.0, 700.0, 19951)
        for pulses in (
            [rectangular(1.0, 1.0, 100.0), rectangular(-1.0, 1.0, 586.0)],
            [rectangular(0.7, 20.0, 300.0), ideal_kick(0.8, 150.0)],
        ):
            series_vals = interaction_integral_series(pulses, params, 0.0, times, 0.02)
            for t, val in zip(times, series_vals):
                assert abs(interaction_integral(pulses, params, float(t), 1.0) - val) < 1e-12

    @pytest.mark.parametrize("t0, kicks", [
        (0.0, [ideal_kick(0.8, 150.0)]),  # on a record time: counted there
        (0.0, [ideal_kick(0.8, 200.0)]),  # between record times
        (0.0, [ideal_kick(0.8, 600.0)]),  # after the last record time: never counted
        (100.0, [ideal_kick(-0.6, 60.0), ideal_kick(0.8, 150.0)]),  # the first is before t0
    ], ids=["on-a-record-time", "between-record-times", "after-the-last", "before-t0"])
    def test_integral_series_of_kicks_matches_single_time_quadrature(self, t0, kicks):
        params = HYDROGEN
        times = np.array([150.0, 350.0, 500.0])
        series_vals = interaction_integral_series(kicks, params, t0, times, 1.0)
        for t, val in zip(times, series_vals):
            z = interaction_integral(kicks, params, float(t), 1.0) - interaction_integral(kicks, params, t0, 1.0)
            assert abs(z - val) < 1e-13


_SAMPLE = st.tuples(
    st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),  # Re z, Im z
    st.sampled_from([0.0, 1e-9, 0.3, 2.0]), st.floats(0.0, 300.0), st.sampled_from([0.0, 1.0]),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_SAMPLE, min_size=1, max_size=12))
@example(samples=[(0.0, 0.0, 0.0, 0.0, 0.0)])  # z = 0, c = 0
@example(samples=[(0.0, 0.0, 1.0, 2.0, 0.0), (1.2, -0.4, 0.0, 7.0, 0.0), (0.5, 0.5, 0.3, 9.0, 1.0)])
def test_stacked_exponential_is_the_one_sample_route_bit_for_bit(samples):
    # each matrix of the stack against the loop reference, one eigh of one 2x2
    # Omega per sample; gamma = 0 and lam = 1 both give c = 0
    zr, zi, gamma, t, lam = (np.array(x) for x in zip(*samples))
    z = zr + 1j * zi
    stack = spectral_exponential(z, (1.0 - lam) * gamma * t)
    assert stack.shape == (len(samples), 2, 2)
    for k, u in enumerate(stack):
        zk, c = complex(z[k]), (1.0 - float(lam[k])) * float(gamma[k]) * float(t[k])
        w, v = np.linalg.eigh(zk.real * SIGMA_X + zk.imag * SIGMA_Y - c * SIGMA_Z)
        assert ((v * np.exp(-1j * w)) @ v.conj().T).tobytes() == u.tobytes()


@pytest.mark.filterwarnings("error")  # a NaN entry warns nothing
def test_stacked_exponential_gives_nan_for_a_nan_entry():
    z, c = np.array([0.3 - 0.2j, complex(math.nan, 0.0), 1.1j]), np.array([0.5, 0.5, math.nan])
    stack = spectral_exponential(z, c)
    assert np.isnan(stack[1:]).all()
    assert stack[0].tobytes() == spectral_exponential(z[0], c[0]).tobytes()
    assert unitarity_defect(stack[0]) < 1e-15


class TestConvergence:
    def test_global_error_is_fourth_order(self):
        ref = rk4_propagator(FIG1_PULSE, HYDROGEN, 0.0, 300.0, IntegratorConfig(dt=0.0125))
        dts = np.array([1.6, 0.8, 0.4, 0.2])
        # the coarse ladder points legitimately drift past the default norm gate
        errs = np.array([
            max_abs_diff(
                rk4_propagator(FIG1_PULSE, HYDROGEN, 0.0, 300.0,
                               IntegratorConfig(dt=float(dt), unitarity_tolerance=1e-4)),
                ref,
            )
            for dt in dts
        ])
        fit = error_scaling_fit(dts, errs)
        assert fit.slope == pytest.approx(4.0, abs=0.2)


def test_default_dt_rule():
    def resolved(pulses, params):
        return check_step_budget(pulses, params, 0.0, 300.0, IntegratorConfig(), 0)

    assert resolved(FIG1_PULSE, HYDROGEN) == pytest.approx(10.0 / 50.0)
    assert resolved([gaussian(1.0, 1000.0, 0.0)], HYDROGEN) == pytest.approx(972.0 / 2000.0)
    assert resolved([], SystemParams(0.0)) == pytest.approx(0.3)
