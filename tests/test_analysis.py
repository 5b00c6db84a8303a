import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from kickedqubit import __version__, analysis, cli, evolve
from kickedqubit import propagators as prop
from kickedqubit.analysis import (
    SCENARIO_NAMES,
    _parameters,
    error_scaling_fit,
    p2_closed_forms_double,
    p2_closed_forms_single,
    scenario,
)
from kickedqubit.evolve import IntegratorConfig
from kickedqubit.pulses import gaussian, hydrogen_2s2p, ideal_kick, unit_system
from kickedqubit.su2 import NonUnitaryError, Z_AXIS, max_abs_diff, pauli_exponential, probabilities


class TestClosedFormsSingle:
    def test_degenerate_point_all_coincide(self):
        forms = p2_closed_forms_single(1.1, 0.0, 0.0)
        target = math.sin(1.1) ** 2
        assert forms.exact_kick == pytest.approx(target, rel=1e-14)
        assert forms.no_ordering_schrodinger == pytest.approx(target, rel=1e-14)
        assert forms.no_ordering_interaction == pytest.approx(target, rel=1e-14)

    def test_bare_frame_zero_at_full_rotation(self):
        forms = p2_closed_forms_single(math.pi / 2, 0.0, math.sqrt(3) / 2 * math.pi)
        assert forms.no_ordering_schrodinger == pytest.approx(0.0, abs=1e-25)

    def test_width_damping_half(self):
        beta = math.sqrt(math.log(2.0))
        forms = p2_closed_forms_single(math.pi / 2, beta, 1.0)
        assert forms.no_ordering_interaction == pytest.approx(0.5, rel=1e-12)

    def test_zero_point_is_regular(self):
        forms = p2_closed_forms_single(0.0, 0.0, 0.0)
        assert forms == (0.0, 0.0, 0.0)


class TestClosedFormsDouble:
    def test_ordering_free_points(self):
        # at gamma Ts = k pi/2 the exact and rotating-frame forms coincide
        for k in range(5):
            gamma_ts = k * math.pi / 2
            for alpha in (math.pi / 2, 3 * math.pi / 8, math.pi / 4):
                forms = p2_closed_forms_double(alpha, 0.0, gamma_ts)
                assert forms.exact_kick == pytest.approx(
                    forms.no_ordering_interaction, abs=1e-12
                )

    def test_bare_frame_identically_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            forms = p2_closed_forms_double(
                rng.uniform(-3, 3), rng.uniform(0, 1), rng.uniform(0, 10)
            )
            assert forms.no_ordering_schrodinger == 0.0

    def test_coalescing_pair(self):
        forms = p2_closed_forms_double(1.2, 0.1, 0.0)
        assert forms == (0.0, 0.0, 0.0)


class TestTimeOrderingReport:
    """Size of the time-ordering effect: ||U - U0|| and the P2 shift, frame by frame."""

    def test_single_kick_interaction_frame_is_ordering_free(self):
        alpha, gamma, tk, t = 1.1, 0.8, 1.0, 3.0
        kick = ((alpha, tk),)
        u_i = pauli_exponential(-gamma * t, Z_AXIS) @ prop.kick_sequence_propagator(kick, gamma, t)
        u_i0 = prop.no_ordering(prop.kick_integral(kick, 1.0, gamma), 1.0, gamma, t)
        assert max_abs_diff(u_i, u_i0) < 1e-12

    def test_single_kick_bare_frame_effect_saturates(self):
        # large free phase suppresses the averaged transfer entirely
        alpha, gamma, tk = math.pi / 2, 1.0, 1.0
        t = 60.0
        u = prop.kick_sequence_propagator(((alpha, tk),), gamma, t)
        u0 = prop.no_ordering(alpha, 0.0, gamma, t)
        delta_p2 = probabilities(u, (1.0, 0.0))[1] - probabilities(u0, (1.0, 0.0))[1]
        expected_p2_0 = p2_closed_forms_single(alpha, 0.0, gamma * t).no_ordering_schrodinger
        assert delta_p2 == pytest.approx(1.0 - expected_p2_0, abs=1e-12)
        assert delta_p2 > 0.99


class TestScalingFit:
    def test_exact_quadratic(self):
        x = np.geomspace(0.1, 10.0, 9)
        fit = error_scaling_fit(x, x**2)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.residual < 1e-12

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            error_scaling_fit([1.0, 2.0], [1.0, 2.0])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            error_scaling_fit([1.0, 2.0, 3.0], [1.0, 0.0, 2.0])


QUICK = IntegratorConfig()


class TestScenarios:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            scenario("fig9")

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            scenario("fig1", {"bananas": 1.0})
        # keys another scenario uses, and tau given with taus, are not ignored
        for name, overrides, rejected in [
            ("fig1", {"t1": 50.0}, "t1"),
            ("fig1", {"t2": 500.0}, "t2"),
            ("fig2", {"t_k": 5.0}, "t_k"),
            ("fig3", {"t_k": 5.0}, "t_k"),
            ("fig1", {"tau": 5.0, "taus": (1.0, 2.0)}, "tau"),
        ]:
            message = f"scenario {name!r} does not accept overrides [{rejected!r}]"
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                scenario(name, {"n_points": 3, **overrides})

    @pytest.mark.parametrize("n_points", [2.7, math.nan, math.inf, "3"])
    def test_point_count_must_be_a_whole_number(self, n_points):
        with pytest.raises(ValueError, match="n_points must be a whole number"):
            scenario("fig1", {"n_points": n_points, "taus": (10.0,)})

    @pytest.mark.parametrize("taus", [5, 5.0, np.int64(5), [5], np.array([[5.0]])])
    def test_one_number_is_a_one_entry_list(self, taus):
        # every value goes through np.ravel to floats, from the API as from --set
        assert _parameters("fig1", {"taus": taus})["taus"] == (5.0,)
        built = scenario("fig1", {"taus": taus, "n_points": 3})
        listed = scenario("fig1", {"taus": (5.0,), "n_points": 3})
        assert built.metadata == listed.metadata
        assert list(built.columns) == list(listed.columns) == ["P2_tau5"]
        assert np.array_equal(built.columns["P2_tau5"], listed.columns["P2_tau5"])

    @pytest.mark.parametrize("n_points", [1e1, np.float64(10.0), np.int32(10), (10,)])
    def test_point_count_is_an_int(self, n_points):
        n = _parameters("fig1", {"n_points": n_points})["n_points"]
        assert type(n) is int and n == 10

    @pytest.mark.parametrize("overrides, message", [
        ({"alpha": (1.0, 2.0)}, "alpha takes one value, got 2"),
        ({"t_k": []}, "t_k takes one value, got 0"),
        ({"taus": ()}, "taus takes one or more values, got 0"),
        ({"t_k": "150"}, "t_k must be numeric, got '150'"),
        ({"taus": [1.0, "x"]}, "taus must be numeric, got [1.0, 'x']"),
        ({"alpha": 1j}, "alpha must be numeric, got 1j"),
        ({"n_points": 1e8}, "n_points must be at most 1e+07, got 100000000"),
        ({"taus": [[1.0], [2.0, 3.0]], "n_points": 3}, "taus must be numeric, got [[1.0], [2.0, 3.0]]"),
    ])
    def test_bad_override_value_names_the_key(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            scenario("fig1", overrides)

    def test_names_exported(self):
        assert set(SCENARIO_NAMES) == {
            "fig1", "fig2", "fig3", "fig4_left", "fig4_right", "fig5_left", "fig5_right",
        }

    def test_fig1_endpoint(self):
        series = scenario("fig1", {"tau": 10.0, "n_points": 31})
        assert series.parameter == "t_ps"
        assert series.values[-1] == 300.0
        assert series.columns["P2_tau10"][-1] == pytest.approx(0.9976840741525, abs=1e-6)

    def test_fig2_endpoint(self):
        series = scenario("fig2", {"tau": 10.0, "n_points": 21})
        assert series.columns["P2_tau10"][-1] == pytest.approx(1.438209061968e-05, rel=1e-5)

    def test_fig3_endpoint(self):
        series = scenario("fig3", {"tau": 10.0, "n_points": 21})
        assert series.columns["P2_tau10"][-1] == pytest.approx(0.9995553481991, abs=1e-6)

    def test_fig4_left_small_grid(self):
        series = scenario(
            "fig4_left",
            {"n_points": 5, "observation_times": (300.0, 500.0), "tau_max": 30.0},
        )
        assert series.parameter == "tau_ps"
        # rotating-frame no-ordering curve is observation-time independent
        # and matches its numeric column once the pulse fits the window
        closed = series.columns["P2_noTO_I"]
        numeric = series.columns["P2_noTO_I_numeric_Tf500"]
        assert np.max(np.abs(closed - numeric)) < 1e-6
        # narrow pulses approach the ideal kick transfer
        assert series.columns["P2_Tf300"][0] == pytest.approx(1.0, abs=1e-4)

    def test_fig4_right_decay_of_bare_average(self):
        series = scenario("fig4_right", {"n_points": 41, "t_f": 1800.0})
        p2_s = series.columns["P2_noTO_S"]
        # oscillates under the envelope alpha^2 / (alpha^2 + (gamma Tf)^2),
        # which damps the bare-frame transfer away entirely at large Tf
        params = hydrogen_2s2p()
        alpha = math.pi / 2
        envelope = alpha**2 / (alpha**2 + (params.gamma * series.values) ** 2)
        assert np.all(p2_s <= envelope + 1e-12)
        n = len(p2_s)
        assert np.max(p2_s[3 * n // 4:]) < np.max(p2_s[n // 4: n // 2])
        assert float(envelope[-1]) < 0.1
        # rotating-frame column is flat after the pulse dies off
        p2_i = series.columns["P2_noTO_I_numeric"]
        late = p2_i[series.values > 400.0]
        assert np.max(late) - np.min(late) < 1e-6
        # exact transfer stays put after the pulse
        p2 = series.columns["P2"]
        late_exact = p2[series.values > 400.0]
        assert np.max(late_exact) - np.min(late_exact) < 1e-6

    def test_fig5_zeros_and_coincidence(self):
        params = hydrogen_2s2p()
        half = params.rabi_time / 2.0
        series = scenario(
            "fig5_left",
            {"alphas": (math.pi / 4,), "n_points": 9, "ts_max": 4.0 * half},
        )
        # grid hits gamma Ts = k pi/2 exactly at every other point
        p2 = series.columns["P2_alpha0.25pi"]
        p2_noto = series.columns["P2_noTO_I_alpha0.25pi"]
        kick = series.columns["P2_kick_alpha0.25pi"]
        assert np.all(series.columns["P2_noTO_S"] == 0.0)
        for i, ts in enumerate(series.values):
            gts = params.gamma * ts
            if abs(math.sin(2.0 * gts)) < 1e-9:  # gamma Ts = k pi/2
                # coincidence up to the finite-width damping of the pulses
                assert abs(kick[i] - p2_noto[i]) < 1e-4
                assert abs(p2[i] - p2_noto[i]) < 5e-3
        # alpha = pi/4 transfers fully at gamma Ts = pi/2
        idx = np.argmin(np.abs(series.values - half))
        assert p2[idx] == pytest.approx(1.0, abs=1e-3)

    def test_fig2_kick_limit_returns_population(self):
        series = scenario("fig2", {"tau": 1.0, "n_points": 15})
        assert series.columns["P2_tau1"][-1] < 2e-7

    def test_fig2_endpoint_monotone_in_width(self):
        # monotone in tau^2; at this separation the quadratic term cancels
        # (full return point), leaving quartic growth
        endpoints = []
        for tau in (1.0, 2.0, 4.0):
            series = scenario("fig2", {"tau": tau, "n_points": 3})
            endpoints.append(series.columns[f"P2_tau{tau:g}"][-1])
        assert endpoints[0] < endpoints[1] < endpoints[2]
        assert endpoints[1] / endpoints[0] == pytest.approx(16.0, rel=0.05)
        assert endpoints[2] / endpoints[1] == pytest.approx(16.0, rel=0.05)


REFERENCE_PANELS = Path(__file__).resolve().parents[1] / "out" / "figures"


def _read_panel(name: str) -> tuple[list[str], np.ndarray]:
    """Header and data of a committed scenario CSV ('#' lines are metadata)."""
    lines = (REFERENCE_PANELS / f"{name}.csv").read_text().splitlines()
    lines = [line for line in lines if not line.startswith("#")]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


@pytest.mark.parametrize("frame", ["bare", "rotating", "infinite"])
def test_no_ordering_columns_reject_a_nan_row(monkeypatch, frame):
    # a NaN (or an infinite z) on a middle row of either column must survive
    # the running defect and raise
    name = "integrated_strength" if frame == "bare" else "interaction_integral_series"
    real = getattr(analysis, name)

    def bad_at_two(*args):
        z = real(*args)
        z[1] = math.inf if frame == "infinite" else math.nan
        return z

    monkeypatch.setattr(analysis, name, bad_at_two)
    with pytest.raises(NonUnitaryError):
        analysis.no_ordering_p2_columns(
            [], unit_system(), 0.0, np.array([1.0, 2.0, 3.0]), 0.01
        )


def test_no_ordering_columns_reject_an_overflowing_strength():
    # under pytest's error::RuntimeWarning filter: the running strength of two
    # 1e308 kicks used to raise numpy's overflow warning before the guard ran
    pulses = [ideal_kick(1e308, 1.0), ideal_kick(1e308, 2.0)]
    with pytest.raises(NonUnitaryError, match="nan"):
        analysis.no_ordering_p2_columns(pulses, unit_system(), 0.0, np.linspace(0.0, 3.0, 3), 0.01)


@pytest.mark.parametrize("times", [[1.0, math.nan], [math.nan, 1.0], [math.nan]],
                         ids=["nan-last", "nan-first", "nan-alone"])
def test_no_ordering_columns_refuse_a_nan_time(times):
    # a trailing NaN used to leak numpy's "arange: cannot compute length"
    with pytest.raises(ValueError, match="^t1 must be >= t0$"):
        analysis.no_ordering_p2_columns(
            [gaussian(1.0, 1.0, 0.5)], unit_system(), 0.0, np.array(times), 0.01
        )


def test_no_ordering_columns_take_times_in_any_order():
    # the trapezoid's grid used to end at the last time, not the latest: an
    # early time last left the later rows with a rotating-frame P2 of 0
    pulses, params = [gaussian(1.0, 10.0, 150.0)], hydrogen_2s2p()
    times = np.array([50.0, 300.0, 150.0])
    order = np.argsort(times)
    shuffled = analysis.no_ordering_p2_columns(pulses, params, 0.0, times, 0.2)
    ordered = analysis.no_ordering_p2_columns(pulses, params, 0.0, times[order], 0.2)
    for a, b in zip(shuffled, ordered):
        assert np.array_equal(a[order], b)


def test_benchmark_hooks_keep_their_shape(monkeypatch):
    # the sweep-point timer wraps analysis.rk4_evolve; the step counter reads
    # the last three arguments of evolve._rk4_span
    calls = []
    real = analysis.rk4_evolve

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "rk4_evolve", counted)
    scenario("fig5_left", {"alphas": (math.pi / 2,), "n_points": 3})
    assert len(calls) == 3
    assert list(inspect.signature(evolve._rk4_span).parameters)[-3:] == ["t0", "t1", "n"]


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4_right"])
def test_scenario_matches_reference_panel(name, capsys):
    # the fast panels against the committed out/figures references
    series = scenario(name)
    header, expected = _read_panel(name)
    assert header == [series.parameter, *series.columns]
    got = np.column_stack([series.values, *series.columns.values()])
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-10
    # and the CLI's metadata lines, but for the version line the panels predate
    assert cli.main(["figure", name, "--out", "-"]) == 0
    meta = [line for line in capsys.readouterr().out.splitlines() if line.startswith("#")]
    text = (REFERENCE_PANELS / f"{name}.csv").read_text()
    assert meta[-1] == f"# kickedqubit {__version__}"
    assert meta[:-1] == [line for line in text.splitlines() if line.startswith("#")]


def test_width_scan_matches_reference_panel():
    # two widths, tau = 1 and 300 ps, are the first and last of the panel's 200
    series = scenario("fig4_left", {"n_points": 2})
    header, expected = _read_panel("fig4_left")
    assert header == [series.parameter, *series.columns]
    got = np.column_stack([series.values, *series.columns.values()])
    assert got.shape == (2, len(header)) and len(expected) == 200
    assert np.max(np.abs(got - expected[[0, -1]])) <= 1e-10


@pytest.mark.parametrize("name", ["fig5_left", "fig5_right"])
def test_separation_scan_matches_reference_panel(name):
    # 20 separations land on every 21st of the panel's 400; pi/2 is one of its alphas
    series = scenario(name, {"alphas": (math.pi / 2,), "n_points": 20})
    header, expected = _read_panel(name)
    labels = [series.parameter, *series.columns]
    want = expected[::21, [header.index(label) for label in labels]]
    got = np.column_stack([series.values, *series.columns.values()])
    assert got.shape == want.shape == (20, 5)
    assert np.max(np.abs(got - want)) <= 1e-10
