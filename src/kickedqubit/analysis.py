"""Closed-form transfer probabilities, a log-log fit, and scenarios.

The bundled scenarios (fig1 .. fig5_right) are the reference experiments
for a hydrogen 2s-2p system driven by gaussian pulses: single-pulse and
double-pulse population transfer versus time, pulse width, observation
time, and pulse separation.  Each returns a SweepSeries ready for CSV
emission.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Any, NamedTuple

import numpy as np

from . import propagators
from .evolve import MAX_RK4_STEPS, IntegratorConfig, interaction_integral_series, rk4_evolve
from .pulses import (
    PulseSequence,
    SystemParams,
    gaussian,
    hydrogen_2s2p,
    integrated_strength,
)
from .su2 import NonUnitaryError


class KickProbabilities(NamedTuple):
    """P2 closed forms: exact kick limit, then the two no-ordering frames."""

    exact_kick: float
    no_ordering_schrodinger: float
    no_ordering_interaction: float


def p2_closed_forms_single(
    alpha: float, beta: float, gamma_tf: float
) -> KickProbabilities:
    """Transfer probability for a single pulse in the three descriptions.

    exact kick limit: sin^2(alpha)
    bare frame, no ordering: (alpha sin(xi)/xi)^2, xi = sqrt(alpha^2 + (gamma Tf)^2)
    rotating frame, no ordering: sin^2(alpha e^{-beta^2})
    """
    xi = math.hypot(alpha, gamma_tf)
    amp = alpha * (math.sin(xi) / xi if xi > 1e-12 else 1.0)
    return KickProbabilities(
        exact_kick=math.sin(alpha) ** 2,
        no_ordering_schrodinger=amp * amp,
        no_ordering_interaction=math.sin(alpha * math.exp(-beta * beta)) ** 2,
    )


def p2_closed_forms_double(
    alpha: float, beta: float, gamma_ts: float
) -> KickProbabilities:
    """Transfer probability for a kick-antikick pair in the three descriptions.

    exact kick limit: sin^2(gamma Ts) sin^2(2 alpha)
    bare frame, no ordering: identically zero (the average coupling vanishes)
    rotating frame, no ordering: sin^2(2 alpha e^{-beta^2} sin(gamma Ts))
    """
    return KickProbabilities(
        exact_kick=math.sin(gamma_ts) ** 2 * math.sin(2.0 * alpha) ** 2,
        no_ordering_schrodinger=0.0,
        no_ordering_interaction=math.sin(
            2.0 * alpha * math.exp(-beta * beta) * math.sin(gamma_ts)
        )
        ** 2,
    )


@dataclass
class SweepSeries:
    """One swept parameter and any number of labeled observable columns."""

    parameter: str
    values: np.ndarray
    columns: dict[str, np.ndarray]
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        for label, col in self.columns.items():
            if len(col) != len(self.values):
                raise ValueError(f"column {label!r} length mismatch")


class ScalingFit(NamedTuple):
    slope: float
    intercept: float
    residual: float


def error_scaling_fit(series: SweepSeries) -> ScalingFit:
    """Least-squares slope of log(observable) against log(parameter).

    The series must have exactly one column.  The residual is the RMS
    misfit in log space.  Requires at least three strictly positive points.
    """
    if len(series.columns) != 1:
        raise ValueError(f"need a series with one column, got {len(series.columns)}")
    x = np.asarray(series.values, dtype=float)
    y = np.asarray(next(iter(series.columns.values())), dtype=float)
    if x.size < 3:
        raise ValueError("need at least three points to fit a slope")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("log-log fit needs strictly positive values")
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    resid = float(np.sqrt(np.mean((np.log(y) - (slope * np.log(x) + intercept)) ** 2)))
    return ScalingFit(float(slope), float(intercept), resid)


SCENARIO_NAMES = (
    "fig1",
    "fig2",
    "fig3",
    "fig4_left",
    "fig4_right",
    "fig5_left",
    "fig5_right",
)

_TIME_POINTS = 400  # linear grids (time and separation axes)
_SWEEP_POINTS = 200  # logarithmic tau grids


def _alpha_label(alpha: float) -> str:
    return f"alpha{alpha / math.pi:.4g}pi"


def _system(overrides: dict) -> SystemParams:
    if "rabi_time" in overrides:
        return SystemParams.from_rabi_time(float(overrides["rabi_time"]))
    return hydrogen_2s2p()


def _check_keys(overrides: dict, allowed: set[str], name: str) -> None:
    unknown = set(overrides) - allowed
    if unknown:
        raise ValueError(f"scenario {name!r} does not accept overrides {sorted(unknown)}")


def _bounded(key: str, value: float, low: float, *, strict: bool = False, low_label: str = "") -> float:
    """value if it is finite and >= low (> low when strict); else ValueError naming key."""
    if not ((value > low if strict else value >= low) and value < math.inf):
        op = ">" if strict else ">="
        raise ValueError(f"{key} must be finite and {op} {low_label or f'{low:g}'}, got {value:g}")
    return value


def no_ordering_p2_columns(
    pulses: PulseSequence,
    params: SystemParams,
    t0: float,
    times: np.ndarray,
    cfg: IntegratorConfig | None,
) -> tuple[np.ndarray, np.ndarray]:
    """P2 from t0 to each time without time ordering: (bare frame, rotating frame).

    Both read P2 off propagators.no_ordering_column: the bare frame (lam = 0)
    with the running strength int_{t0}^t v dt, the rotating frame (lam = 1)
    with z = int_{t0}^t v(t') e^{2 i gamma t'} dt'.
    """
    times = np.asarray(times, dtype=float)
    spans, column = (times - t0).tolist(), propagators.no_ordering_column
    frames = (
        (0.0, integrated_strength(pulses, t0, times).tolist()),
        (1.0, interaction_integral_series(pulses, params, t0, times, cfg).tolist()),
    )
    columns = chain.from_iterable(
        map(column, zs, repeat(lam), repeat(params.gamma), spans) for lam, zs in frames
    )
    p = np.fromiter((abs(u) ** 2 for c in columns for u in c), float, count=4 * times.size)
    # one guard over both frames: for the SU(2) form this column check is the full
    # unitarity defect, and a NaN fails it
    defect = np.max(np.abs(p[0::2] + p[1::2] - 1.0), initial=0.0)
    if not defect <= 1e-8:
        raise NonUnitaryError(f"no-ordering propagator is not unitary (defect {defect:.3e})")
    p2 = p[1::2]
    return p2[: times.size], p2[times.size :]


def scenario(
    name: str, overrides: dict | None = None, cfg: IntegratorConfig | None = None
) -> SweepSeries:
    """Build one of the bundled reference experiments.

    Overridable physics parameters: tau/taus, alpha/alphas, t_k, t1, t2,
    t_f, rabi_time; grid controls: n_points, observation_times, ts_max,
    tau_min, tau_max.
    """
    overrides = dict(overrides or {})
    n_points = overrides.get("n_points", 2)
    if not (isinstance(n_points, numbers.Real) and n_points % 1 == 0):
        raise ValueError(f"n_points must be a whole number, got {n_points!r}")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if n_points > MAX_RK4_STEPS:
        raise ValueError(f"n_points must be at most {MAX_RK4_STEPS:.0e}, got {n_points}")
    if name in ("fig1", "fig2", "fig3"):
        return _time_scan(name, overrides, cfg)
    if name == "fig4_left":
        return _width_scan(overrides, cfg)
    if name == "fig4_right":
        return _observation_scan(overrides, cfg)
    if name in ("fig5_left", "fig5_right"):
        return _separation_scan(name, overrides, cfg)
    raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")


def _time_scan(name: str, overrides: dict, cfg: IntegratorConfig | None) -> SweepSeries:
    """P2(t) for a single pulse (fig1) or a kick-antikick pair (fig2, fig3)."""
    _check_keys(
        overrides,
        {"tau", "taus", "alpha", "t_k", "t1", "t2", "t_f", "rabi_time", "n_points"},
        name,
    )
    params = _system(overrides)
    single = name == "fig1"
    alpha = float(overrides.get("alpha", math.pi / 4 if name == "fig3" else math.pi / 2))
    t_f = _bounded("t_f", float(overrides.get("t_f", 300.0 if single else 700.0)), 0.0)
    n = int(overrides.get("n_points", _TIME_POINTS))
    key = "tau" if "tau" in overrides else "taus"
    given = (overrides["tau"],) if "tau" in overrides else overrides.get("taus", (1.0, 10.0, 100.0))
    taus = tuple(_bounded(key, float(x), 0.0, strict=True) for x in given)
    times = np.linspace(0.0, t_f, n)
    columns: dict[str, np.ndarray] = {}
    meta: dict[str, Any] = {
        "alpha_rad": alpha,
        "rabi_time_ps": params.rabi_time,
        "t_f_ps": t_f,
        "taus_ps": taus,
    }
    if single:
        t_k = _bounded("t_k", float(overrides.get("t_k", 150.0)), 0.0)
        meta["t_k_ps"] = t_k
        pulse_sets = {tau: [gaussian(alpha, tau, t_k)] for tau in taus}
    else:
        t1 = _bounded("t1", float(overrides.get("t1", 100.0)), 0.0)
        t2 = _bounded("t2", float(overrides.get("t2", 586.0)), 0.0)
        meta["t1_ps"], meta["t2_ps"] = t1, t2
        pulse_sets = {
            tau: [gaussian(alpha, tau, t1), gaussian(-alpha, tau, t2)] for tau in taus
        }
    for tau, pulses in pulse_sets.items():
        columns[f"P2_tau{tau:g}"] = rk4_evolve(
            pulses, params, (1.0, 0.0), 0.0, t_f, cfg, record_times=times
        ).p2
    meta["max_time_ps"] = t_f
    return SweepSeries("t_ps", times, columns, meta)


def _width_scan(overrides: dict, cfg: IntegratorConfig | None) -> SweepSeries:
    """Single-pulse P2 against pulse width, at several observation times."""
    _check_keys(
        overrides,
        {"alpha", "t_k", "rabi_time", "n_points", "observation_times", "tau_min", "tau_max"},
        "fig4_left",
    )
    params = _system(overrides)
    alpha = float(overrides.get("alpha", math.pi / 2))
    t_k = _bounded("t_k", float(overrides.get("t_k", 150.0)), 0.0)
    # the observation times are a reporting choice, recorded in the metadata
    obs = tuple(
        _bounded("observation_times", float(x), 0.0)
        for x in overrides.get("observation_times", (200.0, 300.0, 500.0))
    )
    if len(set(obs)) != len(obs):
        raise ValueError(f"observation_times must not repeat, got {obs}")
    n = int(overrides.get("n_points", _SWEEP_POINTS))
    taus = np.geomspace(
        _bounded("tau_min", float(overrides.get("tau_min", 1.0)), 0.0, strict=True),
        _bounded("tau_max", float(overrides.get("tau_max", 300.0)), 0.0, strict=True),
        n,
    )
    g = params.gamma
    marks = np.array(sorted(obs))
    # one row per tau, one column per sorted observation time
    exact, noto_s_run, noto_i_num = (np.empty((n, marks.size)) for _ in range(3))
    for i, tau in enumerate(taus):
        pulses = [gaussian(alpha, tau, t_k)]
        exact[i] = rk4_evolve(
            pulses, params, (1.0, 0.0), 0.0, float(marks[-1]), cfg, record_times=marks
        ).p2
        noto_s_run[i], noto_i_num[i] = no_ordering_p2_columns(pulses, params, 0.0, marks, cfg)
    beta = g * taus
    cols: dict[str, np.ndarray] = {}
    for tf in obs:
        j = int(np.searchsorted(marks, tf))
        cols[f"P2_Tf{tf:g}"] = exact[:, j]
        cols[f"P2_noTO_S_Tf{tf:g}"] = np.array(
            [
                p2_closed_forms_single(alpha, b, g * tf).no_ordering_schrodinger
                for b in beta
            ]
        )
        cols[f"P2_noTO_S_running_Tf{tf:g}"] = noto_s_run[:, j]
        cols[f"P2_noTO_I_numeric_Tf{tf:g}"] = noto_i_num[:, j]
    cols["P2_noTO_I"] = np.sin(alpha * np.exp(-beta * beta)) ** 2
    return SweepSeries(
        "tau_ps",
        taus,
        cols,
        {
            "alpha_rad": alpha,
            "t_k_ps": t_k,
            "rabi_time_ps": params.rabi_time,
            "observation_times_ps": obs,
            "max_time_ps": float(marks[-1]),
            "note": "observation times are a reporting choice, not a source value",
        },
    )


def _observation_scan(overrides: dict, cfg: IntegratorConfig | None) -> SweepSeries:
    """Single-pulse P2 against the observation time, from the pulse midpoint on."""
    _check_keys(
        overrides,
        {"alpha", "tau", "t_k", "t_f", "rabi_time", "n_points"},
        "fig4_right",
    )
    params = _system(overrides)
    alpha = float(overrides.get("alpha", math.pi / 2))
    tau = _bounded("tau", float(overrides.get("tau", 10.0)), 0.0, strict=True)
    t_k = _bounded("t_k", float(overrides.get("t_k", 150.0)), 0.0)
    t_max = _bounded("t_f", float(overrides.get("t_f", t_k + 2000.0)), t_k, low_label=f"t_k = {t_k:g}")
    n = int(overrides.get("n_points", _TIME_POINTS))
    g = params.gamma
    beta = g * tau
    tfs = np.linspace(t_k, t_max, n)
    pulses = [gaussian(alpha, tau, t_k)]
    series = rk4_evolve(pulses, params, (1.0, 0.0), 0.0, t_max, cfg, record_times=tfs)
    noto_s_run, noto_i_num = no_ordering_p2_columns(pulses, params, 0.0, tfs, cfg)
    cols = {
        "P2": series.p2,
        "P2_noTO_S": np.array(
            [
                p2_closed_forms_single(alpha, beta, g * tf).no_ordering_schrodinger
                for tf in tfs
            ]
        ),
        "P2_noTO_S_running": noto_s_run,
        "P2_noTO_I": np.full(n, p2_closed_forms_single(alpha, beta, 0.0).no_ordering_interaction),
        "P2_noTO_I_numeric": noto_i_num,
    }
    return SweepSeries(
        "Tf_ps",
        tfs,
        cols,
        {
            "alpha_rad": alpha,
            "tau_ps": tau,
            "t_k_ps": t_k,
            "rabi_time_ps": params.rabi_time,
            "max_time_ps": t_max,
        },
    )


def _separation_scan(name: str, overrides: dict, cfg: IntegratorConfig | None) -> SweepSeries:
    """Kick-antikick P2 against the pulse separation, several strengths."""
    _check_keys(
        overrides,
        {"alphas", "tau", "t1", "rabi_time", "n_points", "ts_max"},
        name,
    )
    params = _system(overrides)
    tau = float(overrides.get("tau", 10.0 if name == "fig5_left" else 100.0))
    tau = _bounded("tau", tau, 0.0, strict=True)
    t1 = _bounded("t1", float(overrides.get("t1", 100.0)), 0.0)
    alphas = tuple(
        float(x) for x in overrides.get("alphas", (math.pi / 2, 3 * math.pi / 8, math.pi / 4))
    )
    n = int(overrides.get("n_points", _TIME_POINTS))
    ts_max = _bounded("ts_max", float(overrides.get("ts_max", 2.0 * params.rabi_time)), 0.0)
    g = params.gamma
    beta = g * tau
    seps = np.linspace(0.0, ts_max, n)
    cols: dict[str, np.ndarray] = {}
    for alpha in alphas:
        label = _alpha_label(alpha)
        exact = np.empty(n)
        for i, ts in enumerate(seps):
            t2 = t1 + float(ts)
            t_f = t2 + 6.0 * tau + 10.0
            pulses = [gaussian(alpha, tau, t1), gaussian(-alpha, tau, t2)]
            series = rk4_evolve(
                pulses, params, (1.0, 0.0), 0.0, t_f, cfg, record_times=[t_f]
            )
            exact[i] = series.p2[-1]
        closed = [p2_closed_forms_double(alpha, beta, g * ts) for ts in seps]
        cols[f"P2_{label}"] = exact
        cols[f"P2_kick_{label}"] = np.array([c.exact_kick for c in closed])
        cols[f"P2_noTO_I_{label}"] = np.array([c.no_ordering_interaction for c in closed])
    cols["P2_noTO_S"] = np.zeros(n)
    return SweepSeries(
        "Ts_ps",
        seps,
        cols,
        {
            "tau_ps": tau,
            "t1_ps": t1,
            "alphas_rad": alphas,
            "rabi_time_ps": params.rabi_time,
            "max_time_ps": t1 + ts_max + 6.0 * tau + 10.0,
            "note": "measurement 6 tau + 10 ps after the second pulse; separation grid is a reporting choice",
        },
    )
