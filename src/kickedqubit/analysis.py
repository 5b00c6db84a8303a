"""Closed-form transfer probabilities, a log-log fit, and scenarios.

The bundled scenarios (fig1 .. fig5_right) are the reference experiments
for a hydrogen 2s-2p system driven by gaussian pulses: single-pulse and
double-pulse population transfer versus time, pulse width, observation
time, and pulse separation.  Each returns a SweepSeries ready for CSV
emission.  `SCENARIOS` is their data: for each name, the overrides it
accepts and their defaults, read and checked in one place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .su2 import UNITARITY_TOLERANCE, NonUnitaryError


class KickProbabilities(NamedTuple):
    """P2 closed forms: exact kick limit, then the two no-ordering frames.

    Each field has the broadcast shape of the arguments.
    """

    exact_kick: np.ndarray
    no_ordering_schrodinger: np.ndarray
    no_ordering_interaction: np.ndarray


def p2_closed_forms_single(alpha, beta, gamma_tf) -> KickProbabilities:
    """Transfer probability for a single pulse in the three descriptions.

    exact kick limit: sin^2(alpha)
    bare frame, no ordering: (alpha sin(xi)/xi)^2, xi = sqrt(alpha^2 + (gamma Tf)^2)
    rotating frame, no ordering: sin^2(alpha e^{-beta^2})
    """
    alpha, beta, gamma_tf = np.broadcast_arrays(alpha, beta, gamma_tf)
    amp = alpha * propagators._sinc(np.hypot(alpha, gamma_tf))
    return KickProbabilities(
        exact_kick=np.sin(alpha) ** 2,
        no_ordering_schrodinger=amp * amp,
        no_ordering_interaction=np.sin(alpha * np.exp(-beta * beta)) ** 2,
    )


def p2_closed_forms_double(alpha, beta, gamma_ts) -> KickProbabilities:
    """Transfer probability for a kick-antikick pair in the three descriptions.

    exact kick limit: sin^2(gamma Ts) sin^2(2 alpha)
    bare frame, no ordering: identically zero (the average coupling vanishes)
    rotating frame, no ordering: sin^2(2 alpha e^{-beta^2} sin(gamma Ts))
    """
    alpha, beta, gamma_ts = np.broadcast_arrays(alpha, beta, gamma_ts)
    return KickProbabilities(
        exact_kick=np.sin(gamma_ts) ** 2 * np.sin(2.0 * alpha) ** 2,
        no_ordering_schrodinger=np.zeros(alpha.shape),
        no_ordering_interaction=np.sin(2.0 * alpha * np.exp(-beta * beta) * np.sin(gamma_ts)) ** 2,
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
    residual: float


def error_scaling_fit(x, y) -> ScalingFit:
    """Least-squares slope of log(y) against log(x).

    The residual is the RMS misfit in log space.  Requires at least three
    strictly positive points.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("need at least three points to fit a slope")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("log-log fit needs strictly positive values")
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    resid = float(np.sqrt(np.mean((np.log(y) - (slope * np.log(x) + intercept)) ** 2)))
    return ScalingFit(float(slope), resid)


_TIME_POINTS = 400  # linear grids (time and separation axes)
_SWEEP_POINTS = 200  # logarithmic tau grids
_RABI_TIME = hydrogen_2s2p().rabi_time
_TAUS = (1.0, 10.0, 100.0)

# Each scenario's overrides and their defaults.  None marks a default derived
# from other values: fig4_right t_f = t_k + 2000 ps, fig5 ts_max = 2 Rabi
# times.  A tuple default takes one or more numbers, any other key one, and
# n_points a whole one.  Where taus is a key, tau stands for taus = (tau,).
SCENARIOS: dict[str, dict[str, Any]] = {
    "fig1": {"taus": _TAUS, "alpha": math.pi / 2, "t_k": 150.0, "t_f": 300.0,
             "rabi_time": _RABI_TIME, "n_points": _TIME_POINTS},
    "fig2": {"taus": _TAUS, "alpha": math.pi / 2, "t1": 100.0, "t2": 586.0, "t_f": 700.0,
             "rabi_time": _RABI_TIME, "n_points": _TIME_POINTS},
    "fig3": {"taus": _TAUS, "alpha": math.pi / 4, "t1": 100.0, "t2": 586.0, "t_f": 700.0,
             "rabi_time": _RABI_TIME, "n_points": _TIME_POINTS},
    "fig4_left": {"alpha": math.pi / 2, "t_k": 150.0, "observation_times": (200.0, 300.0, 500.0),
                  "tau_min": 1.0, "tau_max": 300.0, "rabi_time": _RABI_TIME, "n_points": _SWEEP_POINTS},
    "fig4_right": {"alpha": math.pi / 2, "tau": 10.0, "t_k": 150.0, "t_f": None,
                   "rabi_time": _RABI_TIME, "n_points": _TIME_POINTS},
    "fig5_left": {"alphas": (math.pi / 2, 3 * math.pi / 8, math.pi / 4), "tau": 10.0, "t1": 100.0,
                  "ts_max": None, "rabi_time": _RABI_TIME, "n_points": _TIME_POINTS},
    "fig5_right": {"alphas": (math.pi / 2, 3 * math.pi / 8, math.pi / 4), "tau": 100.0, "t1": 100.0,
                   "ts_max": None, "rabi_time": _RABI_TIME, "n_points": _TIME_POINTS},
}
SCENARIO_NAMES = tuple(SCENARIOS)

# lower bounds that need no other value; the scans check the rest
_POSITIVE = {"tau", "taus", "tau_min", "tau_max"}  # > 0
_NON_NEGATIVE = {"t_k", "t1", "t2", "observation_times"}  # >= 0


def _parameters(name: str, overrides: dict | None) -> dict[str, Any]:
    """SCENARIOS[name] with the overrides converted and checked, plus its SystemParams as "params".

    The one reader of overrides, CLI and API alike: np.ravel makes each value
    floats, a tuple for a list key (one number is a one-entry list), one float
    for any other key, an int for n_points; each refusal names the key.
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    defaults = SCENARIOS[name]
    given = dict(overrides or {})
    # tau stands for taus = (tau,), unless taus is given too
    alias = {"tau"} if "taus" in defaults and "taus" not in given else set()
    unknown = set(given) - set(defaults) - alias
    if unknown:
        raise ValueError(f"scenario {name!r} does not accept overrides {sorted(unknown)}")
    p = dict(defaults)
    for key, value in given.items():
        try:
            array = np.ravel(value)
        except ValueError:  # ragged nesting, such as [[1.0], [2.0, 3.0]]
            array = np.ravel(None)  # an object array, refused below
        if array.dtype.kind not in "iuf":  # np.ravel("3") holds the string
            raise ValueError(f"{key} must be {'a whole number' if key == 'n_points' else 'numeric'}, got {value!r}")
        values = tuple(array.astype(float).tolist())
        many = isinstance(defaults.get(key), tuple)
        if len(values) != 1 and not (many and values):
            raise ValueError(f"{key} takes {'one or more values' if many else 'one value'}, got {len(values)}")
        if key == "n_points":
            n = values[0]
            if not n % 1 == 0:
                raise ValueError(f"n_points must be a whole number, got {n!r}")
            if n < 2:
                raise ValueError("n_points must be at least 2")
            if n > MAX_RK4_STEPS:
                raise ValueError(f"n_points must be at most {MAX_RK4_STEPS:.0e}, got {n:.0f}")
            values = (int(n),)
        if key in _POSITIVE | _NON_NEGATIVE:
            for x in values:
                _bounded(key, x, 0.0, strict=key in _POSITIVE)
        if key in alias:
            key, many = "taus", True
        p[key] = values if many else values[0]
    p["params"] = SystemParams.from_rabi_time(p["rabi_time"])
    return p


def _bounded(key: str, value: float, low: float, *, strict: bool = False, low_label: str = "") -> float:
    """value if it is finite and >= low (> low when strict); else ValueError naming key."""
    if not ((value > low if strict else value >= low) and value < math.inf):
        op = ">" if strict else ">="
        raise ValueError(f"{key} must be finite and {op} {low_label or f'{low:g}'}, got {value:g}")
    return value


def _column_labels(key: str, values: tuple, label) -> list[str]:
    """label(x) for each swept value x; ValueError if two values share a label."""
    labels = [label(x) for x in values]
    for i, text in enumerate(labels):
        j = labels.index(text)
        if j < i:
            raise ValueError(f"{key} {values[j]!r} and {values[i]!r} share the column label {text!r}")
    return labels


@np.errstate(over="ignore", invalid="ignore")  # an overflow goes NaN, which the guard below rejects
def no_ordering_p2_columns(
    pulses: PulseSequence, params: SystemParams, t0: float, times: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """P2 from t0 to each time without time ordering: (bare frame, rotating frame).

    Both read P2 off one array call of propagators.no_ordering_column each:
    the bare frame (lam = 0) with the running strength int_{t0}^t v dt, the
    rotating frame (lam = 1) with z = int_{t0}^t v(t') e^{2 i gamma t'} dt',
    exact for kicks and rectangles and, for gaussians, a trapezoid at half the
    RK4 step dt of the trajectory these columns accompany (its `TimeSeries.dt`).
    """
    times = np.asarray(times, dtype=float)
    zs = integrated_strength(pulses, t0, times), interaction_integral_series(pulses, params, t0, times, dt)
    p = np.array([
        [np.abs(u) ** 2 for u in propagators.no_ordering_column(z, lam, params.gamma, times - t0)]
        for lam, z in zip((0.0, 1.0), zs)
    ])  # (frame, entry, time)
    # one guard over both frames, for the SU(2) form the full unitarity defect
    defect = np.max(np.abs(p[:, 0] + p[:, 1] - 1.0), initial=0.0)
    if not defect <= UNITARITY_TOLERANCE:
        raise NonUnitaryError(f"no-ordering propagator is not unitary (defect {defect:.3e})")
    return p[0, 1], p[1, 1]




def scenario(
    name: str, overrides: dict | None = None, cfg: IntegratorConfig | None = None
) -> SweepSeries:
    """Build one of the bundled reference experiments.

    SCENARIOS[name] lists the overrides it accepts and their defaults; any
    other key raises ValueError.
    """
    p = _parameters(name, overrides)
    if name in ("fig1", "fig2", "fig3"):
        return _time_scan(name, p, cfg)
    if name == "fig4_left":
        return _width_scan(p, cfg)
    if name == "fig4_right":
        return _observation_scan(p, cfg)
    return _separation_scan(p, cfg)


def _time_scan(name: str, p: dict, cfg: IntegratorConfig | None) -> SweepSeries:
    """P2(t) for a single pulse (fig1) or a kick-antikick pair (fig2, fig3)."""
    params, alpha, taus = p["params"], p["alpha"], p["taus"]
    t_f = _bounded("t_f", p["t_f"], 0.0)
    labels = _column_labels("taus", taus, lambda tau: f"P2_tau{tau:g}")
    times = np.linspace(0.0, t_f, p["n_points"])
    columns: dict[str, np.ndarray] = {}
    meta: dict[str, Any] = {
        "alpha_rad": alpha,
        "rabi_time_ps": params.rabi_time,
        "t_f_ps": t_f,
        "taus_ps": taus,
    }
    if name == "fig1":
        meta["t_k_ps"] = p["t_k"]
        pulse_sets = [[gaussian(alpha, tau, p["t_k"])] for tau in taus]
    else:
        meta["t1_ps"], meta["t2_ps"] = p["t1"], p["t2"]
        pulse_sets = [[gaussian(alpha, tau, p["t1"]), gaussian(-alpha, tau, p["t2"])] for tau in taus]
    for label, pulses in zip(labels, pulse_sets):
        columns[label] = rk4_evolve(
            pulses, params, (1.0, 0.0), 0.0, t_f, cfg, record_times=times
        ).p2
    meta["max_time_ps"] = t_f
    return SweepSeries("t_ps", times, columns, meta)


def _width_scan(p: dict, cfg: IntegratorConfig | None) -> SweepSeries:
    """Single-pulse P2 against pulse width, at several observation times."""
    params, alpha, t_k, n = p["params"], p["alpha"], p["t_k"], p["n_points"]
    # the observation times are a reporting choice, recorded in the metadata
    obs = p["observation_times"]
    if len(set(obs)) != len(obs):
        raise ValueError(f"observation_times must not repeat, got {obs}")
    taus = np.geomspace(p["tau_min"], p["tau_max"], n)
    g = params.gamma
    marks = np.array(sorted(obs))
    # one row per tau, one column per sorted observation time
    exact, noto_s_run, noto_i_num = (np.empty((n, marks.size)) for _ in range(3))
    for i, tau in enumerate(taus):
        pulses = [gaussian(alpha, tau, t_k)]
        series = rk4_evolve(pulses, params, (1.0, 0.0), 0.0, float(marks[-1]), cfg, record_times=marks)
        exact[i] = series.p2
        noto_s_run[i], noto_i_num[i] = no_ordering_p2_columns(pulses, params, 0.0, marks, series.dt)
    beta = g * taus
    cols: dict[str, np.ndarray] = {}
    for tf in obs:
        j = int(np.searchsorted(marks, tf))
        cols[f"P2_Tf{tf:g}"] = exact[:, j]
        single = p2_closed_forms_single(alpha, beta, g * tf)
        cols[f"P2_noTO_S_Tf{tf:g}"] = single.no_ordering_schrodinger
        cols[f"P2_noTO_S_running_Tf{tf:g}"] = noto_s_run[:, j]
        cols[f"P2_noTO_I_numeric_Tf{tf:g}"] = noto_i_num[:, j]
    cols["P2_noTO_I"] = p2_closed_forms_single(alpha, beta, 0.0).no_ordering_interaction
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


def _observation_scan(p: dict, cfg: IntegratorConfig | None) -> SweepSeries:
    """Single-pulse P2 against the observation time, from the pulse midpoint on."""
    params, alpha, tau, t_k = p["params"], p["alpha"], p["tau"], p["t_k"]
    t_f = t_k + 2000.0 if p["t_f"] is None else p["t_f"]
    t_max = _bounded("t_f", t_f, t_k, low_label=f"t_k = {t_k:g}")
    g = params.gamma
    beta = g * tau
    tfs = np.linspace(t_k, t_max, p["n_points"])
    pulses = [gaussian(alpha, tau, t_k)]
    series = rk4_evolve(pulses, params, (1.0, 0.0), 0.0, t_max, cfg, record_times=tfs)
    noto_s_run, noto_i_num = no_ordering_p2_columns(pulses, params, 0.0, tfs, series.dt)
    closed = p2_closed_forms_single(alpha, beta, g * tfs)
    cols = {
        "P2": series.p2,
        "P2_noTO_S": closed.no_ordering_schrodinger,
        "P2_noTO_S_running": noto_s_run,
        "P2_noTO_I": closed.no_ordering_interaction,
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


def _separation_scan(p: dict, cfg: IntegratorConfig | None) -> SweepSeries:
    """Kick-antikick P2 against the pulse separation, several strengths."""
    params, tau, t1, alphas, n = p["params"], p["tau"], p["t1"], p["alphas"], p["n_points"]
    ts_max = 2.0 * params.rabi_time if p["ts_max"] is None else p["ts_max"]
    ts_max = _bounded("ts_max", ts_max, 0.0)
    g = params.gamma
    beta = g * tau
    labels = _column_labels("alphas", alphas, lambda alpha: f"alpha{alpha / math.pi:.4g}pi")
    seps = np.linspace(0.0, ts_max, n)
    cols: dict[str, np.ndarray] = {}
    for label, alpha in zip(labels, alphas):
        exact = np.empty(n)
        for i, ts in enumerate(seps):
            t2 = t1 + float(ts)
            t_f = t2 + 6.0 * tau + 10.0
            pulses = [gaussian(alpha, tau, t1), gaussian(-alpha, tau, t2)]
            series = rk4_evolve(
                pulses, params, (1.0, 0.0), 0.0, t_f, cfg, record_times=[t_f]
            )
            exact[i] = series.p2[-1]
        closed = p2_closed_forms_double(alpha, beta, g * seps)
        cols[f"P2_{label}"] = exact
        cols[f"P2_kick_{label}"] = closed.exact_kick
        cols[f"P2_noTO_I_{label}"] = closed.no_ordering_interaction
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
