"""Command-line interface: trajectory runs, bundled scenarios, validation.

Exit codes: 0 success, 1 usage error, 2 numerical or validation failure.
All output is deterministic CSV (17 significant digits, '\\n' endings,
metadata lines prefixed '#'); nothing is read from the environment.
Each value is the text "%.17g" % x gives; `_csv_text` computes the digits
of zeros and of 1e-10 <= |x| < 1e15 in numpy integer arithmetic, a chunk
of rows at a time, and passes every other value to "%.17g".
The CLI only lexes: a `--set` value becomes floats and a `--pulse` spec a
`Pulse`; `analysis._parameters` and `Pulse` decide what they accept.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, propagators
from .analysis import (
    _RABI_TIME,
    SCENARIO_NAMES,
    SCENARIOS,
    _parameters,
    no_ordering_p2_columns,
    scenario,
)
from .evolve import MAX_RK4_STEPS, IntegratorConfig, check_step_budget, rk4_evolve
from .pulses import (
    Pulse,
    PulseShape,
    SystemParams,
    hydrogen_2s2p,
    unit_system,
)
from .su2 import NonUnitaryError
from .validation import run_validation

LIFETIME_WARNING_PS = 1600.0  # 2p lifetime scale; dissipation matters beyond this
MIN_TAU_WARNING_PS = 1e-3  # narrower pulses couple to levels outside the pair
CSV_CHUNK = 512  # CSV rows formatted and written at a time

_PRESETS = {"hydrogen-2s2p": hydrogen_2s2p, "unit": unit_system}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def parse_angle(text: str) -> float:
    """Angles in radians, with 'pi' shorthand: 'pi/2', '-3pi/8', '.5pi', '0.75'."""
    s = text.strip().lower().replace(" ", "")
    m = re.fullmatch(r"([+-]?)(\d+\.?\d*|\.\d+)?pi(?:/(\d+\.?\d*|\.\d+))?", s)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        value = sign * num * math.pi / den if den else math.nan
    else:
        try:
            value = float(s)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle must be finite, got {text!r}")
    return value


def parse_seed(text: str) -> int:
    """A random seed: a whole number >= 0, as numpy's generators take it."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a whole number >= 0, got {text!r}")
    return int(text)


# each shape's value (the spelling '# pulses' writes), its lower-case name, and 'rect'
_SHAPE_ALIASES = {alias: s for s in PulseShape for alias in (s.value, s.name.lower())}
_SHAPE_ALIASES["rect"] = PulseShape.RECTANGULAR


def parse_pulse(text: str) -> Pulse:
    """Pulse flag grammar: shape:alpha=<rad>,tau=<ps>,center=<ps>; a kick's tau is 0 or left out."""
    try:
        shape_part, _, params_part = text.partition(":")
        shape = _SHAPE_ALIASES[shape_part.strip().lower()]
        fields = {}
        for item in params_part.split(","):
            if not item:
                continue
            key, _, value = item.partition("=")
            if key.strip() in fields:
                raise ValueError(f"repeated field {key.strip()!r}")
            fields[key.strip()] = value.strip()
        if shape is PulseShape.IDEAL_KICK:
            fields.setdefault("tau", "0")  # '# pulses' writes tau=0 for a kick
        alpha = parse_angle(fields.pop("alpha"))
        center, tau = float(fields.pop("center")), float(fields.pop("tau"))
        if fields:
            raise KeyError(", ".join(fields))
        return Pulse(shape, alpha, tau, center)
    except argparse.ArgumentTypeError:
        raise
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad pulse spec {text!r} (want shape:alpha=...,tau=...,center=...): {exc}"
        ) from None


def _add_system_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=sorted(_PRESETS), help="named system preset")
    group.add_argument("--gamma", type=float, help="level splitting rate in rad/ps")
    group.add_argument("--rabi-time", type=float, help="free oscillation period in ps")
    group.add_argument("--delta-e-ev", type=float, help="level splitting in eV")


def _system_from_args(args) -> tuple[SystemParams, str]:
    if args.gamma is not None:
        return SystemParams(args.gamma), f"gamma={args.gamma:g}"
    if args.rabi_time is not None:
        return SystemParams.from_rabi_time(args.rabi_time), f"rabi_time={args.rabi_time:g}"
    if args.delta_e_ev is not None:
        return SystemParams.from_delta_e_ev(args.delta_e_ev), f"delta_e_ev={args.delta_e_ev:g}"
    preset = args.preset or "hydrogen-2s2p"
    return _PRESETS[preset](), f"preset={preset}"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# CSV text.  Each value is written as "%.17g" % x writes it: 17 significant
# digits rounded half-even, fixed notation for decimal exponents -4 <= k < 17
# and d.ddde-XX otherwise, trailing zeros and a bare point dropped, and "-" on
# every negative, -0.0 included.  Zeros and _RANGE take their digits from
# integer arithmetic in numpy; every other value (NaN, +-inf, subnormals and
# all other magnitudes) goes through "%.17g" on its own.
_RANGE = (1e-10, 1e15)  # |x| of the integer route
_KMIN, _KMAX = -10, 14  # its decimal exponents k: float(1e-10) is above 10**-10
_FIELD = 32  # bytes laid out per value: at most 24 of text, a separator at column 27
_SEP = 27
_U64 = np.uint64
_LOW32, _32 = _U64(0xFFFFFFFF), _U64(32)
_POW5_LOW = np.array([5**p & 0xFFFFFFFF for p in range(17 - _KMIN)], _U64)
_POW5_HIGH = np.array([5**p >> 32 for p in range(17 - _KMIN)], _U64)
# the text "0000" .. "9999" as four bytes each, and the trailing zeros of each
_DIGITS4 = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")).copy().view(np.uint32).ravel()
_ZEROS4 = sum(np.arange(10_000) % 10**j == 0 for j in (1, 2, 3, 4))


def _layouts():
    """Byte tables of _csv_text, by layout class 2 (k - _KMIN) + negative.

    A value's digit row is seven "0"s and then its 17 digits at columns 7-23.
    _LEFT masks that row moved two columns left, for the digits before the
    point, and _RIGHT the row moved one column left, for those after it:
    -123.45 (k = 2) is "-123." at columns 4-8 and then its fraction.
    _CHARS, by class and last column or
    not, adds the point, the sign, an exponent e-XX at columns 23-26 and the
    separator at column 27; _KEEP, by class and count of trailing zero
    digits, marks the bytes written out.
    """
    col = np.arange(_FIELD)
    k = np.repeat(np.arange(_KMIN, _KMAX + 1), 2)[:, None]
    neg = np.tile([False, True], _KMAX - _KMIN + 1)[:, None]
    exponent = k < -4
    kk = np.where(exponent, 0, k)  # the exponent form's d.ddd lies as at k = 0
    point, sign = 6 + kk, 4 + np.minimum(kk, 0)
    suffix = exponent & (col >= 23) & (col < _SEP)
    chars = np.select(
        [col == point, (col == sign) & neg, *(suffix & (col == c) for c in range(23, _SEP))],
        [ord("."), ord("-"), ord("e"), ord("-"), ord("0") + -k // 10, ord("0") + -k % 10],
    ).astype(np.uint8)[:, None].repeat(2, axis=1)
    chars[:, :, _SEP] = [ord(","), ord("\n")]
    zeros = np.arange(17)[:, None, None]
    frac = 16 - kk  # digits after the point, trailing zeros included
    end = 23 - np.minimum(zeros, frac) - (zeros >= frac)
    keep = ((col > sign - neg) & (col < end) | suffix | (col == _SEP)).transpose(1, 0, 2)
    masks = [m.astype(np.uint8) * 0xFF for m in ((col > sign) & (col < point), (col > point) & (col < 23))]
    return [t.view(_U64).reshape(-1, _FIELD // 8) for t in (*masks, chars, keep.astype(np.uint8, order="C"))]


_LEFT, _RIGHT, _CHARS, _KEEP = _layouts()
_KEEP_TEXT = (np.arange(_FIELD) < np.arange(25)[:, None]) | (np.arange(_FIELD) == _SEP)


def _scaled(m, e, k):
    """floor(m 2**(e - 53) 10**(16 - k)) and whether rounding it half-even adds one.

    With p = 16 - k the quotient is m 5**p / 2**s, s = 53 - e - p: one
    64 x 64 -> 128-bit product of 32-bit limbs (m < 2**53, 5**p < 2**61) shifted
    right by s, which is 1 .. 61 for every value the kernel takes.
    """
    p = 16 - k
    b0, b1 = np.take(_POW5_LOW, p), np.take(_POW5_HIGH, p)
    s = (53 - e - p).astype(_U64)
    a0, a1 = m & _LOW32, m >> _32
    low, cross = a0 * b0, a0 * b1 + a1 * b0  # cross < 2**61 + 2**53
    mid = (low >> _32) + (cross & _LOW32)
    low = (low & _LOW32) | (mid << _32)
    high = a1 * b1 + (cross >> _32) + (mid >> _32)
    t = _U64(64) - s
    d = (high << t) | (low >> s)
    # the s remainder bits at the top of a word, against the half 2**63; a tie rounds an odd d up
    return d, (low << t) + (d & _U64(1)) > _U64(2**63)


def _digits17(a):
    """The 17 significant digits of each a in _RANGE as an integer, rounded half-even, and its exponent k."""
    m, e = np.frexp(a)
    m = (m * 2.0**53).astype(_U64)
    k = np.clip(np.floor(np.log10(a)).astype(np.intp), _KMIN, _KMAX)  # off by one near 10**k
    d, up = _scaled(m, e, k)
    off = np.flatnonzero((d < _U64(10**16)) | (d >= _U64(10**17)))
    if off.size:
        k[off] += np.where(d[off] < _U64(10**16), -1, 1)
        d[off], up[off] = _scaled(m[off], e[off], k[off])
    d += up
    carry = d == _U64(10**17)  # 9.999...95 rounds to the next power of ten
    d[carry] = 10**16
    k += carry
    return d, k


def _csv_text(block: np.ndarray) -> str:
    """The CSV lines of a (rows, columns) float block, each value as "%.17g" % x."""
    v = block.ravel()
    n = v.size
    a = np.abs(v)
    fast = (a >= _RANGE[0]) & (a < _RANGE[1])
    text = np.flatnonzero(~fast & (v != 0.0))
    a[~fast] = 1.0
    d, k = _digits17(a)
    d[~fast], k[~fast] = 0, 0  # a zero is the digits of 0 at k = 0: "0" or "-0"
    lead, rest = np.divmod(d, _U64(10**16))
    quads = np.divmod(np.stack(np.divmod(rest, _U64(10**8)), axis=1).astype(np.intp), 10_000)
    quads = np.stack(quads, axis=-1).reshape(n, 4)  # rest's four groups of four digits
    digits = np.full((n + 1) * _FIELD, ord("0"), np.uint8)
    rows = digits[:n * _FIELD].reshape(n, _FIELD)
    rows[:, 7] += lead.astype(np.uint8)
    rows[:, 8:24].view(np.uint32)[:] = np.take(_DIGITS4, quads)
    zeros = np.take(_ZEROS4, quads[:, 3])
    more = np.flatnonzero(quads[:, 3] == 0)
    for j in (2, 1, 0):
        zeros[more] += np.take(_ZEROS4, quads[more, j])
        more = more[quads[more, j] == 0]
    cls = 2 * (k - _KMIN) + np.signbit(v)
    line = 2 * cls
    line.reshape(block.shape)[:, -1] += 1
    left, right = (digits[s:s + n * _FIELD].view(_U64).reshape(n, -1) for s in (2, 1))
    out, part = np.take(_LEFT, cls, axis=0), np.take(_RIGHT, cls, axis=0)
    out &= left
    part &= right
    out |= part
    out |= np.take(_CHARS, line, axis=0, out=part)
    keep = np.take(_KEEP, 17 * cls + zeros, axis=0, out=part).view(bool).reshape(n, _FIELD)
    out = out.view(np.uint8).reshape(n, _FIELD)
    if text.size:  # over the digits of 0, whose layout has no exponent
        strings = [b"%.17g" % x for x in v[text].tolist()]
        out[text, :24] = np.array(strings, "S24").view(np.uint8).reshape(-1, 24)
        keep[text] = _KEEP_TEXT[[len(s) for s in strings]]
    return str(out[keep], "ascii")


def _write_csv(path: str | None, meta: list[str], header: list[str], columns) -> None:
    """Write the '#' lines, the header and the rows of the 1-D float columns, to stdout or path."""
    with contextlib.nullcontext(sys.stdout) if path in (None, "-") else open(path, "w", newline="") as out:
        out.write("".join(f"# {m}\n" for m in [*meta, f"kickedqubit {__version__}"]) + ",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_CHUNK):
            out.write(_csv_text(np.stack([c[start:start + CSV_CHUNK] for c in columns], axis=1, dtype=float)))


def _warn_lifetime(rabi_time: float, total_time: float) -> None:
    """Warn when a hydrogen 2s-2p run (Rabi time 972 ps, however it is given) outlasts the 2p lifetime."""
    if rabi_time == _RABI_TIME and total_time > LIFETIME_WARNING_PS:
        sys.stderr.write(
            f"warning: simulated span {total_time:g} ps exceeds the 2p lifetime "
            f"scale {LIFETIME_WARNING_PS:g} ps; dissipation is not modeled\n"
        )


def _warn_scales(pulses, total_time: float, rabi_time: float) -> None:
    _warn_lifetime(rabi_time, total_time)
    for p in pulses:
        if p.shape is not PulseShape.IDEAL_KICK and p.tau < MIN_TAU_WARNING_PS:
            sys.stderr.write(
                f"warning: tau={p.tau:g} ps is narrow enough to couple levels "
                "outside the two-state pair\n"
            )


def _cmd_propagate(args) -> int:
    params, preset_label = _system_from_args(args)
    pulses = list(args.pulse)
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    if not (math.isfinite(args.t0) and math.isfinite(args.t1)):
        raise ValueError("--t0 and --t1 must be finite")  # check_step_budget refuses a bad --dt
    if args.t0 < 0.0 or args.t1 < args.t0 or any(p.center < 0.0 for p in pulses):
        raise ValueError("times must be non-negative with t1 >= t0")
    _warn_scales(pulses, args.t1 - args.t0, params.rabi_time)
    cfg = IntegratorConfig(dt=args.dt)
    # rk4_evolve's own bound, applied before the sample grid exists
    check_step_budget(pulses, params, args.t0, args.t1, cfg, args.samples, "lower --samples")
    times = np.linspace(args.t0, args.t1, args.samples)
    series = rk4_evolve(pulses, params, (1.0, 0.0), args.t0, args.t1, cfg, record_times=times)
    noto_s, noto_i = no_ordering_p2_columns(pulses, params, args.t0, times, series.dt)
    u11, u21 = series.states[:, 0], series.states[:, 1]
    u12 = 0.0 - np.conj(u21)  # SU(2) completion; 0.0 - keeps a zero at +0
    p1, p2 = np.abs(u11) ** 2, np.abs(u21) ** 2
    norm_defect = float(np.max(np.abs(p1 + p2 - 1.0)))
    meta = [
        f"system {preset_label} gamma_rad_per_ps={_fmt(params.gamma)}",
        "pulses " + "; ".join(
            f"{p.shape.value}:alpha={_fmt(p.alpha)},tau={_fmt(p.tau)},center={_fmt(p.center)}"
            for p in pulses
        ),
        f"window t0={_fmt(args.t0)} t1={_fmt(args.t1)} samples={args.samples}",
        f"dt={'auto' if args.dt is None else _fmt(args.dt)} resolved_dt={_fmt(series.dt)}",
        f"rk4_steps={series.steps} segments={series.segments}",
        f"norm_defect={_fmt(norm_defect)}",
    ]
    header = [
        "t_ps", "P1", "P2", "P2_noTO_schrodinger", "P2_noTO_interaction",
        "ReU11", "ImU11", "ReU12", "ImU12",
    ]
    columns = [times, p1, p2, noto_s, noto_i, u11.real, u11.imag, u12.real, u12.imag]
    _write_csv(args.out, meta, header, columns)
    return 0


def _parse_override(item: str) -> tuple[str, float | tuple[float, ...]]:
    """KEY=VALUE as (key, one float or a tuple of them); alpha(s) take 'pi' fractions.

    Which keys a scenario takes, and how many values each, analysis._parameters decides.
    """
    key, sep, value = item.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"override {item!r} is not key=value")
    key = key.strip()
    value = value.strip()
    convert = parse_angle if key in {"alpha", "alphas"} else float
    try:
        values = tuple(convert(v) for v in value.split(":"))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"bad value {value!r} for override {key!r}") from None
    return key, values if len(values) > 1 else values[0]


def _cmd_figure(args) -> int:
    if args.out is not None and len(args.name) > 1:
        raise ValueError(f"--out names one file, got {len(args.name)} scenarios; use --outdir")
    overrides = dict(args.set or [])
    # every panel is built, each scenario's overrides checked first, before any is
    # written, so that a bad value for a later name leaves no partial output
    for name in args.name:
        _parameters(name, overrides)
    panels = [(name, scenario(name, overrides, IntegratorConfig(dt=args.dt))) for name in args.name]
    for name, series in panels:
        _warn_lifetime(series.metadata["rabi_time_ps"], float(series.metadata["max_time_ps"]))
        out = args.out
        if out is None:
            out = str(Path(args.outdir) / f"{name}.csv")
            Path(args.outdir).mkdir(parents=True, exist_ok=True)
        meta = [f"scenario {name}", *(f"{key}={value}" for key, value in sorted(series.metadata.items()))]
        columns = [series.values, *series.columns.values()]
        _write_csv(out, meta, [series.parameter, *series.columns], columns)
    return 0


def _cmd_validate(args) -> int:
    results = run_validation(seed=args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 2


def _cmd_floquet(args) -> int:
    params, preset_label = _system_from_args(args)
    if args.sweep is not None:
        start, stop, count = args.sweep
        if not (1 <= count <= MAX_RK4_STEPS and count.is_integer()):
            raise ValueError(
                f"--sweep COUNT must be a whole number from 1 to {MAX_RK4_STEPS:.0e}, got {count:g}"
            )
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"--sweep START and STOP must be finite, got {start:g} and {stop:g}")
        if not math.isfinite(stop - start):
            raise ValueError(f"--sweep STOP - START must be finite, got {stop - start:g}")
        gts = np.linspace(start, stop, int(count))
    elif args.period is not None:
        if not math.isfinite(args.period):
            raise ValueError(f"--period must be finite, got {args.period:g}")
        gt = params.gamma * args.period
        if not math.isfinite(gt):
            raise ValueError(f"--period times gamma must be finite, got {gt:g}")
        gts = np.array([gt])
    else:
        raise ValueError("give --period or --sweep")
    res = propagators.floquet_eigenphases(args.alpha, gts)
    v_plus, v_minus = res.eigenvectors
    parts = [f(v[:, i]) for v in (v_plus, v_minus) for i in (0, 1) for f in (np.real, np.imag)]
    meta = [
        f"system {preset_label} gamma_rad_per_ps={_fmt(params.gamma)}",
        f"alpha_rad={_fmt(args.alpha)}",
    ]
    header = [
        "gamma_T", "chi",
        "Re_vplus_1", "Im_vplus_1", "Re_vplus_2", "Im_vplus_2",
        "Re_vminus_1", "Im_vminus_1", "Re_vminus_2", "Im_vminus_2",
    ]
    _write_csv(args.out, meta, header, [gts, res.chi, *parts])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kickedqubit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", parents=[], help="integrate a pulse sequence and emit a CSV trajectory")
    _add_system_flags(p)
    p.add_argument("--pulse", type=parse_pulse, action="append", required=True,
                   metavar="SHAPE:alpha=A,tau=T,center=C",
                   help="repeatable; alpha accepts 'pi' fractions like pi/2")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--dt", type=float, default=None, help="integrator step in ps (default: auto)")
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("figure", help="run bundled scenarios and write one CSV panel each")
    p.add_argument("name", nargs="+", choices=SCENARIO_NAMES)
    p.add_argument("--set", type=_parse_override, action="append", metavar="KEY=VALUE",
                   help="override a scenario parameter (repeatable; lists split on ':'): "
                   f"{', '.join(sorted({k for row in SCENARIOS.values() for k in row}))}; "
                   "README lists each scenario's keys")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--outdir", default=".")
    p.add_argument("--out", default=None, help="CSV path for a single scenario (overrides --outdir)")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("validate", help="run the cross-validation suite")
    p.add_argument("--seed", type=parse_seed, default=0)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("floquet", help="eigenphases of a periodically kicked system")
    _add_system_flags(p)
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--period", type=float, default=None, help="kick period in ps")
    p.add_argument("--sweep", nargs=3, type=float, metavar=("START", "STOP", "COUNT"),
                   default=None, help="sweep gamma*T over a range instead")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_floquet)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NonUnitaryError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except (ValueError, argparse.ArgumentTypeError, OSError) as exc:  # OSError: --out or --outdir
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
