import argparse
import contextlib
import io
import math
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kickedqubit import __version__, cli, evolve
from kickedqubit.pulses import PulseShape, SystemParams

REFERENCE_PANELS = Path(__file__).resolve().parents[1] / "out" / "figures"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(out: str) -> list[list[str]]:
    """CSV data rows under the header ('#' lines are metadata)."""
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def test_csv_writer_matches_per_value_format(capsys):
    values = [
        0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e-300, 1.0000000000000004,
        -1.0000000000000004, -123.45600000000002, 1e300, -1e300, 7, np.float64(0.1),
        math.nan, math.inf, -math.inf,
    ]
    header = ["a", "b", "c", "n"]
    # no rows, exactly one chunk, and one row past a chunk boundary
    for n in (0, cli.CSV_CHUNK, cli.CSV_CHUNK + 1):
        columns = [np.resize(np.roll(values, k), n) for k in range(3)] + [np.arange(n)]
        cli._write_csv(None, ["meta"], header, columns)
        expected = ["# meta", f"# kickedqubit {__version__}", ",".join(header)]
        expected += [",".join(f"{x:.17g}" for x in row) for row in zip(*columns)]
        assert capsys.readouterr().out == "\n".join(expected) + "\n"


def percent_rows(rows) -> str:
    """The rows as the whole-block "%.17g" template writes them."""
    row = "%.17g," * (len(rows[0]) - 1) + "%.17g\n"
    return row * len(rows) % tuple(x for r in rows for x in r)


def csv_body(columns) -> str:
    """What _write_csv writes under its '#' lines and header."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._write_csv(None, [], ["h"] * len(columns), columns)
    return out.getvalue().split("\n", 2)[2]


def _neighbours(xs):
    xs = np.array(xs)
    return [*xs, *np.nextafter(xs, 0.0), *np.nextafter(xs, np.inf)]


# any 64-bit pattern (every NaN sign and payload, +-inf, subnormals, +-0);
# floats of both signs from 1e-9 to 1e17, evenly in the exponent and as drawn;
# and exact 17th-digit ties c / 2**n = c 5**n / 10**n, c odd, 18 digits
_BITS = st.integers(0, 2**64 - 1).map(lambda b: np.array(b, np.uint64).view(np.float64).item())
_SPREAD = st.one_of(
    st.floats(1e-9, 1e17),
    st.floats(-9.0, 17.0).map(lambda e: 10.0**e),
    st.integers(3, 25).flatmap(lambda n: st.integers(-(-10**17 // 5**n), min(10**18 // 5**n, 2**53) - 1).map(
        lambda c: (c | 1) / 2**n)),
)
_VALUE = st.one_of(_BITS, _SPREAD, _SPREAD.map(lambda x: -x))
_POWERS = _neighbours([float(f"1e{k}") for k in range(-9, 18)])
_EDGES = _neighbours([1e-10, 1e15])  # the range whose digits come from integer arithmetic
_TIES = [26215 / 2**18, 26217 / 2**18, 1000000000000000.25, 1000000000000000.75]  # 18 digits, last a 5


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_VALUE, _VALUE, _VALUE), min_size=1, max_size=40))
@example(rows=[(x, -x, 0.0) for x in _POWERS])
@example(rows=[(x, -x, -0.0) for x in _EDGES])
@example(rows=[(x, -x, 0.0) for x in _TIES])
def test_csv_text_is_the_percent_template(rows):
    assert csv_body([np.array(c) for c in zip(*rows)]) == percent_rows(rows)


def test_ties_round_half_even():
    # exact 17th-digit ties go to the even digit, as "%.17g" rounds them
    assert csv_body([np.array(_TIES)]).split() == [
        "0.10000228881835938", "0.10000991821289062", "1000000000000000.2", "1000000000000000.8",
    ]


def test_propagate_rows_are_the_percent_template(capsys):
    # the fig2 pair at tau = 1: zeros before the first pulse and values down to 4e-37
    code, out, _ = run_cli(
        capsys, "propagate", "--pulse", "gaussian:alpha=pi/2,tau=1,center=100",
        "--pulse", "gaussian:alpha=-pi/2,tau=1,center=586", "--t1", "700", "--samples", "19951",
    )
    assert code == 0
    rows = [tuple(map(float, r)) for r in data_rows(out)]
    values = np.abs(rows)
    assert len(rows) == 19951 and (values == 0).any() and values[values > 0].min() < 1e-36
    assert out.split("ImU12\n", 1)[1] == percent_rows(rows)


def test_csv_writer_memory_is_one_chunk(monkeypatch):
    """Writing 9 columns of 20000 rows holds about one chunk of text, not the file."""

    class CharCounter:
        chars = 0

        def write(self, text):
            self.chars += len(text)

    sink = CharCounter()
    columns = [np.linspace(-1.0, 1.0, 20_000) * (k + 1) for k in range(9)]
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli._write_csv(None, ["meta"], [f"c{k}" for k in range(9)], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 9 * 20_000 * 10
    # one 512-row chunk peaks at about 1.1 MB; the whole text is 3.55 M characters
    assert peak < 3e6, f"writer peak {peak / 1e6:.1f} MB"


class TestParsing:
    def test_angle_fractions(self):
        assert cli.parse_angle("pi/2") == pytest.approx(math.pi / 2)
        assert cli.parse_angle("-3pi/8") == pytest.approx(-3 * math.pi / 8)
        assert cli.parse_angle("2pi") == pytest.approx(2 * math.pi)
        assert cli.parse_angle("0.75") == 0.75
        # every sign and number form float takes, in the pi form too
        assert cli.parse_angle("+1.5") == 1.5
        assert cli.parse_angle(".5") == 0.5
        assert cli.parse_angle("+pi/2") == math.pi / 2
        assert cli.parse_angle(".5pi") == 0.5 * math.pi
        assert cli.parse_angle("pi/.5") == math.pi / 0.5
        assert cli.parse_angle("-2.pi/4.") == -math.pi / 2
        for text in ("two pi", "+-pi", "pi/", "1..5pi", "."):
            with pytest.raises(argparse.ArgumentTypeError, match="cannot parse angle"):
                cli.parse_angle(text)

    def test_angle_parser_rejects_non_finite(self):
        for text in ("nan", "-inf", "1e400", "pi/0"):
            with pytest.raises(Exception, match="angle must be finite"):
                cli.parse_angle(text)

    def test_pulse_grammar(self):
        p = cli.parse_pulse("gaussian:alpha=pi/2,tau=10,center=150")
        assert p.shape is PulseShape.GAUSSIAN
        assert p.alpha == pytest.approx(math.pi / 2)
        p = cli.parse_pulse("kick:alpha=-pi/4,center=5")
        assert p.shape is PulseShape.IDEAL_KICK
        p = cli.parse_pulse("rect:alpha=0.5,tau=2,center=3")
        assert p.shape is PulseShape.RECTANGULAR
        with pytest.raises(Exception):
            cli.parse_pulse("gaussian:alpha=1")  # missing tau/center

    @pytest.mark.parametrize("spelling, shape", [
        ("gaussian", PulseShape.GAUSSIAN), ("GAUSSIAN", PulseShape.GAUSSIAN),
        ("rectangular", PulseShape.RECTANGULAR), ("rect", PulseShape.RECTANGULAR),
        ("kick", PulseShape.IDEAL_KICK), ("ideal_kick", PulseShape.IDEAL_KICK),
    ])
    def test_every_shape_spelling(self, spelling, shape):
        tau = "0" if shape is PulseShape.IDEAL_KICK else "2"
        p = cli.parse_pulse(f"{spelling}:alpha=1,tau={tau},center=3")
        assert (p.shape, p.alpha, p.tau, p.center) == (shape, 1.0, float(tau), 3.0)

    @pytest.mark.parametrize("argv, code", [
        (("propagate", "--pulse", "kick:alpha=1,center=0", "--t1", "1", "--t0=-1e-3"), 1),
        (("floquet", "--gamma", "1", "--period", "1", "--alpha=-pi/2"), 0),
    ])
    def test_negative_exponent_and_pi_values_parse_joined_to_their_flag(self, capsys, argv, code):
        # "--t0 -1e-3" and "--alpha -pi/2" read the value as an option: "expected one argument"
        flag, _, value = argv[-1].partition("=")
        assert run_cli(capsys, *argv[:-1], flag, value)[2].endswith(f"argument {flag}: expected one argument\n")
        status, _, err = run_cli(capsys, *argv)
        # --t0 parses, and propagate's own check refuses a negative time
        assert (status, err) == (code, "error: times must be non-negative with t1 >= t0\n" if code else "")

    def test_kick_takes_no_width(self):
        # '# pulses' writes tau=0 for a kick, so that spelling reads back
        assert cli.parse_pulse("kick:alpha=1,center=2,tau=0") == cli.parse_pulse("kick:alpha=1,center=2")
        for tau, reason in (("abc", "could not convert"), ("5", "a kick has no width, got tau=5"),
                            ("nan", "got tau=nan"), ("-1e-300", "got tau=-1e-300")):
            spec = f"kick:alpha=1,center=2,tau={tau}"
            with pytest.raises(argparse.ArgumentTypeError, match=f"bad pulse spec {spec!r}.*{reason}"):
                cli.parse_pulse(spec)


class TestPropagate:
    ARGS = (
        "propagate", "--preset", "hydrogen-2s2p",
        "--pulse", "gaussian:alpha=pi/2,tau=10,center=150",
        "--t1", "300", "--samples", "13",
    )

    def test_exit_and_columns(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == [
            "t_ps", "P1", "P2", "P2_noTO_schrodinger", "P2_noTO_interaction",
            "ReU11", "ImU11", "ReU12", "ImU12",
        ]
        assert len(lines) == 14
        last = [float(x) for x in lines[-1].split(",")]
        assert last[0] == 300.0
        assert last[2] == pytest.approx(0.9976840741525, abs=1e-6)
        assert last[1] + last[2] == pytest.approx(1.0, abs=1e-8)

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_file_output(self, tmp_path, capsys):
        target = tmp_path / "run.csv"
        code, out, _ = run_cli(capsys, *self.ARGS, "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_bytes()
        assert b"\r" not in text
        assert text.decode().startswith("# system preset=hydrogen-2s2p")

    def test_file_output_is_the_printed_bytes(self, tmp_path, capsys):
        target = tmp_path / "run.csv"
        args = (*self.ARGS[:-1], str(cli.CSV_CHUNK + 1))  # more rows than one chunk
        code, printed, _ = run_cli(capsys, *args, "--out", "-")
        assert code == 0
        assert run_cli(capsys, *args, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == printed.encode()

    def test_degenerate_kick_steps_population(self, capsys):
        code, out, _ = run_cli(
            capsys, "propagate", "--gamma", "0",
            "--pulse", "kick:alpha=pi/2,center=5", "--t1", "10", "--samples", "11",
        )
        assert code == 0
        data_lines = [l for l in out.splitlines() if not l.startswith("#")][1:]
        rows = [list(map(float, l.split(","))) for l in data_lines]
        p2 = {row[0]: row[2] for row in rows}
        assert p2[4.0] == pytest.approx(0.0, abs=1e-12)
        assert p2[6.0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_strength_never_transfers(self, capsys):
        code, out, _ = run_cli(
            capsys, "propagate", "--preset", "unit",
            "--pulse", "gaussian:alpha=0,tau=1,center=3", "--t1", "6", "--samples", "7",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert all(float(r.split(",")[2]) < 1e-14 for r in rows)

    def test_usage_error_is_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "propagate", "--t1", "300")
        assert code == 1

    def test_negative_time_is_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "propagate", "--pulse", "kick:alpha=1,center=1",
            "--t0", "-5", "--t1", "3",
        )
        assert code == 1
        assert "non-negative" in err

    @pytest.mark.parametrize("bad", [
        ("--samples", "0"), ("--samples", "-3"), ("--t1", "nan"), ("--t0", "inf"),
        ("--t0", "nan"), ("--dt", "nan"), ("--dt", "inf"), ("--dt", "0"), ("--dt", "-1"),
    ])
    def test_degenerate_input_is_clean_exit_1(self, capsys, bad):
        code, out, err = run_cli(capsys, *self.ARGS, *bad)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "arange" not in err
        if bad[0] == "--dt":  # evolve.check_step_budget's check, the one for every command
            assert err == "error: dt must be positive and finite\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--t0", "nan", "--t0 and --t1 must be finite"),
        ("--t1", "inf", "--t0 and --t1 must be finite"),
        ("--dt", "nan", "dt must be positive and finite"),
    ])
    def test_non_finite_time_message_names_what_was_checked(self, capsys, flag, value, message):
        # propagate checks --t0 and --t1 itself; check_step_budget owns the --dt check
        code, out, err = run_cli(capsys, *self.ARGS, flag, value)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        # the default dt, tau / 50, underflows to 0
        ("--preset", "unit", "--pulse", "rect:alpha=1e-300,center=352614.7,tau=5e-324",
         "--t1", "1.72", "--samples", "1"),
        # a given dt whose half is 0
        ("--preset", "hydrogen-2s2p", "--pulse", "gaussian:alpha=0.001,center=309.7,tau=9.8e-05",
         "--t1", "0", "--samples", "2", "--dt", "5e-324"),
    ], ids=["resolved-0", "given-5e-324"])
    def test_step_whose_half_is_zero_is_clean_exit_1(self, capsys, argv):
        # both raised ZeroDivisionError through main, a traceback
        code, out, err = run_cli(capsys, "propagate", *argv)
        assert (code, out) == (1, "")
        lines = [ln for ln in err.splitlines() if not ln.startswith("warning: ")]
        assert len(lines) == 1 and lines[0].startswith("error: ") and "dt / 2 > 0" in lines[0]
        assert "Traceback" not in err

    def test_t0_after_pulse_all_columns_agree(self, capsys):
        # a pulse that is over before t0 must leave every P2 column at zero
        code, out, _ = run_cli(
            capsys, "propagate", "--preset", "unit",
            "--pulse", "gaussian:alpha=pi/2,tau=0.1,center=1",
            "--t0", "3", "--t1", "4", "--samples", "5",
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 5
        for row in rows:
            p2, p2_s, p2_i = (float(x) for x in row[2:5])
            assert p2 < 1e-14 and p2_s < 1e-14 and p2_i < 1e-14

    def test_repeated_sample_time_gives_every_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "propagate", "--preset", "unit",
            "--pulse", "gaussian:alpha=pi/2,tau=0.1,center=1",
            "--t0", "2", "--t1", "2", "--samples", "3",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 3 and len(set(rows)) == 1

    @pytest.mark.parametrize("tau, tail, named", [
        ("0.1", ("--t1", "2", "--dt", "1e-300"), "dt="),
        ("0.1", ("--t1", "2", "--dt", "5e-324"), "dt="),
        ("0.001", ("--t1", "1000", "--samples", "3"), "dt="),  # auto dt: 5e7 steps
        # refused before the sample grid is allocated
        ("0.1", ("--t1", "2", "--samples", "10000000"), "--samples"),
        ("0.1", ("--t1", "2", "--samples", "10000001"), "--samples"),
        ("0.1", ("--t1", "2", "--samples", "100000000000"), "--samples"),
    ], ids=["dt-1e-300", "dt-5e-324", "auto-dt", "samples-1e7", "samples-1e7+1", "samples-1e11"])
    def test_step_budget_is_exit_1(self, capsys, tau, tail, named):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "propagate", "--preset", "unit",
            "--pulse", f"gaussian:alpha=pi/2,tau={tau},center=1", *tail,
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "RK4 steps" in err and named in err

    def test_metadata_reports_step_and_norm_defect(self, capsys):
        # 12 samples cut [3, 4] into 58-step segments (short composer), 3 samples
        # into 319-step ones (block composer); both keep P1 at 1 to rounding
        runs = []
        for samples in ("12", "3"):
            code, out, _ = run_cli(
                capsys, "propagate", "--preset", "unit",
                "--pulse", "gaussian:alpha=pi/2,tau=0.1,center=1",
                "--t0", "3", "--t1", "4", "--samples", samples,
            )
            assert code == 0
            meta = [line for line in out.splitlines() if line.startswith("#")]
            rows = [[float(x) for x in row] for row in data_rows(out)]
            assert "# dt=auto resolved_dt=0.0015707963267948967" in meta
            assert all(p1 <= 1.0 + 2 * np.finfo(float).eps for _, p1, *_ in rows)
            defect = max(abs(p1 + p2 - 1.0) for _, p1, p2, *_ in rows)
            assert f"# norm_defect={defect:.17g}" in meta
            runs.append(rows[-1])
        dense, sparse = runs
        assert dense[0] == sparse[0] == 4.0
        for x, y in zip(dense, sparse):
            assert abs(x - y) <= 4 * math.ulp(max(abs(x), abs(y)))

    def test_metadata_counts_the_integrated_steps(self, capsys, monkeypatch):
        # each step is evaluated at three points, on whichever route its segment
        # takes, and each of the 399 segments between samples takes
        # max(1, ceil(length / dt)) steps
        points, block_map = [0], evolve._block_map

        def counting(v, *args):
            def counted(grid):
                points[0] += grid.size
                return v(grid)

            return block_map(None if v is None else counted, *args)

        monkeypatch.setattr(evolve, "_block_map", counting)
        code, out, _ = run_cli(
            capsys, "propagate", "--preset", "hydrogen-2s2p",
            "--pulse", "gaussian:alpha=pi/2,tau=10,center=100",
            "--pulse", "gaussian:alpha=-pi/2,tau=10,center=586",
            "--t1", "700", "--samples", "400",
        )
        assert code == 0
        meta = dict(
            item.split("=", 1) for line in out.splitlines() if line.startswith("# ")
            for item in line[2:].split() if "=" in item
        )
        dt = float(meta["resolved_dt"])
        times = np.linspace(0.0, 700.0, 400).tolist()
        planned = sum(max(1, math.ceil((b - a) / dt)) for a, b in zip(times, times[1:]))
        assert meta["segments"] == "399"
        assert int(meta["rk4_steps"]) == points[0] / 3 == planned

    def test_fig2_pair_matches_reference_panel(self, capsys):
        lines = (REFERENCE_PANELS / "fig2.csv").read_text().splitlines()
        lines = [line for line in lines if not line.startswith("#")]
        column = lines[0].split(",").index("P2_tau10")
        expected = np.array([float(line.split(",")[column]) for line in lines[1:]])
        # every 50th of 19951 rows falls on the panel's 400-point grid; each record
        # time ends a segment and rounds its step count up, so the denser grid moves
        # P2 by up to about 8e-10 (the benchmark gates it at 1e-8)
        for samples, tol in ((400, 1e-10), (19951, 1e-9)):
            code, out, _ = run_cli(
                capsys, "propagate", "--preset", "hydrogen-2s2p",
                "--pulse", "gaussian:alpha=pi/2,tau=10,center=100",
                "--pulse", "gaussian:alpha=-pi/2,tau=10,center=586",
                "--t1", "700", "--samples", str(samples),
            )
            assert code == 0
            rows = np.array(data_rows(out), dtype=float)
            assert rows.shape == (samples, 9)
            assert np.max(np.abs(rows[:: (samples - 1) // 399, 2] - expected)) <= tol

    def test_pulses_line_reads_back_as_pulse_flags(self, capsys):
        # '# pulses' spells each shape as --pulse does, so feeding it back
        # rebuilds the run byte for byte
        window = ("propagate", "--preset", "unit", "--t1", "4", "--samples", "9")
        specs = ("gaussian:alpha=pi/2,tau=0.3,center=1", "rect:alpha=-0.4,tau=0.5,center=2",
                 "kick:alpha=pi/3,center=3")
        code, out, _ = run_cli(capsys, *window, *(arg for spec in specs for arg in ("--pulse", spec)))
        assert code == 0
        (line,) = [line for line in out.splitlines() if line.startswith("# pulses ")]
        flags = [arg for spec in line[len("# pulses "):].split("; ") for arg in ("--pulse", spec)]
        assert len(flags) == 2 * len(specs)
        code, again, _ = run_cli(capsys, *window, *flags)
        assert code == 0
        assert again == out

    def test_delta_e_ev_is_the_splitting_in_ev(self, capsys):
        tail = ("--pulse", "gaussian:alpha=pi/2,tau=10,center=150", "--t1", "300", "--samples", "7")
        code, out, _ = run_cli(capsys, "propagate", "--delta-e-ev", "4.37e-6", *tail)
        assert code == 0
        gamma = SystemParams.from_delta_e_ev(4.37e-6).gamma
        assert out.startswith(f"# system delta_e_ev=4.37e-06 gamma_rad_per_ps={gamma:.17g}\n")
        code, by_gamma, _ = run_cli(capsys, "propagate", "--gamma", repr(gamma), *tail)
        assert code == 0
        assert data_rows(by_gamma) == data_rows(out)

    def test_bad_pulse_spec_is_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "propagate", "--pulse", "blob:alpha=1", "--t1", "3")
        assert code == 1

    def test_repeated_pulse_field_is_exit_1(self, capsys):
        spec = "gaussian:alpha=1,tau=1,center=1,center=2"
        code, out, err = run_cli(capsys, "propagate", "--pulse", spec, "--t1", "3")
        assert code == 1
        assert out == ""
        assert err.endswith(f"error: argument --pulse: bad pulse spec {spec!r} "
                            "(want shape:alpha=...,tau=...,center=...): repeated field 'center'\n")

    def test_unknown_pulse_field_is_exit_1(self, capsys):
        spec = "gaussian:alpha=1,tau=1,center=5,foo=2"
        code, out, err = run_cli(capsys, "propagate", "--pulse", spec, "--t1", "3")
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument --pulse: bad pulse spec {spec!r} "
                            "(want shape:alpha=...,tau=...,center=...): 'foo'\n")

    @pytest.mark.parametrize("shape", ["gaussian", "rect"])
    def test_overflowing_peak_is_exit_1(self, capsys, shape):
        # a span the pulse never reaches used to exit 2 with a NaN norm
        code, out, err = run_cli(
            capsys, "propagate", "--preset", "unit",
            "--pulse", f"{shape}:alpha=1e300,tau=1e-300,center=1",
            "--t0", "1.5", "--t1", "2", "--dt", "0.5", "--samples", "3", "--out", "-",
        )
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith("error: argument --pulse: bad pulse spec")
        assert "finite peak" in err

    def test_zero_rabi_time_is_exit_1(self, capsys):
        # used to die with a ZeroDivisionError traceback
        code, out, err = run_cli(
            capsys, "propagate", "--rabi-time", "0",
            "--pulse", "kick:alpha=1,center=1", "--t1", "2", "--samples", "2",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: rabi_time must be > 0")

    def test_numerical_failure_is_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "propagate", "--preset", "hydrogen-2s2p",
            "--pulse", "gaussian:alpha=pi/2,tau=10,center=150",
            "--t1", "300", "--dt", "9", "--samples", "4",
        )
        assert code == 2
        assert "numerical failure" in err

    def test_nan_integration_is_exit_2(self, capsys):
        # used to exit 0 with nan rows and '# norm_defect=0'; the peak is
        # finite, but the first RK4 stage overflows and the state goes NaN
        code, out, err = run_cli(
            capsys, "propagate", "--preset", "unit",
            "--pulse", "gaussian:alpha=1e300,tau=1,center=1",
            "--t1", "2", "--dt", "0.5", "--samples", "3", "--out", "-",
        )
        assert code == 2
        assert "numerical failure" in err
        assert out == ""

    @pytest.mark.parametrize("t1, samples", [("1000", "2"), ("100", "3")], ids=["long", "short"])
    def test_overflowing_steps_print_one_clean_line(self, capsys, t1, samples):
        # gamma = 1e200 overflows the RK4 stages: 1000 ps is one segment of
        # 1000 steps, 100 ps three short ones; neither may leak numpy text
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            code, out, err = run_cli(
                capsys, "propagate", "--gamma", "1e200",
                "--pulse", "gaussian:alpha=1,tau=10,center=50",
                "--t1", t1, "--dt", "1", "--samples", samples, "--out", "-",
            )
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_lifetime_warning(self, capsys):
        code, _, err = run_cli(
            capsys, "propagate", "--preset", "hydrogen-2s2p",
            "--pulse", "kick:alpha=pi/2,center=100", "--t1", "1700", "--samples", "5",
        )
        assert code == 0
        assert "lifetime" in err

    def test_lifetime_warning_follows_the_rabi_time_not_the_preset(self, capsys):
        # --rabi-time 972 is the hydrogen 2s-2p system spelled without its preset
        code, _, err = run_cli(
            capsys, "propagate", "--rabi-time", "972",
            "--pulse", "kick:alpha=pi/2,center=100", "--t1", "1700", "--samples", "3",
        )
        assert code == 0
        assert "lifetime" in err

    def test_narrow_tau_warning(self, capsys):
        code, _, err = run_cli(
            capsys, "propagate", "--preset", "unit",
            "--pulse", "gaussian:alpha=1,tau=0.0005,center=0.01", "--t1", "0.02",
            "--samples", "4", "--dt", "0.00001",
        )
        assert code == 0
        assert "narrow" in err


class TestFigure:
    def test_fig1_writes_csv(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "figure", "fig1", "--set", "tau=10", "--set", "n_points=11",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        text = (tmp_path / "fig1.csv").read_text()
        assert text.startswith("# scenario fig1")
        last = text.strip().splitlines()[-1].split(",")
        assert float(last[0]) == 300.0
        assert float(last[1]) == pytest.approx(0.99768, abs=1e-4)

    def test_point_count_takes_any_whole_number(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig1", "--set", "n_points=1e1", "--set", "tau=10",
                               "--out", "-")
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 10
        _, plain, _ = run_cli(capsys, "figure", "fig1", "--set", "n_points=10", "--set", "tau=10",
                              "--out", "-")
        assert plain == out

    def test_several_names_write_one_panel_each(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "figure", "fig1", "fig4_right", "--set", "n_points=3", "--outdir", str(tmp_path),
        )
        assert code == 0
        for name in ("fig1", "fig4_right"):
            _, single, _ = run_cli(capsys, "figure", name, "--set", "n_points=3", "--out", "-")
            assert (tmp_path / f"{name}.csv").read_text() == single

    @pytest.mark.parametrize("names, override, message, built", [
        # an override a scenario does not accept fails before any panel is built
        (("fig1", "fig2"), "t_k=100", "scenario 'fig2' does not accept overrides ['t_k']", []),
        (("fig1", "fig4_right"), "t_f=100", "t_f must be finite and >= t_k = 150, got 100",
         ["fig1", "fig4_right"]),
    ])
    def test_a_bad_later_scenario_writes_no_panel(
        self, tmp_path, capsys, monkeypatch, names, override, message, built
    ):
        # fig1 accepts the override; the second name refuses it
        calls, build = [], cli.scenario
        monkeypatch.setattr(cli, "scenario", lambda name, *args: calls.append(name) or build(name, *args))
        code, out, err = run_cli(
            capsys, "figure", *names, "--set", override, "--set", "n_points=3",
            "--outdir", str(tmp_path / "d"),
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert calls == built
        assert not list(tmp_path.glob("**/*.csv"))

    def test_out_with_several_names_is_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "figure", "fig1", "fig2", "--out", "-")
        assert code == 1
        assert out == ""
        assert err == "error: --out names one file, got 2 scenarios; use --outdir\n"

    def test_unknown_figure_is_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "figure", "fig9")
        assert code == 1

    def test_long_span_scenario_warns(self, capsys):
        code, _, err = run_cli(
            capsys, "figure", "fig5_left", "--set", "alphas=pi/4",
            "--set", "n_points=3", "--set", "ts_max=1800", "--out", "-",
        )
        assert code == 0
        assert "lifetime" in err

    def test_long_span_of_another_system_does_not_warn(self, capsys):
        # fig4_right runs to 2150 ps, but a degenerate pair has no 2p lifetime
        code, _, err = run_cli(
            capsys, "figure", "fig4_right", "--set", "n_points=2",
            "--set", "rabi_time=inf", "--out", "-",
        )
        assert code == 0
        assert err == ""

    def test_repeated_observation_time_is_clean(self, capsys):
        code, out, err = run_cli(
            capsys, "figure", "fig4_left", "--set", "observation_times=200:200:300",
            "--set", "n_points=3", "--out", "-",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: observation_times must not repeat")

    @pytest.mark.parametrize("name", ["fig1", "fig4_left", "fig4_right", "fig5_left"])
    @pytest.mark.parametrize("n_points", ["0", "1"])
    def test_too_few_points_is_exit_1(self, capsys, name, n_points):
        code, out, err = run_cli(capsys, "figure", name, "--set", f"n_points={n_points}", "--out", "-")
        assert code == 1
        assert out == ""
        assert err == "error: n_points must be at least 2\n"

    def test_zero_rabi_time_is_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "figure", "fig1", "--set", "rabi_time=0", "--out", "-")
        assert code == 1
        assert out == ""
        assert err.startswith("error: rabi_time must be > 0")

    @pytest.mark.parametrize("name", ["fig5_left", "fig5_right"])
    @pytest.mark.parametrize("ts_max", ["-1", "nan", "inf"])
    def test_bad_ts_max_is_exit_1(self, capsys, name, ts_max):
        code, out, err = run_cli(
            capsys, "figure", name, "--set", f"ts_max={ts_max}", "--set", "n_points=3",
            "--out", "-",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ts_max must be finite and >= 0")

    @pytest.mark.parametrize(
        "name, override, message",
        [
            ("fig1", "t_f=nan", "t_f must be finite and >= 0, got nan"),
            ("fig1", "t_f=inf", "t_f must be finite and >= 0, got inf"),
            ("fig4_right", "t_f=nan", "t_f must be finite and >= t_k = 150, got nan"),
            ("fig4_right", "t_f=10", "t_f must be finite and >= t_k = 150, got 10"),
            ("fig4_right", "t_k=nan", "t_k must be finite and >= 0, got nan"),
            ("fig4_left", "observation_times=nan", "observation_times must be finite and >= 0, got nan"),
            ("fig4_left", "tau_min=0", "tau_min must be finite and > 0, got 0"),
            ("fig4_left", "tau_max=inf", "tau_max must be finite and > 0, got inf"),
            ("fig1", "t_k=inf", "t_k must be finite and >= 0, got inf"),
            ("fig2", "t1=nan", "t1 must be finite and >= 0, got nan"),
            ("fig3", "t2=-1", "t2 must be finite and >= 0, got -1"),
            ("fig4_left", "t_k=-1", "t_k must be finite and >= 0, got -1"),
            ("fig5_left", "t1=inf", "t1 must be finite and >= 0, got inf"),
            ("fig1", "taus=1:nan", "taus must be finite and > 0, got nan"),
            ("fig2", "tau=0", "tau must be finite and > 0, got 0"),
            ("fig4_right", "tau=nan", "tau must be finite and > 0, got nan"),
            ("fig5_right", "tau=-1", "tau must be finite and > 0, got -1"),
            # checked before any grid is allocated
            ("fig1", "n_points=10000001", "n_points must be at most 1e+07, got 10000001"),
            ("fig4_left", "n_points=100000000000", "n_points must be at most 1e+07, got 100000000000"),
            # a key whose default is one value takes one value
            ("fig1", "alpha=1:2", "alpha takes one value, got 2"),
            ("fig4_right", "t_f=200:300", "t_f takes one value, got 2"),
            ("fig2", "tau=1:10", "tau takes one value, got 2"),
            ("fig1", "n_points=3:4", "n_points takes one value, got 2"),
            # a key the scenario does not use; a space separates two overrides
            ("fig1", "t1=50", "scenario 'fig1' does not accept overrides ['t1']"),
            ("fig1", "t2=500", "scenario 'fig1' does not accept overrides ['t2']"),
            ("fig2", "t_k=5", "scenario 'fig2' does not accept overrides ['t_k']"),
            ("fig3", "t_k=5", "scenario 'fig3' does not accept overrides ['t_k']"),
            ("fig2", "tau=5 taus=1:10", "scenario 'fig2' does not accept overrides ['tau']"),
            # distinct or repeated sweep values that would write one column
            ("fig1", "taus=1:1.0000001", "taus 1.0 and 1.0000001 share the column label 'P2_tau1'"),
            ("fig1", "taus=10:10", "taus 10.0 and 10.0 share the column label 'P2_tau10'"),
            ("fig5_left", "alphas=pi/4:0.78539817",
             "alphas 0.7853981633974483 and 0.78539817 share the column label 'alpha0.25pi'"),
        ],
    )
    def test_bad_grid_override_is_exit_1(self, capsys, name, override, message):
        sets = [arg for item in override.split(" ") for arg in ("--set", item)]
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            # the last --set wins, so the override comes after n_points=3
            code, out, err = run_cli(
                capsys, "figure", name, "--set", "n_points=3", *sets, "--out", "-",
            )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("override, key, value", [
        ("n_points=2.5", "n_points", "2.5"),
        ("taus=", "taus", ""),
        ("alphas=pi/2:x", "alphas", "pi/2:x"),
    ])
    def test_unconvertible_override_names_the_key(self, capsys, override, key, value):
        code, out, err = run_cli(capsys, "figure", "fig1", "--set", override, "--out", "-")
        assert code == 1
        assert out == ""
        if key == "n_points":
            # lexes as a number; the scenario's parameter check refuses it
            assert err == f"error: {key} must be a whole number, got {value}\n"
        else:
            assert err.endswith(f"error: argument --set: bad value {value!r} for override {key!r}\n")

    def test_override_without_value_is_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "figure", "fig1", "--set", "n_points", "--out", "-")
        assert (code, out) == (1, "")
        assert err.endswith("error: argument --set: override 'n_points' is not key=value\n")

    @pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"])
    def test_bad_dt_is_exit_1(self, capsys, dt):
        code, out, err = run_cli(capsys, "figure", "fig1", "--dt", dt, "--set", "n_points=3", "--out", "-")
        assert (code, out, err) == (1, "", "error: dt must be positive and finite\n")

    def test_numerical_failure_is_exit_2(self, capsys):
        # a step far too coarse for tau = 10 ps: the norm drifts, as in propagate
        code, out, err = run_cli(
            capsys, "figure", "fig1", "--dt", "100", "--set", "n_points=3", "--out", "-",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: norm drifted by")

    def test_figure_determinism(self, tmp_path, capsys):
        args = ("figure", "fig5_left", "--set", "alphas=pi/4", "--set", "n_points=5",
                "--set", "ts_max=972")
        code, out1, _ = run_cli(capsys, *args, "--out", "-")
        code, out2, _ = run_cli(capsys, *args, "--out", "-")
        assert code == 0
        assert out1 == out2
        assert "P2_noTO_S" in out1.splitlines()[-6]


class TestFloquet:
    def test_single_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "floquet", "--alpha", "pi/3", "--gamma", "1",
            "--period", str(math.pi / 4),
        )
        assert code == 0
        row = [float(x) for x in out.strip().splitlines()[-1].split(",")]
        assert row[1] == pytest.approx(1.2094292028881888, abs=1e-9)

    def test_half_pi_kick_sweep_is_flat(self, capsys):
        code, out, _ = run_cli(
            capsys, "floquet", "--alpha", "pi/2", "--gamma", "1",
            "--sweep", "0.1", "3.0", "7",
        )
        assert code == 0
        rows = [l for l in out.strip().splitlines() if not (l.startswith("#") or l.startswith("gamma_T"))]
        chis = [float(r.split(",")[1]) for r in rows]
        assert all(abs(c - math.pi / 2) < 1e-12 for c in chis)

    def test_alpha_zero_follows_free_phase(self, capsys):
        code, out, _ = run_cli(
            capsys, "floquet", "--alpha", "0", "--gamma", "1", "--sweep", "0.2", "2.8", "5",
        )
        rows = [l for l in out.strip().splitlines() if "," in l and not l.startswith(("#", "gamma_T"))]
        for r in rows:
            gt, chi = (float(x) for x in r.split(",")[:2])
            assert chi == pytest.approx(gt, abs=1e-12)

    def test_missing_period_is_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "floquet", "--alpha", "1")
        assert code == 1

    @pytest.mark.parametrize("count", ["-1", "nan", "0", "2.7", "100000000000"])
    def test_sweep_count_must_be_a_whole_number(self, capsys, count):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "floquet", "--alpha", "1", "--gamma", "1", "--sweep", "0", "1", count,
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err == f"error: --sweep COUNT must be a whole number from 1 to 1e+07, got {float(count):g}\n"


    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--sweep", "0", "inf", "3"), "error: --sweep START and STOP must be finite, got 0 and inf"),
            (("--sweep", "nan", "1", "3"), "error: --sweep START and STOP must be finite, got nan and 1"),
            (("--period", "nan"), "error: --period must be finite, got nan"),
            (("--period", "inf"), "error: --period must be finite, got inf"),
            (("--period", "1", "--alpha", "nan"), "error: argument --alpha: angle must be finite, got 'nan'"),
            (("--period", "1", "--alpha", "inf"), "error: argument --alpha: angle must be finite, got 'inf'"),
            (("--gamma", "10", "--period", "1e308"), "error: --period times gamma must be finite, got inf"),
            (("--sweep", " -1e308", "1e308", "3"), "error: --sweep STOP - START must be finite, got inf"),
        ],
    )
    def test_non_finite_input_names_the_flag(self, capsys, flags, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            code, out, err = run_cli(capsys, "floquet", "--alpha", "1", "--gamma", "1", *flags)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == message


class TestValidate:
    def test_passes_within_budget(self, capsys):
        import time

        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "validate", "--seed", "0")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out
        assert elapsed < 5.0

    def test_fault_injection_fails(self, capsys, monkeypatch):
        import kickedqubit.propagators as prop

        good = prop.no_ordering

        def tampered(z, lam, gamma, t):
            u = good(z, lam, gamma, t)
            return u.conj()  # flips the off-diagonal phase sign

        monkeypatch.setattr("kickedqubit.validation.prop.no_ordering", tampered)
        code, out, _ = run_cli(capsys, "validate")
        assert code == 2
        assert "FAIL" in out

    def test_quadrature_fault_fails_numeric_no_ordering(self, capsys, monkeypatch):
        good = evolve.interaction_integral
        # conjugating z flips the phase of every window's contribution
        monkeypatch.setattr(evolve, "interaction_integral", lambda *args: good(*args).conjugate())
        code, out, _ = run_cli(capsys, "validate")
        assert code == 2
        verdicts = dict(line.split()[:2] for line in out.splitlines()[:-1])
        assert verdicts["numeric-no-ordering"] == "FAIL"


@pytest.mark.parametrize("argv, message", [
    (("figure", "fig1", "--set", "n_points=2", "--out", "{missing}"), "No such file or directory"),
    (("figure", "fig1", "--set", "n_points=2", "--outdir", "{file}"), "File exists"),
    (("propagate", "--pulse", "kick:alpha=1,center=1", "--t1", "2", "--samples", "2", "--out", "{missing}"),
     "No such file or directory"),
    (("floquet", "--alpha", "1", "--gamma", "1", "--period", "1", "--out", "{missing}"),
     "No such file or directory"),
    (("validate", "--seed", "-1"), "argument --seed: seed must be a whole number >= 0, got '-1'"),
    (("validate", "--seed", "1.5"), "argument --seed: seed must be a whole number >= 0, got '1.5'"),
], ids=["figure-out", "figure-outdir-is-a-file", "propagate-out", "floquet-out", "negative-seed",
        "fractional-seed"])
def test_bad_output_path_or_seed_is_clean_exit_1(tmp_path, capsys, argv, message):
    (tmp_path / "file").write_text("")
    paths = {"missing": str(tmp_path / "missing" / "x.csv"), "file": str(tmp_path / "file")}
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith("error: ") and message in err
    assert (tmp_path / "file").read_text() == ""


# The exit contract on random input: values from +-1e-6 to 1e6 and the floats
# at which arithmetic stops behaving, in one field of six; the others take a
# value from a small working run.  A negative value is joined to its flag with
# "=" (README, CLI), except in --sweep, whose three values cannot be
_EDGE = [0.0, -0.0, 5e-324, 1e-320, 1e-300, 1e300, 1e308, -1e308, math.nan, math.inf]
_NUMBER = st.one_of(st.sampled_from(_EDGE), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))


def _mostly(working):
    return st.integers(0, 5).flatmap(lambda i: _NUMBER if i == 0 else working)


_TIME = _mostly(st.floats(0.0, 20.0))
_WIDTH = _mostly(st.floats(0.01, 5.0))
_ANGLE = st.one_of(_mostly(st.floats(-4.0, 4.0)).map(repr), st.sampled_from(["pi/2", "-3pi/8"]))
_SYSTEM = st.one_of(
    st.sampled_from([[], ["--preset", "unit"], ["--preset", "hydrogen-2s2p"]]),
    st.tuples(st.sampled_from(["--gamma", "--rabi-time", "--delta-e-ev"]), _mostly(st.floats(0.01, 10.0))).map(
        lambda fv: [f"{fv[0]}={fv[1]!r}"]),
)
_PULSE = st.one_of(
    st.builds("kick:alpha={},center={!r}".format, _ANGLE, _TIME),
    st.builds("{}:alpha={},tau={!r},center={!r}".format, st.sampled_from(["rect", "gaussian"]),
              _ANGLE, _WIDTH, _TIME),
    st.builds("kick:alpha={},tau={!r},center={!r}".format, _ANGLE, _mostly(st.just(0.0)), _TIME),
)


@st.composite
def _propagate(draw):
    t0, t1 = draw(_mostly(st.just(0.0))), draw(_mostly(st.floats(0.5, 20.0)))
    # at most 2000 steps over the span; the default step is left to the @examples
    dt = draw(_mostly(st.integers(1, 2000).map(lambda k: (t1 - t0) / k)))
    pulses = [f"--pulse={p}" for p in draw(st.lists(_PULSE, min_size=1, max_size=3))]
    samples = draw(st.sampled_from(["1", "2", "3", "0", "-1"]))
    return ["propagate", *draw(_SYSTEM), *pulses, f"--t0={t0!r}", f"--t1={t1!r}", f"--dt={dt!r}",
            "--samples", samples]


@st.composite
def _floquet(draw):
    argv = ["floquet", *draw(_SYSTEM), f"--alpha={draw(_ANGLE)}"]
    if draw(st.booleans()):
        return [*argv, f"--period={draw(_mostly(st.floats(0.01, 10.0)))!r}"]
    count = draw(st.sampled_from(["1", "2", "3", "0", "2.5", "nan", "inf", "1e300", "5e-324", "10000001"]))
    start, stop = (repr(draw(_mostly(st.floats(0.0, 10.0)))) for _ in range(2))
    return [*argv, "--sweep", start, stop, count]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_propagate(), _floquet()))
@example(["propagate", "--preset", "unit", "--pulse", "rect:alpha=1e-300,center=352614.7,tau=5e-324",
          "--t1", "1.72", "--samples", "1"])
@example(["propagate", "--preset", "hydrogen-2s2p", "--pulse", "gaussian:alpha=0.001,center=309.7,tau=9.8e-05",
          "--t1", "0", "--samples", "2", "--dt", "5e-324"])
@example(["propagate", "--pulse", "gaussian:alpha=pi/2,tau=10,center=100",
          "--pulse", "gaussian:alpha=-pi/2,tau=10,center=586", "--t1", "700", "--samples", "3"])
@example(["propagate", "--preset", "unit", "--pulse", "kick:alpha=1,center=1",
          "--pulse", "rect:alpha=0.5,tau=0.4,center=2", "--t1", "3", "--samples", "2"])
@example(["propagate", "--gamma", "0", "--pulse", "gaussian:alpha=1e-170,tau=1e-160,center=5",
          "--t1", "10", "--samples", "2"])
def test_exit_contract_on_random_input(argv):
    # exit 0 with "%.17g" rows, 1 with one "error:" line, 2 with one "numerical
    # failure:" line; stderr may add warning lines and, before "error:",
    # argparse's usage text, and no exception escapes main
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("error")  # a numpy warning is an exception, which escapes
        code = cli.main(argv)
    out, lines = out.getvalue(), err.getvalue().splitlines()
    if lines and lines[0].startswith("usage: "):
        lines = lines[next(i for i, ln in enumerate(lines) if not ln.startswith(("usage: ", " "))):]
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert lines and lines[-1].startswith({1: "error: ", 2: "numerical failure: "}[code])
        lines = lines[:-1]
    assert all(ln.startswith("warning: ") for ln in lines), lines
    if code == 0:
        rows = data_rows(out)
        assert rows and all("%.17g" % float(f) == f for row in rows for f in row)
        if argv[0] == "propagate":
            assert all(abs(float(r[1]) + float(r[2]) - 1.0) <= 1e-8 for r in rows)
