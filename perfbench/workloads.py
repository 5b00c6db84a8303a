"""The four benchmark workloads: their inputs, one timed pass, and its checks.

A workload is driven only through ``kickedqubit.cli.main``.  Each pass
captures the CSV the command prints, and ``verify`` compares it with the
committed reference panels in ``out/figures``.  An op is one sweep point
(``sep-*``), one output row (``trajectory-dense``) or one check
(``validate``); an op that disagrees with the reference is a failed op.

The seed only picks between reference inputs of identical cost:

* ``sep-*``: alpha in (pi/2, 3pi/8, pi/4), so every seed integrates the
  same 400 trajectories with the same step counts;
* ``trajectory-dense``: the kick-antikick pair of fig2 (pi/2) or fig3 (pi/4);
* ``validate``: ``--seed`` 0, 1 or 2, on which all 15 checks pass.
"""
from __future__ import annotations

import contextlib
import io
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

SEP_TOL = 1e-10  # ROADMAP gate; the code as first benchmarked matches bit for bit
TRAJ_TOL = 1e-8  # integrator tolerance; the code as first benchmarked is off by 7.6e-10
NORM_TOL = 1e-8  # |P1 + P2 - 1| on every trajectory row
TIME_TOL = 1e-9  # sample times that must coincide with reference times (ps)

ALPHAS = (("pi/2", "alpha0.5pi"), ("3pi/8", "alpha0.375pi"), ("pi/4", "alpha0.25pi"))
PAIRS = (("fig2", "pi/2"), ("fig3", "pi/4"))
TAUS = (1, 10, 100)
REF_ROWS = 400
DENSE_SAMPLES = 50 * (REF_ROWS - 1) + 1  # every 50th sample is a reference time


@dataclass
class Pass:
    """One execution of a workload: clock readings and what it printed."""

    start: float
    end: float
    op_spans: list[tuple[float, float]]
    call_spans: list[tuple[float, float]]
    outputs: list[str]
    codes: list[int]


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.note(problem)

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)


def read_csv(text: str) -> tuple[list[str], list[list[float]]]:
    """Header and float rows of a kickedqubit CSV ('#' lines are metadata)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [[float(x) for x in ln.split(",")] for ln in lines[1:]]


class Workload:
    """Inputs for one seed, plus the op timers a pass installs on the program."""

    name: str

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def reference(self, panel: str) -> dict[str, list[float]]:
        header, rows = read_csv((self.root / "out" / "figures" / f"{panel}.csv").read_text())
        return {label: [row[i] for row in rows] for i, label in enumerate(header)}

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def op_hooks(self) -> list[tuple[object, str]]:
        """(module, attribute) pairs whose calls are the ops."""
        return []

    def run_pass(self, cli) -> Pass:
        """Run every command once, reading the clock around each call and op."""
        op_spans: list[tuple[float, float]] = []
        restores = [_time_calls(hook, op_spans) for hook in self.op_hooks()]
        outputs, codes, call_spans = [], [], []
        try:
            start = time.perf_counter()
            for argv in self.commands():
                out = io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        codes.append(cli.main(argv))
                except Exception:  # a crash fails this command's ops, not the run
                    traceback.print_exc()
                    codes.append(-1)
                call_spans.append((t0, time.perf_counter()))
                outputs.append(out.getvalue())
            end = time.perf_counter()
        finally:
            for restore in restores:
                restore()
        return Pass(start, end, op_spans, call_spans, outputs, codes)

    def op_ms(self, result: Pass, speed) -> list[float]:
        """Reference milliseconds of each op (see hostspeed)."""
        return [1e3 * speed.reference_s(t0, t1) for t0, t1 in result.op_spans]

    def verify(self, result: Pass, verdict: Verdict) -> None:
        raise NotImplementedError


def _time_calls(hook, sink: list[tuple[float, float]]):
    """Wrap module.attr so each call appends its (start, end) clock readings to sink."""
    module, attr = hook
    original = getattr(module, attr)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((t0, clock()))

    setattr(module, attr, timed)
    return lambda: setattr(module, attr, original)


class SeparationScan(Workload):
    """``figure fig5_* --set alphas=<a>``: 400 endpoint-only trajectories."""

    panel = ""

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.alpha, self.label = ALPHAS[seed % len(ALPHAS)]
        self.expected = self.reference(self.panel)

    def commands(self):
        return [["figure", self.panel, "--set", f"alphas={self.alpha}", "--out", "-"]]

    def op_hooks(self):
        import kickedqubit.analysis as analysis

        return [(analysis, "rk4_evolve")]

    def verify(self, result, verdict):
        code, text = result.codes[0], result.outputs[0]
        header, rows = read_csv(text)
        cols = ["Ts_ps"] + [f"P2{kind}_{self.label}" for kind in ("", "_kick", "_noTO_I")]
        cols.append("P2_noTO_S")
        if code != 0 or header != cols:
            verdict.add(REF_ROWS, REF_ROWS, f"exit {code}, header {header}")
            return
        failed = abs(len(rows) - REF_ROWS)  # missing or extra rows
        for i, row in enumerate(rows[:REF_ROWS]):
            worst = max(abs(v - self.expected[c][i]) for c, v in zip(cols, row))
            if not worst <= SEP_TOL:
                failed += 1
                verdict.note(f"row {i}: off by {worst:.3e} > {SEP_TOL:g}")
        verdict.add(REF_ROWS, min(failed, REF_ROWS))


class SepFree(SeparationScan):
    name = "sep-free"
    panel = "fig5_left"  # tau = 10 ps: pulses far apart, 79 % of steps free


class SepOverlap(SeparationScan):
    name = "sep-overlap"
    panel = "fig5_right"  # tau = 100 ps: coupling on almost everywhere


class TrajectoryDense(Workload):
    """Three ``propagate`` runs (tau = 1, 10, 100) on a 19951-sample grid."""

    name = "trajectory-dense"

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.panel, self.alpha = PAIRS[seed % len(PAIRS)]
        self.expected = self.reference(self.panel)

    def commands(self):
        return [
            [
                "propagate",
                "--pulse", f"gaussian:alpha={self.alpha},tau={tau},center=100",
                "--pulse", f"gaussian:alpha=-{self.alpha},tau={tau},center=586",
                "--t1", "700", "--samples", str(DENSE_SAMPLES), "--out", "-",
            ]
            for tau in TAUS
        ]

    def op_ms(self, result, speed):
        # rows come out of one call together: an op's time is its call's mean
        return [1e3 * speed.reference_s(t0, t1) / DENSE_SAMPLES for t0, t1 in result.call_spans]

    def verify(self, result, verdict):
        stride = (DENSE_SAMPLES - 1) // (REF_ROWS - 1)
        ref_t = self.expected["t_ps"]
        for tau, code, text in zip(TAUS, result.codes, result.outputs):
            header, rows = read_csv(text)
            ref_p2 = self.expected[f"P2_tau{tau}"]
            if code != 0 or len(rows) != DENSE_SAMPLES or header[:3] != ["t_ps", "P1", "P2"]:
                verdict.add(DENSE_SAMPLES, DENSE_SAMPLES, f"tau={tau}: exit {code}, {len(rows)} rows")
                continue
            failed = 0
            for i, row in enumerate(rows):
                t, p1, p2 = row[0], row[1], row[2]
                bad = not abs(p1 + p2 - 1.0) <= NORM_TOL
                if i % stride == 0:
                    j = i // stride
                    bad = bad or not abs(t - ref_t[j]) <= TIME_TOL
                    bad = bad or not abs(p2 - ref_p2[j]) <= TRAJ_TOL
                if bad:
                    failed += 1
                    verdict.note(f"tau={tau} row {i}: t={t} P1={p1} P2={p2}")
            verdict.add(DENSE_SAMPLES, failed)


class Validate(Workload):
    """``validate --seed <0|1|2>``: the full cross-validation suite."""

    name = "validate"
    checks = 15

    def commands(self):
        return [["validate", "--seed", str(self.seed % 3)]]

    def op_hooks(self):
        import kickedqubit.validation as validation

        return [(validation, n) for n in vars(validation) if n.startswith("check_")]

    def verify(self, result, verdict):
        code, text = result.codes[0], result.outputs[0]
        lines = text.splitlines()
        checks = [ln.split() for ln in lines[:-1]]
        passed = sum(1 for parts in checks if len(parts) > 1 and parts[1] == "PASS")
        summary_ok = bool(lines) and lines[-1] == f"{self.checks}/{self.checks} checks passed"
        failed = self.checks - passed
        if code != 0 or not summary_ok or len(checks) != self.checks:
            failed = max(failed, 1)
        verdict.add(self.checks, failed, None if failed == 0 else f"exit {code}: {lines[-1:]}")


WORKLOADS = {cls.name: cls for cls in (SepFree, SepOverlap, TrajectoryDense, Validate)}
NAMES = tuple(WORKLOADS)


def make(name: str, root: Path, seed: int) -> Workload:
    return WORKLOADS[name](root, seed)

