#!/usr/bin/env python3
"""kickedqubit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/kickedqubit`` and the
reference panels ``out/figures``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones (see perfbench/README.md).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from hostspeed import HostSpeed
from tracer import MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3

VALIDATION_CHECKS = (
    "pauli_algebra", "propagator_unitarity", "limit_web", "interaction_kick_identity",
    "schrodinger_double_zero", "closed_form_consistency", "numeric_no_ordering",
    "floquet_grid", "time_reversal", "perturbative_onset", "rect_correction_residual",
    "kicked_error_scaling", "rk4_order", "rectangular_vs_rk4", "consistency_triangle",
)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def warm_up(cli) -> None:
    """One small call so lazy imports and caches are filled before timing.

    Its result is not checked: a broken program shows up as failed ops.
    """
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["propagate", "--pulse", "gaussian:alpha=pi/2,tau=10,center=50",
                  "--t1", "100", "--samples", "11", "--out", "-"])


def setup_seconds() -> float:
    """Median set-up time over fresh interpreters (import plus first call)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def timed_run(workload, cli, seconds: float):
    """Passes until `seconds` have gone by (at least one); end-to-end metrics."""
    setup = setup_seconds()
    verdict = workloads.Verdict()
    walls, op_ms = [], []
    peak_kb = None
    start = time.perf_counter()
    while True:
        with HostSpeed() as speed:
            result = workload.run_pass(cli)
        if peak_kb is None:  # before any output is parsed by the checks
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        walls.append(speed.reference_s(result.start, result.end))
        op_ms += workload.op_ms(result, speed)
        workload.verify(result, verdict)
        del result
        if time.perf_counter() - start >= seconds:
            break
    return end_to_end_metrics(walls, op_ms, setup, peak_kb), verdict, len(walls), len(op_ms)


def end_to_end_metrics(walls, op_ms, setup_s: float, peak_kb: int) -> dict:
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "op_ms_p50": _metric(statistics.median(op_ms), "ms"),
        "op_ms_p97_5": _metric(statistics.quantiles(op_ms, n=40, method="inclusive")[-1], "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }


def _median_reference_s(fn, repeats: int = 5) -> float:
    with HostSpeed() as speed:
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            runs.append((t0, time.perf_counter()))
    return statistics.median(speed.reference_s(t0, t1) for t0, t1 in runs)


def envelope_ns_per_eval(kq) -> float:
    """Scalar envelope of a two-gaussian pair: 1e5 evaluations, median of 5."""
    v = kq.pulses.envelope([kq.pulses.gaussian(math.pi / 2, 10.0, 100.0),
                            kq.pulses.gaussian(-math.pi / 2, 10.0, 586.0)])
    ts = [0.007 * i for i in range(100_000)]

    def sweep():
        for t in ts:
            v(t)

    return _median_reference_s(sweep) / len(ts) * 1e9


def zero_envelope_us_per_step(kq) -> float:
    """rk4_evolve with no pulses (zero coupling): 50000 steps, median of 5."""
    params = kq.pulses.hydrogen_2s2p()
    cfg = kq.evolve.IntegratorConfig(dt=0.02)

    def run():
        kq.evolve.rk4_evolve([], params, (1.0, 0.0), 0.0, 1000.0, cfg, record_times=[1000.0])

    return _median_reference_s(run) / 50_000 * 1e6


def traced_run(workload, cli, kq):
    """One untraced pass, one traced pass, microbenchmarks; per-layer metrics."""
    verdict = workloads.Verdict()
    with HostSpeed() as speed:
        plain = workload.run_pass(cli)
    plain_s = speed.reference_s(plain.start, plain.end)
    workload.verify(plain, verdict)
    del plain
    tracer = Tracer()
    restore = tracer.install(kq)
    try:
        with HostSpeed() as speed:
            traced = workload.run_pass(cli)
    finally:
        restore()
    workload.verify(traced, verdict)
    slowness = speed.slowness(traced.start, traced.end)
    traced_s = speed.reference_s(traced.start, traced.end)
    metrics = layer_metrics(tracer, traced.outputs, slowness)
    metrics["trace.overhead_s"] = _metric(traced_s - plain_s, "s")
    metrics["pulses.envelope.ns_per_eval"] = _metric(envelope_ns_per_eval(kq), "ns")
    metrics["evolve.us_per_step"] = _metric(zero_envelope_us_per_step(kq), "us")
    return metrics, verdict


def layer_metrics(tracer: Tracer, outputs: list[str], slowness: float) -> dict:
    """Counts as counted; span seconds divided by the traced pass's slowness."""
    spans = tracer.summary()
    for row in spans.values():
        row["self_s"] /= slowness
        row["total_s"] /= slowness

    def span(name: str, key: str):
        return spans.get(name, {}).get(key, 0)

    metrics = {}
    for module in MODULES:
        mine = [row for name, row in spans.items() if name.startswith(module + ".")]
        metrics[f"{module}.calls"] = _metric(sum(r["calls"] for r in mine), "count")
        metrics[f"{module}.self_s"] = _metric(sum(r["self_s"] for r in mine), "s")
    steps = tracer.steps
    metrics.update({
        "evolve.rk4_steps": _metric(steps, "count"),
        "evolve.free_step_share": _metric(tracer.free_steps / steps if steps else 0.0, "ratio"),
        "evolve.rk4_evolve.calls": _metric(span("evolve.rk4_evolve", "calls"), "count"),
        "evolve.rk4_evolve.self_s": _metric(span("evolve.rk4_evolve", "self_s"), "s"),
        "evolve.rk4_propagator.self_s": _metric(span("evolve.rk4_propagator", "self_s"), "s"),
        "evolve.interaction_integral_series.self_s": _metric(
            span("evolve.interaction_integral_series", "self_s"), "s"),
        "pulses.envelope.evals": _metric(tracer.envelope_evals[0], "count"),
        "pulses.integrated_strength.calls": _metric(span("pulses.integrated_strength", "calls"), "count"),
        "pulses.integrated_strength.self_s": _metric(span("pulses.integrated_strength", "self_s"), "s"),
        "analysis.scenario.self_s": _metric(span("analysis.scenario", "self_s"), "s"),
        "analysis.trajectories": _metric(tracer.children_of("analysis.", "evolve.rk4_evolve"), "count"),
        "cli.rows": _metric(sum(_data_rows(text) for text in outputs), "count"),
        "cli.bytes": _metric(sum(len(text.encode()) for text in outputs), "B"),
        "trace.spans": _metric(len(tracer.start), "count"),
    })
    for check in VALIDATION_CHECKS:
        metrics[f"validation.{check}.s"] = _metric(span(f"validation.check_{check}", "total_s"), "s")
    return metrics


def _data_rows(text: str) -> int:
    """Rows a command printed: CSV rows under the header, or plain lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    is_csv = text.startswith("#")  # CSV output opens with its metadata
    return len(lines) - 1 if is_csv and lines else len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "kickedqubit" / "cli.py").is_file():
        print(f"error: no kickedqubit sources under {src}", file=sys.stderr)
        return 2
    if not (ROOT / "out" / "figures").is_dir():
        print(f"error: no reference panels under {ROOT / 'out' / 'figures'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import kickedqubit
    import kickedqubit.cli as cli

    workload = workloads.make(args.workload, ROOT, args.seed)
    warm_up(cli)
    print("machine " + json.dumps(machine()))
    if args.trace:
        metrics, verdict = traced_run(workload, cli, kickedqubit)
    else:
        metrics, verdict, passes, ops = timed_run(workload, cli, args.seconds)
        print(f"passes {passes} op_samples {ops}")
    for problem in verdict.problems:
        print("problem " + problem, file=sys.stderr)
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
