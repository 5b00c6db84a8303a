"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

The slow ones run real passes of the workloads (about two minutes in all).
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import kickedqubit  # noqa: E402
import kickedqubit.cli as cli  # noqa: E402

COUNTS = ("evolve.rk4_steps", "pulses.envelope.evals", "evolve.free_step_share",
          "cli.rows", "cli.bytes", "analysis.trajectories", "trace.spans")


def traced_pass(name: str, seed: int = 0):
    workload = workloads.make(name, ROOT, seed)
    tr = tracer.Tracer()
    restore = tr.install(kickedqubit)
    try:
        result = workload.run_pass(cli)
    finally:
        restore()
    verdict = workloads.Verdict()
    workload.verify(result, verdict)
    return run.layer_metrics(tr, result.outputs, 1.0), verdict


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = run.end_to_end_metrics([1.0], [1.0, 2.0], 1.0, 1024)
    assert sorted(end_to_end) == sorted(m["name"] for m in spec["end_to_end"])
    layer = set(run.layer_metrics(tracer.Tracer(), [], 1.0))
    layer |= {"trace.overhead_s", "pulses.envelope.ns_per_eval", "evolve.us_per_step"}
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_busy_steps_matches_brute_force():
    windows = tracer._merged([(40.0, 160.0), (150.0, 170.0), (500.0, 620.0)])
    for t0, t1, n in ((0.0, 700.0, 3500), (100.0, 510.0, 7), (165.0, 480.0, 33), (0.0, 1.0, 5)):
        h = (t1 - t0) / n
        brute = sum(
            any(t0 + k * h < hi and t0 + (k + 1) * h > lo for lo, hi in windows) for k in range(n)
        )
        assert tracer._busy_steps(windows, t0, t1, n) == brute


def test_reference_seconds_add_up_over_adjacent_intervals():
    with hostspeed.HostSpeed() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            hostspeed.kernel(10)
        t1 = time.perf_counter()
        while time.perf_counter() - t1 < 0.3:
            hostspeed.kernel(10)
        t2 = time.perf_counter()
    assert len(speed.ends) > 20
    whole = speed.reference_s(t0, t2)
    assert math.isclose(speed.reference_s(t0, t1) + speed.reference_s(t1, t2), whole, rel_tol=1e-9)
    assert 0.0 < whole < t2 - t0 + 1.0


def _sep_text(workload, perturb_row=None, drop_last=False) -> str:
    cols = ["Ts_ps"] + [f"P2{k}_{workload.label}" for k in ("", "_kick", "_noTO_I")] + ["P2_noTO_S"]
    lines = ["# scenario " + workload.panel, ",".join(cols)]
    for i in range(workloads.REF_ROWS - (1 if drop_last else 0)):
        row = [workload.expected[c][i] for c in cols]
        if i == perturb_row:
            row[1] += 1e-9
        lines.append(",".join(repr(x) for x in row))
    return "\n".join(lines) + "\n"


def _fake_pass(outputs, codes=None):
    return workloads.Pass(0.0, 1.0, [], [], outputs, codes or [0] * len(outputs))


def test_perturbed_sweep_point_is_a_failed_op():
    workload = workloads.make("sep-free", ROOT, 1)
    clean, bad = workloads.Verdict(), workloads.Verdict()
    workload.verify(_fake_pass([_sep_text(workload)]), clean)
    workload.verify(_fake_pass([_sep_text(workload, perturb_row=123)]), bad)
    assert (clean.attempted, clean.failed) == (400, 0)
    assert (bad.attempted, bad.failed) == (400, 1)
    short = workloads.Verdict()
    workload.verify(_fake_pass([_sep_text(workload, drop_last=True)]), short)
    assert short.failed == 1


def test_perturbed_trajectory_rows_are_failed_ops():
    workload = workloads.make("trajectory-dense", ROOT, 0)
    n, stride = workloads.DENSE_SAMPLES, (workloads.DENSE_SAMPLES - 1) // (workloads.REF_ROWS - 1)
    texts = []
    for tau in workloads.TAUS:
        ref = workload.expected[f"P2_tau{tau}"]
        lines = ["# window", "t_ps,P1,P2"]
        for i in range(n):
            t = 700.0 * i / (n - 1)
            p2 = ref[i // stride] if i % stride == 0 else 0.25
            if tau == 10 and i == 50 * 7:
                p2 += 1e-7  # off the reference at a reference time
            p1 = 1.0 - p2 + (1e-7 if tau == 100 and i == 11 else 0.0)  # breaks P1 + P2 = 1
            lines.append(f"{t!r},{p1!r},{p2!r}")
        texts.append("\n".join(lines) + "\n")
    verdict = workloads.Verdict()
    workload.verify(_fake_pass(texts), verdict)
    assert verdict.attempted == 3 * n
    assert verdict.failed == 2


def test_failed_validate_check_is_a_failed_op():
    workload = workloads.make("validate", ROOT, 0)
    lines = [f"check-{i}  PASS  fine" for i in range(15)]
    ok = "\n".join(lines + ["15/15 checks passed"]) + "\n"
    lines[4] = "check-4  FAIL  worst 1e-3"
    bad = "\n".join(lines + ["14/15 checks passed"]) + "\n"
    clean, failed = workloads.Verdict(), workloads.Verdict()
    workload.verify(_fake_pass([ok]), clean)
    workload.verify(_fake_pass([bad], [2]), failed)
    assert (clean.attempted, clean.failed) == (15, 0)
    assert (failed.attempted, failed.failed) == (15, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sep-free", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_has_no_failed_ops_on_this_code(name):
    workload = workloads.make(name, ROOT, 1)
    verdict = workloads.Verdict()
    workload.verify(workload.run_pass(cli), verdict)
    assert verdict.attempted > 0
    assert verdict.failed == 0, verdict.problems


def test_counts_repeat_exactly_between_traced_runs():
    first, v1 = traced_pass("sep-overlap")
    second, v2 = traced_pass("sep-overlap", seed=3)  # same alpha, fresh workload
    assert v1.failed == v2.failed == 0
    calls = [name for name in first if name.endswith(".calls")]
    for name in COUNTS + tuple(calls):
        assert first[name]["value"] == second[name]["value"], name
    steps = first["evolve.rk4_steps"]["value"]
    assert first["pulses.envelope.evals"]["value"] == 3 * steps
    assert first["analysis.trajectories"]["value"] == 400
    assert abs(first["evolve.free_step_share"]["value"] - 0.09) < 0.01


def test_free_step_share_of_the_narrow_pulse_scan():
    metrics, verdict = traced_pass("sep-free")
    assert verdict.failed == 0
    assert abs(metrics["evolve.free_step_share"]["value"] - 0.79) < 0.01
    assert metrics["evolve.rk4_steps"]["value"] > 2_000_000
