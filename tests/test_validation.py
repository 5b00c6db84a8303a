import dataclasses
import math

import numpy as np
import pytest

from kickedqubit import propagators as prop
from kickedqubit import validation
from kickedqubit.su2 import unitarity_defect

# every check_* attribute of the module, in run_validation's order; perfbench
# wraps each check_* attribute as one op of its validate workload
CHECKS = (
    "check_pauli_algebra",
    "check_propagator_unitarity",
    "check_limit_web",
    "check_interaction_kick_identity",
    "check_schrodinger_double_zero",
    "check_closed_form_consistency",
    "check_numeric_no_ordering",
    "check_floquet_grid",
    "check_time_reversal",
    "check_perturbative_onset",
    "check_rect_correction_residual",
    "check_kicked_error_scaling",
    "check_rk4_order",
    "check_rectangular_vs_rk4",
    "check_consistency_triangle",
)
QUICK_CHECKS = CHECKS[:11] + ("check_rectangular_vs_rk4",)

NAN = np.full((2, 2), math.nan, dtype=complex)


def _nan_floquet(res):
    return dataclasses.replace(res, one_period=NAN)


# (check, its arguments, the module and name of the API it calls, calls per
# sample, and what the poisoned call returns in place of the real result)
ARRAY_PASSES = {
    "pauli-algebra": (
        validation.check_pauli_algebra, 5, validation, "pauli_exponential", 3, lambda u: NAN
    ),
    "propagator-unitarity": (
        validation.check_propagator_unitarity, 5, prop, "kick_sequence_propagator", 2, lambda u: NAN
    ),
    "interaction-kick-identity": (
        validation.check_interaction_kick_identity, 5, prop, "kick_sequence_propagator", 1,
        lambda u: NAN,
    ),
    "time-reversal": (
        validation.check_time_reversal, 5, prop, "kick_sequence_propagator", 4, lambda u: NAN
    ),
    "floquet-grid": (validation.check_floquet_grid, 3, prop, "floquet_eigenphases", 1, _nan_floquet),
}


@pytest.mark.parametrize("name", list(ARRAY_PASSES))
def test_array_pass_fails_on_a_nan_matrix(monkeypatch, name):
    # one NaN matrix in the second array pass, after a pass with a finite worst
    # and before another, must fail the check rather than be dropped by a max
    check, size, module, attr, per_sample, poison = ARRAY_PASSES[name]
    monkeypatch.setattr(validation, "CHUNK", 2)
    real = getattr(module, attr)
    calls = []

    def nan_once(*args):
        calls.append(args)
        out = real(*args)
        return poison(out) if len(calls) == 2 * per_sample + 1 else out

    monkeypatch.setattr(module, attr, nan_once)
    res = check(size) if name == "floquet-grid" else check(np.random.default_rng(0), size)
    assert len(calls) > 2 * per_sample + 1  # a third pass ran after the poisoned one
    assert res.name == name
    assert not res.passed
    assert "nan" in res.detail


def test_stack_unitarity_matches_the_scalar_defect():
    rng = np.random.default_rng(3)
    mats = rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2))
    mats[:32] = [prop.kick_sequence_propagator(((a, 1.0),), g, 2.0)
                 for a, g in rng.uniform(-3.0, 3.0, size=(32, 2)).tolist()]
    for stack in (mats[:32], mats[32:]):
        want = max(unitarity_defect(m) for m in stack)
        assert validation._stack_unitarity(stack) == pytest.approx(want, rel=1e-14, abs=1e-15)
    mats[40, 1, 0] = math.nan
    assert math.isnan(validation._stack_unitarity(mats))


def test_validate_exposes_exactly_the_checks_it_runs(monkeypatch):
    # a 16th check_* attribute, a private helper included, would be a 16th perfbench op
    assert sorted(n for n in vars(validation) if n.startswith("check_")) == sorted(CHECKS)
    called = []
    for name in CHECKS:
        def stub(*args, _name=name, **kwargs):
            called.append(_name)
            return validation.CheckResult(_name, True, "")

        monkeypatch.setattr(validation, name, stub)
    validation.run_validation(quick=False)
    assert called == list(CHECKS)
    called.clear()
    validation.run_validation(quick=True)
    assert called == list(QUICK_CHECKS)
