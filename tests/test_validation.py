import dataclasses
import math

import numpy as np
import pytest

from kickedqubit import propagators as prop
from kickedqubit import validation

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


def _nan_matrix(stack):
    """The stack with its first entry, a matrix or a probability, all NaN."""
    stack = stack.copy()
    stack[0] = math.nan
    return stack


def _nan_floquet(res):
    return dataclasses.replace(res, one_period=_nan_matrix(res.one_period))


def _nan_probability(forms):
    return forms._replace(exact_kick=_nan_matrix(forms.exact_kick))


# (check, its arguments, the module and name of the API it calls, calls per
# array pass, and what the poisoned call returns in place of the real stack)
ARRAY_PASSES = {
    "pauli-algebra": (
        validation.check_pauli_algebra, 5, validation, "pauli_exponential", 3, _nan_matrix
    ),
    "propagator-unitarity": (
        validation.check_propagator_unitarity, 5, prop, "kick_sequence_propagator", 2, _nan_matrix
    ),
    "interaction-kick-identity": (
        validation.check_interaction_kick_identity, 5, prop, "kick_sequence_propagator", 1,
        _nan_matrix,
    ),
    "closed-form-consistency": (
        validation.check_closed_form_consistency, 5, validation, "p2_closed_forms_single", 1,
        _nan_probability,
    ),
    "time-reversal": (
        validation.check_time_reversal, 5, prop, "kick_sequence_propagator", 4, _nan_matrix
    ),
    "floquet-grid": (validation.check_floquet_grid, 3, prop, "floquet_eigenphases", 1, _nan_floquet),
}


@pytest.mark.filterwarnings("error")  # the NaN fails the check without a numpy warning
@pytest.mark.parametrize("name", list(ARRAY_PASSES))
def test_array_pass_fails_on_a_nan_matrix(monkeypatch, name):
    # one NaN matrix in the stack of the second array pass, after a pass with a
    # finite worst and before another, must fail the check rather than be
    # dropped by a max
    check, size, module, attr, per_pass, poison = ARRAY_PASSES[name]
    monkeypatch.setattr(validation, "CHUNK", 2)
    real = getattr(module, attr)
    calls = []

    def nan_once(*args):
        calls.append(args)
        out = real(*args)
        return poison(out) if len(calls) == per_pass + 1 else out

    monkeypatch.setattr(module, attr, nan_once)
    res = check(size) if name == "floquet-grid" else check(np.random.default_rng(0), size)
    assert len(calls) > 2 * per_pass  # a third pass ran after the poisoned one
    assert res.name == name
    assert not res.passed
    assert "nan" in res.detail


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
