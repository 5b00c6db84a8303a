import math

import numpy as np

from kickedqubit import propagators as prop
from kickedqubit import validation


def test_propagator_unitarity_fails_on_a_nan_matrix(monkeypatch):
    # one NaN propagator among many good ones must fail the check, not be dropped by max()
    calls = []
    real = prop.kick_sequence_propagator

    def nan_once(*args):
        calls.append(args)
        u = real(*args)
        return np.full((2, 2), math.nan, dtype=complex) if len(calls) == 3 else u

    monkeypatch.setattr(prop, "kick_sequence_propagator", nan_once)
    res = validation.check_propagator_unitarity(np.random.default_rng(0), 5)
    assert not res.passed
    assert "nan" in res.detail

