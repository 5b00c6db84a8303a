"""scipy stays off the cold path.

The CLI's propagate, figure and floquet commands need numpy only; scipy is
imported inside the routes that use it (the quadrature closed forms in
`propagators`, and the QAWO quadrature and expm routes in `evolve`).  Each
check runs in a fresh interpreter, because the test modules import scipy
themselves.
"""
import cmath
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import kickedqubit

SRC = str(Path(kickedqubit.__file__).resolve().parents[1])


def run_fresh(code: str) -> dict:
    """Run code in a new interpreter with this source tree first; parse its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_commands_load_no_scipy():
    result = run_fresh(
        """
        import contextlib, io, json, sys
        from kickedqubit import cli

        calls = [
            ["propagate", "--pulse", "gaussian:alpha=pi/2,tau=10,center=50",
             "--t1", "100", "--samples", "11", "--out", "-"],
            ["figure", "fig1", "--set", "n_points=5", "--out", "-"],
            ["floquet", "--alpha", "pi/3", "--gamma", "1", "--sweep", "0.1", "3", "5"],
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(argv) for argv in calls]
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps({"codes": codes, "scipy": loaded}))
        """
    )
    assert result["codes"] == [0, 0, 0]
    # in particular no scipy.integrate, scipy.linalg or scipy.special
    assert result["scipy"] == []


# values of the lazily importing routes, as they were with scipy imported at module level
SHAPE_FACTORS = {
    0.3: 0.0711128643308277,
    math.pi / 4: 0.46008755457441813,
    math.pi / 2: 1.4897897047672695,
    2.0: 2.0032141129512246,
    math.pi: 2.0608164645862086,
    5.0: -1.7421387093714409,
}
ADIABATIC_PHASE = [10.063267678918868, 0.0004356568185084407, 0.0004356568185084407]
EXPANSION_GAUSSIAN = [
    [-0.0032648147011889264, -0.0014941671115856314], [0.0, 0.0007499999999999996],
    [0.0, 0.0007499999999999996], [-0.0032648147011889264, 0.0014941671115856314],
]
NO_ORDERING_EXPM = [
    [-0.5211225504469954, 0.8055659867105067], [0.0, -0.2819480953486773],
    [6.213819893487482e-17, -0.2819480953486773], [-0.5211225504469952, -0.8055659867105065],
]


@pytest.fixture(scope="module")
def lazy_routes() -> dict:
    """Each scipy route called first in a fresh interpreter."""
    return run_fresh(
        f"""
        import json, math
        from kickedqubit.evolve import interaction_integral, no_ordering_schrodinger_numeric
        from kickedqubit.propagators import (
            adiabatic_phase, kick_correction_expansion, kick_correction_shape_factor,
        )
        from kickedqubit.pulses import PulseShape, SystemParams, gaussian

        def entries(m):
            return [[z.real, z.imag] for z in m.ravel().tolist()]

        params = SystemParams(1.0)
        z = interaction_integral([gaussian(0.7, 0.1, 1.0)], params, 2.0)
        out = {{"interaction": [z.real, z.imag]}}
        out["adiabatic"] = list(vars(adiabatic_phase([gaussian(0.8, 2.0, 5.0)], params, 10.0)).values())
        out["expansion"] = entries(kick_correction_expansion(gaussian(0.3, 0.05, 1.0), params, 2.0))
        out["shape"] = [
            kick_correction_shape_factor(a, PulseShape.GAUSSIAN) for a in {list(SHAPE_FACTORS)!r}
        ]
        out["expm"] = entries(no_ordering_schrodinger_numeric([gaussian(0.7, 0.1, 1.0)], params, 2.0))
        print(json.dumps(out))
        """
    )


def test_interaction_integral(lazy_routes):
    # a completed gaussian: a e^{-beta^2} e^{2 i gamma T}, with beta = gamma tau = 0.1
    z = complex(*lazy_routes["interaction"])
    assert abs(z - 0.7 * math.exp(-0.01) * cmath.exp(2j * 1.0)) < 1e-13


def test_adiabatic_phase(lazy_routes):
    assert lazy_routes["adiabatic"] == pytest.approx(ADIABATIC_PHASE, rel=1e-15)


def test_kick_correction_expansion(lazy_routes):
    assert lazy_routes["expansion"] == [pytest.approx(e, rel=1e-15, abs=1e-18) for e in EXPANSION_GAUSSIAN]


def test_gaussian_shape_factor(lazy_routes):
    # math.erf in the integrand: within a few 1e-16 relative of scipy.special.erf's result
    assert lazy_routes["shape"] == pytest.approx(list(SHAPE_FACTORS.values()), rel=4e-16)


def test_no_ordering_schrodinger_numeric(lazy_routes):
    assert lazy_routes["expm"] == [pytest.approx(e, rel=1e-15, abs=1e-15) for e in NO_ORDERING_EXPM]
