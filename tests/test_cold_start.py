"""scipy stays out of the package.

Every CLI command needs numpy only: the quadratures behind `validate` (the
independent z_lam of `evolve.interaction_integral`, `propagators.adiabatic_phase`
and the gaussian `kick_correction_shape_factor`) use `pulses.gauss_legendre`,
whose nodes come from `numpy.polynomial` on first use.  Each check runs in a
fresh interpreter, because the test modules import scipy themselves.
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
        print(json.dumps({"codes": codes, "scipy": loaded, "legendre": "numpy.polynomial" in sys.modules}))
        """
    )
    assert result["codes"] == [0, 0, 0]
    # in particular no scipy.integrate, scipy.linalg or scipy.special
    assert result["scipy"] == []
    # the quadrature nodes are built on first use, and these commands never integrate
    assert result["legendre"] is False


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_validate_loads_no_scipy(quick):
    result = run_fresh(
        f"""
        import contextlib, io, json, sys
        from kickedqubit import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["validate", *{["--quick"] if quick else []!r}])
        print(json.dumps({{"code": code, "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}}))
        """
    )
    assert result == {"code": 0, "scipy": []}


# the quadrature routes' values, frozen from scipy's adaptive quad (QUADPACK) before
# the composite Gauss-Legendre rule replaced it
SHAPE_FACTORS = {
    0.3: 0.0711128643308277,
    math.pi / 4: 0.46008755457441813,
    math.pi / 2: 1.4897897047672695,
    2.0: 2.0032141129512246,
    math.pi: 2.0608164645862086,
    5.0: -1.7421387093714409,
}
ADIABATIC_PHASE = [10.063267678918868, 0.0004356568185084407, 0.0004356568185084407]
NO_ORDERING_EXPM = [
    [-0.5211225504469954, 0.8055659867105067], [0.0, -0.2819480953486773],
    [6.213819893487482e-17, -0.2819480953486773], [-0.5211225504469952, -0.8055659867105065],
]


@pytest.fixture(scope="module")
def first_calls() -> dict:
    """Each quadrature route, and the eigh exponential, called first in a fresh interpreter."""
    return run_fresh(
        f"""
        import json, math
        from kickedqubit.evolve import interaction_integral, no_ordering_numeric
        from kickedqubit.propagators import adiabatic_phase, kick_correction_shape_factor
        from kickedqubit.pulses import PulseShape, SystemParams, gaussian

        def entries(m):
            return [[z.real, z.imag] for z in m.ravel().tolist()]

        params = SystemParams(1.0)
        z = interaction_integral([gaussian(0.7, 0.1, 1.0)], params, 2.0, 1.0)
        out = {{"interaction": [z.real, z.imag]}}
        out["adiabatic"] = list(vars(adiabatic_phase([gaussian(0.8, 2.0, 5.0)], params, 10.0)).values())
        out["shape"] = [
            kick_correction_shape_factor(a, PulseShape.GAUSSIAN) for a in {list(SHAPE_FACTORS)!r}
        ]
        out["expm"] = entries(no_ordering_numeric([gaussian(0.7, 0.1, 1.0)], params, 2.0, 0.0))
        print(json.dumps(out))
        """
    )


def test_interaction_integral(first_calls):
    # a completed gaussian: a e^{-beta^2} e^{2 i gamma T}, with beta = gamma tau = 0.1
    z = complex(*first_calls["interaction"])
    assert abs(z - 0.7 * math.exp(-0.01) * cmath.exp(2j * 1.0)) < 1e-13


def test_adiabatic_phase(first_calls):
    assert first_calls["adiabatic"] == pytest.approx(ADIABATIC_PHASE, rel=1e-15, abs=0.0)


def test_gaussian_shape_factor(first_calls):
    # math.erf and math.cos(alpha) round alike at every node of either rule: a few 1e-16 relative
    assert first_calls["shape"] == pytest.approx(list(SHAPE_FACTORS.values()), rel=4e-16, abs=0.0)


def test_no_ordering_numeric_bare_frame(first_calls):
    assert first_calls["expm"] == [pytest.approx(e, rel=1e-15, abs=1e-15) for e in NO_ORDERING_EXPM]
