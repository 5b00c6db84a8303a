"""Set-up time of kickedqubit in a fresh interpreter.

Times ``import kickedqubit.cli`` (numpy and scipy included) plus the first
call, a 1000-step ``propagate`` run, and prints it in reference seconds
(see hostspeed.py) on stdout.  The call's result is checked by the passes
that follow, not here.
Run as ``python3 perfbench/setup_probe.py <src dir>``.
"""
import contextlib
import io
import sys
import time

from hostspeed import HostSpeed

with HostSpeed() as speed:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from kickedqubit import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(
            ["propagate", "--pulse", "gaussian:alpha=pi/2,tau=10,center=50",
             "--t1", "100", "--samples", "11", "--out", "-"]
        )
    end = time.perf_counter()
print(repr(speed.reference_s(start, end)))
