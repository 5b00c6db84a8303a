#!/usr/bin/env python3
"""Scaling studies: kicked-approximation error law and RK4 convergence order.

Prints the fitted slopes and writes the raw sweep points to out/scaling so
they can be replotted.  Both fits are the validation suite's own
(`kicked_error_scaling_fit`, `rk4_order_fit`), run on denser sweeps.
"""
from pathlib import Path

from kickedqubit.validation import kicked_error_scaling_fit, rk4_order_fit

OUTDIR = Path(__file__).resolve().parents[1] / "out" / "scaling"


def write_csv(path, header, columns):
    rows = ["\t".join(header)]
    for values in zip(*columns):
        rows.append("\t".join(f"{v:.17g}" for v in values))
    path.write_text("\n".join(rows) + "\n")


def kicked_error_study(n_points=16):
    fit, ratios, errs = kicked_error_scaling_fit(n_points=n_points)
    print(f"kicked-approximation P2 error: slope {fit.slope:.4f} "
          f"(expected 2), rms log residual {fit.residual:.3f}")
    write_csv(OUTDIR / "kicked_error_vs_width.tsv", ["tau_over_rabi", "p2_error"], [ratios, errs])


def rk4_order_study():
    dts = (1.6, 0.8, 0.4, 0.2, 0.1)
    fit, errs, _ = rk4_order_fit(dts=dts)
    print(f"RK4 global error: slope {fit.slope:.4f} (expected 4)")
    write_csv(OUTDIR / "rk4_error_vs_dt.tsv", ["dt_ps", "max_element_error"], [dts, errs])


if __name__ == "__main__":
    OUTDIR.mkdir(parents=True, exist_ok=True)
    kicked_error_study()
    rk4_order_study()
    print(f"raw sweep data in {OUTDIR}")
