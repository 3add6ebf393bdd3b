#!/usr/bin/env python3
"""Attractor study: how fast does X relax onto the dilution solution?

Sweeps the initial displacement X(0) = (1 + c) X0 over a grid of c,
integrates the kinetic-only equation in a de Sitter background, and
reports the fitted scaling amplitude, the free log-log slope, and the
worst invariant-Q drift for each run.  The slope should sit at -3
regardless of c; the fitted eps1 tracks the initial displacement.
"""

import argparse
import os

import numpy as np

from kessence import (
    DeSitter,
    KineticModel,
    StepControl,
    evolve_kinetic_only,
    fit_scaling,
    initial_state,
    scaling_slope,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/attractor", help="output directory")
    ap.add_argument("--X0", type=float, default=1e3)
    ap.add_argument("--F2", type=float, default=1e3)
    ap.add_argument("--H", type=float, default=1.0)
    ap.add_argument("--t-end", type=float, default=3.0)
    args = ap.parse_args()

    model = KineticModel(F2=args.F2, X0=args.X0)
    background = DeSitter(H=args.H)
    control = StepControl()

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "attractor_study.csv")
    with open(path, "w", newline="") as fh:
        fh.write("c,eps1_fit,a1_fit,slope,max_residual,Q_drift\n")
        for c in np.geomspace(1e-3, 0.5, 13):
            init = initial_state(X=(1.0 + c) * model.X0)
            tr = evolve_kinetic_only(model, background, init, args.t_end,
                                     control)
            law, residual = fit_scaling(tr)
            slope = scaling_slope(tr)
            drift, _ = tr.q_drift()
            fh.write(f"{c!r},{law.eps1!r},{law.a1!r},{slope!r},"
                     f"{residual!r},{drift!r}\n")
            print(f"c={c:9.3e}  eps1={law.eps1:9.3e}  slope={slope:+.5f}  "
                  f"Q drift={drift:.2e}")
    print(f"table written to {path}")


if __name__ == "__main__":
    main()
