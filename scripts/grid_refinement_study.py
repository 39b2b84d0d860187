#!/usr/bin/env python3
"""Refinement study for the rotation model's selected limit.

For each grid size the discounted solutions are swept to the smallest
discount and compared against the mean of the selection target; the table
shows how the plateau error shrinks with the velocity-lattice resolution,
and the sweep's wall time in milliseconds.

Usage:  python scripts/grid_refinement_study.py [--sizes 32,64,128] [--lam-min 0.003]
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_critical import rotation_sweep                       # noqa: E402
from torushj.grids import GridField, PeriodicGrid               # noqa: E402
from torushj.matherlp import build_polytope                     # noqa: E402
from torushj.models import velocity_set                         # noqa: E402
from torushj.solver import Transition, compute_bracket, lambda_sweep  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="32,64,128")
    ap.add_argument("--m", type=int, default=49)
    ap.add_argument("--lam-min", type=float, default=0.003)
    args = ap.parse_args()
    sizes = [int(tok) for tok in args.sizes.split(",")]

    model = rotation_sweep()
    lams = [lam for lam in (0.1, 0.03, 0.01, 0.003, 0.001) if lam >= args.lam_min]

    print(f"{'n':>5s} {'dt':>10s} {'c':>12s} {'sup|u-0.3|':>12s} {'ms':>9s}")
    for n in sizes:
        grid = PeriodicGrid(1, n)
        vset = velocity_set(3.0, args.m)
        poly = build_polytope(model, Transition(grid, vset))
        shifted = model.with_c0(poly.c)
        bracket = compute_bracket(shifted, GridField.constant(grid, 0.0))
        t0 = time.perf_counter()
        entries = lambda_sweep(shifted, lams, Transition(grid, vset, poly.dt), tol=1e-8,
                               max_iter=400000, bracket=bracket)
        ms = 1e3 * (time.perf_counter() - t0)
        err = float(np.max(np.abs(entries[-1].field.values - 0.3)))
        print(f"{n:5d} {poly.dt:10.5f} {poly.c:12.8f} {err:12.2e} {ms:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
