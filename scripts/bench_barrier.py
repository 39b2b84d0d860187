#!/usr/bin/env python3
"""Time the long-time route of the critical value in `barrier_suite`.

Cases: the two kernels of the `barrier` benchmark workload at n = 128 (the
mechanical cosine well at K = 33 and the shifted quadratic at K = 49; vmax 3,
d = 1) and the same two kernels of a d = 2 `barrier_suite` at n = 16 and 24
with m = 9 per axis (K = 81).  Per case it reports the best of --repeat
timings of
    karp_s       `barrier.karp_min_mean` on the action DP's arcs: the exact
                 T -> infinity limit from N + 1 Bellman steps of a vector,
    powering_s   the retired route: the cheapest closed walks of T/dt steps
                 (Tmax = 24) by left-to-right min-plus powering of the
                 one-step matrix to half the horizon, floor(log2(T/dt)) - 1
                 dense N^3 products,
with |c_Karp - c_Howard| (Howard: `build_polytope`'s c) and the gap
c_Karp - c_T of the retired horizon.

With --parent SRC (the `src/` directory of a checkout of the parent commit)
it also runs `bench/run.py --workload barrier --seed 1 --seconds 20 --trace
0` --pairs times in that checkout and in this one, alternating which side
runs first, and records every `wall_s`, both medians and the pairs the
change won.  All of it goes with the machine facts to BENCH_barrier.json.

Usage:  python scripts/bench_barrier.py [--repeat 5] [--parent SRC --pairs 10]
                                        [--out BENCH_barrier.json]
"""

import argparse
import os
import sys
from functools import partial
from statistics import median

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench_critical import (ROOT, alternating, best, child_json, rotation,  # noqa: E402
                            well, write_record)
from torushj.barrier import BIG, _ActionKernel, karp_min_mean  # noqa: E402
from torushj.grids import PeriodicGrid                         # noqa: E402
from torushj.matherlp import build_polytope                    # noqa: E402
from torushj.models import velocity_set                        # noqa: E402
from torushj.solver import Transition                          # noqa: E402

TMAX = 24.0


def cases():
    out = []
    for d, n, m_crit, m in ((1, 128, 33, 49), (2, 16, 9, 9), (2, 24, 9, 9)):
        grid = PeriodicGrid(d, n)
        out.append((f"mechanical d={d} n={n} m={m_crit}", well(d), grid,
                    velocity_set(3.0, m_crit, d)))
        out.append((f"shifted_quadratic d={d} n={n} m={m}", rotation(d), grid,
                    velocity_set(3.0, m, d)))
    return out


def min_plus(A, B):
    """C[i, j] = min_k A[i, k] + B[k, j] in row blocks of about 1 MB,
    clamped at BIG."""
    N = A.shape[0]
    C = np.empty_like(A)
    rows = max(1, (1 << 17) // (N * N))
    for i in range(0, N, rows):
        np.min(A[i:i + rows, :, None] + B[None], axis=1, out=C[i:i + rows])
    return np.minimum(C, BIG, out=C)


def retired_longtime(kern, steps):
    """diag h_{steps*dt} (steps >= 2) on the action DP's lattice graph
    `kern`: P = h_dt raised to steps // 2 left to right, then
    min_j P[i, j] + Q[j, i] with Q = P, or one step of P for odd steps."""
    N = kern.take.shape[1]
    P = np.full((N, N), BIG)
    np.minimum.at(P, (kern.take, np.broadcast_to(np.arange(N), kern.take.shape)), kern.cost)
    for bit in bin(steps // 2)[3:]:
        P = min_plus(P, P)
        if bit == "1":
            P = kern.step(P)
    Q = kern.step(P) if steps & 1 else P
    return np.minimum(np.min(P + Q.T, axis=1), BIG)


def workload_wall(checkout):
    result = child_json(["bench/run.py", "--workload", "barrier", "--seed", "1",
                         "--seconds", "20", "--trace", "0"], cwd=checkout)
    if not result["correct"]:
        raise RuntimeError(f"barrier workload failed in {checkout}")
    return result["metrics"]["wall_s"]["value"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--parent", help="src/ directory of a checkout of the parent commit, "
                    "for wall_s pairs")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_barrier.json"))
    args = ap.parse_args()

    rows = []
    print(f"{'case':<34s} {'N':>4s} {'steps':>5s} {'karp_s':>8s} {'power_s':>8s} "
          f"{'|c-c_H|':>8s} {'c-c_T':>8s}")
    for name, model, grid, vset in cases():
        arcs = Transition(grid, vset)
        dt = arcs.dt
        steps = int(round(TMAX / dt))
        kern = _ActionKernel(model, arcs)
        karp_s, eta = best(lambda: karp_min_mean(kern.take, kern.cost), args.repeat)
        power_s, diag = best(lambda: retired_longtime(kern, steps), args.repeat)
        c, c_T = -eta / dt, -float(diag.min()) / (steps * dt)
        row = {"case": name, "nodes": grid.size, "velocities": vset.count,
               "steps": steps, "karp_s": karp_s, "powering_s": power_s,
               "dense_products": max(steps.bit_length() - 2, 0),
               "abs_c_karp_minus_howard": abs(c - build_polytope(model, arcs).c),
               "c_karp_minus_c_T": c - c_T}
        rows.append(row)
        print(f"{name:<34s} {grid.size:4d} {steps:5d} {karp_s:8.4f} {power_s:8.4f} "
              f"{row['abs_c_karp_minus_howard']:8.1e} {row['c_karp_minus_c_T']:8.1e}")
    report = {"repeat": args.repeat, "tmax": TMAX, "cases": rows}
    if args.parent:
        parent = os.path.dirname(os.path.abspath(args.parent))
        walls = alternating(args.pairs, {"parent": partial(workload_wall, parent),
                                         "change": partial(workload_wall, ROOT)})
        report["barrier_wall_s"] = {
            "command": "bench/run.py --workload barrier --seed 1 --seconds 20 --trace 0",
            "samples": walls, "median_parent": median(walls["parent"]),
            "median_change": median(walls["change"]),
            "pairs_won": sum(c < p for p, c in zip(walls["parent"], walls["change"]))}
        print(f"barrier wall_s median {report['barrier_wall_s']['median_parent']:.4f} -> "
              f"{report['barrier_wall_s']['median_change']:.4f} s")
    write_record(args.out, **report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
