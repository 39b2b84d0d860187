#!/usr/bin/env python3
"""Time the two costly routes of the critical value in `barrier_suite`.

Cases: the two kernels of the `barrier` benchmark workload at n = 128 (the
mechanical cosine well at K = 33 and the shifted quadratic at K = 49; vmax 3,
d = 1) and the same two kernels of a d = 2 `barrier_suite` at n = 16 and 24
with m = 9 per axis (K = 81).  Per case it reports the best of --repeat
timings of
    longtime_old_s   the retired long-time route: h_dt as one column-gather
                     step of the diagonal seed, right-to-left binary powering
                     of it to the whole horizon, and its diagonal,
    longtime_new_s   `_ActionKernel.closed_walks`: left-to-right powering to
                     half the horizon and the diagonal of one more product,
    lp_presolve_s    the critical LP of the "lp" route by HiGHS dual simplex
                     with presolve,
    lp_s             the same LP as `matherlp._run_lp` solves it, without,
with the dense products each route takes, |c_old - c_new|, the objective gap
of the two LPs and whether their supports agree.  Horizon: Tmax = 24.

With --parent DIR it also runs `bench/run.py --workload barrier --seed 1
--seconds 20 --trace 0` --pairs times in DIR (a checkout of the parent
commit) and in this checkout, alternating which side runs first, and
records every `wall_s`, both medians and the pairs the change won.  All
of it goes with the machine facts to BENCH_barrier.json.

Usage:  python scripts/bench_barrier.py [--repeat 5] [--parent DIR --pairs 10]
                                        [--out BENCH_barrier.json]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

import numpy as np
import scipy
from scipy import sparse
from scipy.optimize import linprog

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from torushj.barrier import (BIG, _ActionKernel, _min_plus,   # noqa: E402
                             initial_action_matrix)
from torushj.experiments import parse_potential                # noqa: E402
from torushj.grids import build_grid                           # noqa: E402
from torushj.matherlp import _run_lp, build_polytope           # noqa: E402
from torushj.models import builtin_model, velocity_set          # noqa: E402
from torushj.solver import default_dt                           # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALPHA = 0.6180339887498949
TMAX = 24.0


def cases():
    out = []
    for d, n, m_crit, m in ((1, 128, 33, 49), (2, 16, 9, 9), (2, 24, 9, 9)):
        grid = build_grid(d, n)
        mech = builtin_model("mechanical", d=d, U=parse_potential("cos:amp=1,freq=1"))
        sq = builtin_model("shifted_quadratic", d=d, alpha=np.full(d, ALPHA))
        out.append((f"mechanical d={d} n={n} m={m_crit}", mech, grid,
                    velocity_set(3.0, m_crit, d)))
        out.append((f"shifted_quadratic d={d} n={n} m={m}", sq, grid,
                    velocity_set(3.0, m, d)))
    return out


def column_gather_step(kern, A):
    out = np.full_like(A, BIG)
    for take, cost in zip(kern.take, kern.cost):
        np.minimum(out, A[:, take] + cost[None, :], out=out)
    return np.minimum(out, BIG)


def retired_longtime(kern, steps):
    """diag h_{steps*dt} by the retired right-to-left powering."""
    base = column_gather_step(kern, initial_action_matrix(kern.grid).values)
    out = None
    while True:
        if steps & 1:
            out = base if out is None else _min_plus(out, base)
        steps >>= 1
        if not steps:
            return np.diag(out)
        base = _min_plus(base, base)


def dense_products(steps):
    """(retired, new) count of N^3 min-plus products for a horizon of steps."""
    squarings = steps.bit_length() - 1
    return squarings + bin(steps).count("1") - 1, max(squarings - 1, 0)


def critical_lp(poly):
    N = poly.grid.size
    A_eq = sparse.vstack([poly.C, sparse.csr_matrix(np.ones((1, poly.num_vars)))])
    b_eq = np.zeros(N + 1)
    b_eq[-1] = 1.0
    return poly.action, A_eq, b_eq


def presolved_lp(cvec, A_eq, b_eq):
    return linprog(c=cvec, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")


def best(fn, repeat):
    times, out = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                                capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": commit}


def workload_wall(checkout):
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "barrier",
                          "--seed", "1", "--seconds", "20", "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"barrier workload failed in {checkout}: {res.stderr}")
    return result["metrics"]["wall_s"]["value"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--parent", help="checkout of the parent commit, for wall_s pairs")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_barrier.json"))
    args = ap.parse_args()

    rows = []
    print(f"{'case':<34s} {'steps':>5s} {'old_s':>8s} {'new_s':>8s} {'prod':>5s} "
          f"{'|dc|':>8s} {'lp_pre_s':>8s} {'lp_s':>8s} {'|dobj|':>8s}")
    for name, model, grid, vset in cases():
        dt = default_dt(grid, vset)
        steps = int(round(TMAX / dt))
        kern = _ActionKernel(model, grid, vset, dt)
        old_s, old = best(lambda: retired_longtime(kern, steps), args.repeat)
        new_s, new = best(lambda: kern.closed_walks(steps), args.repeat)
        lp = critical_lp(build_polytope(model, grid, vset, dt, with_critical=False))
        pre_s, pre = best(lambda: presolved_lp(*lp), args.repeat)
        lp_s, res = best(lambda: _run_lp(*lp), args.repeat)
        old_n, new_n = dense_products(steps)
        row = {"case": name, "nodes": grid.size, "velocities": vset.count,
               "steps": steps, "longtime_old_s": old_s, "longtime_new_s": new_s,
               "dense_products_old": old_n, "dense_products_new": new_n,
               "abs_c_old_minus_new": abs(float(old.min() - new.min())) / (steps * dt),
               "lp_vars": lp[0].size, "lp_rows": lp[1].shape[0],
               "lp_presolve_s": pre_s, "lp_s": lp_s,
               "abs_objective_gap": abs(float(pre.fun - res.fun)),
               "same_support": bool(np.array_equal(pre.x > 1e-12, res.x > 1e-12))}
        rows.append(row)
        print(f"{name:<34s} {steps:5d} {old_s:8.4f} {new_s:8.4f} {old_n:2d}>{new_n:2d} "
              f"{row['abs_c_old_minus_new']:8.1e} {pre_s:8.4f} {lp_s:8.4f} "
              f"{row['abs_objective_gap']:8.1e}")
    report = {"machine": machine(), "repeat": args.repeat, "tmax": TMAX, "cases": rows}
    if args.parent:
        walls = {"parent": [], "change": []}
        for i in range(args.pairs):
            sides = [("parent", args.parent), ("change", ROOT)]
            for side, checkout in sides[::1 if i % 2 == 0 else -1]:
                walls[side].append(workload_wall(checkout))
        report["barrier_wall_s"] = {
            "command": "bench/run.py --workload barrier --seed 1 --seconds 20 --trace 0",
            "samples": walls, "median_parent": median(walls["parent"]),
            "median_change": median(walls["change"]),
            "pairs_won": sum(c < p for p, c in zip(walls["parent"], walls["change"]))}
        print(f"barrier wall_s median {report['barrier_wall_s']['median_parent']:.4f} -> "
              f"{report['barrier_wall_s']['median_change']:.4f} s")
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
