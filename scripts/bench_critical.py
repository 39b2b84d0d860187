#!/usr/bin/env python3
"""Time the critical problem: the HiGHS critical LP against Howard's policy
iteration on the same lattice graph.

Cases: the critical polytopes of the three benchmark workloads
(`rotation_sweep` n = 32, `occupation` n = 64, and `barrier`'s K = 49
polytope at n = 128; vmax 3, m = 49, d = 1) and the d = 2 `cos_sum` well at
n = 40 (vmax 2, m = 9 per axis, K = 81).  Per case it reports the best of
--repeat timings of
    lp_s        `solve_mather_lp` on the polytope (HiGHS, the oracle of c),
    howard_s    `matherlp._howard` alone, with its iteration count,
    build_s     `build_polytope` end to end (assembly, Howard, critical
                arcs, static classes),
plus |c_lp - c_howard| and the smallest reduced cost, and writes all of it
with the machine facts to BENCH_critical.json.

Usage:  python scripts/bench_critical.py [--repeat 5] [--out BENCH_critical.json]
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np
import scipy

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from torushj.experiments import parse_potential                # noqa: E402
from torushj.grids import build_grid                           # noqa: E402
from torushj.matherlp import _howard, build_polytope, solve_mather_lp  # noqa: E402
from torushj.models import builtin_model, velocity_set          # noqa: E402
from torushj.solver import lattice_graph                        # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALPHA = 0.6180339887498949


def cases():
    cos = parse_potential("cos:amp=1,freq=1")
    target = parse_potential("sin:freq=1,offset=0.3")
    rotation = builtin_model("shifted_quadratic", alpha=ALPHA,
                             potential=lambda x: -target(x))
    mech = builtin_model("mechanical", U=cos)
    well2d = builtin_model("mechanical", d=2, U=parse_potential("cos_sum:amp=1,freq=1"))
    vs = velocity_set(3.0, 49)
    return [
        ("rotation_sweep n=32", rotation, build_grid(1, 32), vs),
        ("occupation n=64", mech, build_grid(1, 64), vs),
        ("barrier poly49 n=128", mech, build_grid(1, 128), vs),
        ("cos_sum d=2 n=40", well2d, build_grid(2, 40), velocity_set(2.0, 9, d=2)),
    ]


def best(fn, repeat):
    times, out = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def tree_id(src=os.path.join(ROOT, "src")):
    """The source tree a run timed: the HEAD commit of the checkout that
    holds the `src/` directory `src`, and a sha256 over its
    src/torushj/*.py, which tells an uncommitted tree from that commit."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "torushj", "*.py"))):
        with open(path, "rb") as f:
            data = f.read()
        h.update(f"{os.path.basename(path)}\0{len(data)}\0".encode() + data)
    try:
        commit = subprocess.run(["git", "-C", src, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"commit": commit, "src_sha256": h.hexdigest()}


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, **tree_id()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_critical.json"))
    args = ap.parse_args()

    rows = []
    print(f"{'case':<22s} {'LP vars':>8s} {'lp_s':>9s} {'howard_s':>9s} {'iters':>5s} "
          f"{'build_s':>9s} {'|dc|':>8s} {'min rc':>9s}")
    for name, model, grid, vset in cases():
        build_s, poly = best(lambda: build_polytope(model, grid, vset), args.repeat)
        lp_s, (_, opt, _) = best(lambda: solve_mather_lp(model, poly), args.repeat)
        arcs, L0 = lattice_graph(model, grid, vset)
        W = arcs.dt * L0
        howard_s, (_, _, _, iters) = best(lambda: _howard(arcs.take, W, np.ones_like(W)),
                                          args.repeat)
        row = {"case": name, "nodes": grid.size, "velocities": vset.count,
               "lp_vars": poly.num_vars, "lp_s": lp_s, "howard_s": howard_s,
               "howard_iterations": iters, "build_polytope_s": build_s,
               "c": poly.c, "abs_c_minus_lp": abs(poly.c + opt),
               "min_reduced_cost": float(poly.reduced_cost.min())}
        rows.append(row)
        print(f"{name:<22s} {poly.num_vars:8d} {lp_s:9.4f} {howard_s:9.5f} {iters:5d} "
              f"{build_s:9.5f} {row['abs_c_minus_lp']:8.1e} {row['min_reduced_cost']:9.1e}")
    with open(args.out, "w") as f:
        json.dump({"machine": machine(), "repeat": args.repeat, "cases": rows},
                  f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
