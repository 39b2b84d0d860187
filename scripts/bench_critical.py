#!/usr/bin/env python3
"""Time the critical problem: the HiGHS critical LP against Howard's policy
iteration on the same lattice graph.

Cases: the critical polytopes of the three benchmark workloads
(`rotation_sweep` n = 32, `occupation` n = 64, and `barrier`'s two calls at
n = 128: the mechanical cosine well at K = 33 and 49 and the golden-ratio
shifted quadratic at K = 49; vmax 3, d = 1) and the d = 2 `cos_sum` well at
n = 40 (vmax 2, m = 9 per axis, K = 81).  Per case it reports the best of
--repeat timings of
    lp_s        `solve_mather_lp` on the polytope (HiGHS, the oracle of c),
    howard_s    `matherlp._howard` alone, with its iteration count,
    build_s     `build_polytope` end to end (assembly, Howard, critical
                arcs, static classes),
plus |c_lp - c_howard| and the smallest reduced cost, and writes all of it
with the machine facts to BENCH_critical.json.

This module is also the harness of the other bench scripts: the shared
models, `best`, `alternating`, the child launchers `child_json` and
`in_tree`, and the record writer `write_record` with `machine` and
`tree_id`.  It imports numpy, scipy and torushj only inside functions, so
that a script can import it before it starts the children it measures.

Usage:  python scripts/bench_critical.py [--repeat 5] [--out BENCH_critical.json]
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "bench")]

from run import child_env, machine_facts                       # noqa: E402

ALPHA = 0.6180339887498949

# The child of `in_tree`, argv SRC, scripts/, module, function, JSON arguments:
# torushj comes from SRC before the module's own sys.path entries count.
IN_TREE = """
import importlib, json, os, sys
src = os.path.abspath(sys.argv[1])
sys.path[:0] = [src, sys.argv[2]]
import torushj
if not os.path.abspath(torushj.__file__).startswith(src + os.sep):
    sys.exit(f"torushj imported from {torushj.__file__}, not from {src}")
func = getattr(importlib.import_module(sys.argv[3]), sys.argv[4])
print(json.dumps(func(*json.loads(sys.argv[5]))))
"""


def well(d=1, U="cos:amp=1,freq=1"):
    """The mechanical model with the potential spec `U` (the cosine well)."""
    from torushj.experiments import parse_potential
    from torushj.models import builtin_model
    return builtin_model("mechanical", d=d, U=parse_potential(U))


def rotation(d=1, alpha=ALPHA, **potential):
    """The shifted quadratic with rotation vector `alpha` (one value for
    every axis, or d of them)."""
    import numpy as np
    from torushj.models import builtin_model
    return builtin_model("shifted_quadratic", d=d, alpha=np.broadcast_to(alpha, (d,)),
                         **potential)


def rotation_sweep():
    """The `rotation_sweep` workload's model: the rotation with V0 = -target."""
    from torushj.experiments import parse_potential
    target = parse_potential("sin:freq=1,offset=0.3")
    return rotation(potential=lambda x: -target(x))


def cases():
    from torushj.grids import PeriodicGrid
    from torushj.models import velocity_set

    vs, mech, grid128 = velocity_set(3.0, 49), well(), PeriodicGrid(1, 128)
    return [
        ("rotation_sweep n=32", rotation_sweep(), PeriodicGrid(1, 32), vs),
        ("occupation n=64", mech, PeriodicGrid(1, 64), vs),
        ("barrier poly49 n=128", mech, grid128, vs),
        ("mechanical K=33 n=128", mech, grid128, velocity_set(3.0, 33)),
        ("shifted_quadratic K=49 n=128", rotation(), grid128, vs),
        ("cos_sum d=2 n=40", well(2, "cos_sum:amp=1,freq=1"), PeriodicGrid(2, 40),
         velocity_set(2.0, 9, d=2)),
    ]


def best(fn, repeat):
    times, out = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def alternating(rounds, sides):
    """Call each of `sides` (name -> function) once a round, in their order
    in even rounds and in reverse in odd ones, so that the sides share the
    host's load; each side's results in round order."""
    results = {name: [] for name in sides}
    for r in range(rounds):
        for name in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
            results[name].append(sides[name]())
    return results


def child_json(args, cwd=None):
    """Run `python *args` in the benchmark's child environment (no
    PYTHONPATH, BLAS on one thread) without writing bytecode; the last line
    it prints, read as JSON.  A child that exits non-zero raises."""
    out = subprocess.run([sys.executable, *args], cwd=cwd, check=True, text=True,
                         env=dict(child_env(), PYTHONDONTWRITEBYTECODE="1"),
                         stdout=subprocess.PIPE)
    return json.loads(out.stdout.splitlines()[-1])


def in_tree(src, module, func, *args):
    """`module.func(*args)` (module from scripts/) in a child that imports
    torushj from the `src/` directory `src`, and refuses to run if torushj
    comes from anywhere else; its JSON result."""
    return child_json(["-c", IN_TREE, src, HERE, module, func, json.dumps(args)])


def tree_id(src=SRC):
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
    """The benchmark's machine facts, with this tree's `tree_id`."""
    import numpy as np
    import scipy

    facts = machine_facts(None, {"numpy": np.__version__, "scipy": scipy.__version__})
    return {**{k: facts[k] for k in ("nproc", "cpu_model", "python", "numpy", "scipy")},
            **tree_id()}


def write_record(path, **fields):
    """Write the machine facts and `fields` to `path` as indented JSON."""
    with open(path, "w") as f:
        json.dump({"machine": machine(), **fields}, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")


def main() -> int:
    import numpy as np
    from torushj.matherlp import _howard, build_polytope, solve_mather_lp
    from torushj.solver import Transition, lattice_graph

    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_critical.json"))
    args = ap.parse_args()

    rows = []
    print(f"{'case':<28s} {'LP vars':>8s} {'lp_s':>9s} {'howard_s':>9s} {'iters':>5s} "
          f"{'build_s':>9s} {'|dc|':>8s} {'min rc':>9s}")
    for name, model, grid, vset in cases():
        arcs = Transition(grid, vset)
        build_s, poly = best(lambda: build_polytope(model, arcs), args.repeat)
        lp_s, (_, opt, _) = best(lambda: solve_mather_lp(model, poly), args.repeat)
        W = arcs.dt * lattice_graph(model, arcs)
        howard_s, (_, _, _, iters) = best(lambda: _howard(arcs.take, W, np.ones_like(W)),
                                          args.repeat)
        row = {"case": name, "nodes": grid.size, "velocities": vset.count,
               "lp_vars": poly.num_vars, "lp_s": lp_s, "howard_s": howard_s,
               "howard_iterations": iters, "build_polytope_s": build_s,
               "c": poly.c, "abs_c_minus_lp": abs(poly.c + opt),
               "min_reduced_cost": float(poly.reduced_cost.min())}
        rows.append(row)
        print(f"{name:<28s} {poly.num_vars:8d} {lp_s:9.4f} {howard_s:9.5f} {iters:5d} "
              f"{build_s:9.5f} {row['abs_c_minus_lp']:8.1e} {row['min_reduced_cost']:9.1e}")
    write_record(args.out, repeat=args.repeat, cases=rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
