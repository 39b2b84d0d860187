#!/usr/bin/env python3
"""Time the set-up of a torushj run and the "lp" critical-value route.

Set-up: each run is a fresh interpreter that executes one target's
statements and reports
    min_s / median_s   the statements alone, timed with perf_counter,
    median_setup_s     child start until the statements finished, as
                       `bench/run.py` defines setup_s,
    median_maxrss_mib  ru_maxrss after them,
    loads              which of scipy, scipy.optimize, scipy.sparse,
                       numpy.ma and numpy.random they loaded.
The targets are `import torushj.experiments`, and set-up proper (that import
plus `parse_config`) of the unseeded `configs/example_6_1.cfg` and the
seeded `configs/barrier_suite.cfg`, whose validation builds the generator;
plus the reference chains `numpy`, `numpy + numpy.ma`, `numpy +
numpy.random`, `numpy + scipy`, `numpy + scipy.sparse.csgraph` and `numpy +
scipy.sparse.csgraph + scipy.optimize`.  As in the benchmark, children run
with PYTHONDONTWRITEBYTECODE=1 and without PYTHONPATH, and each torushj
tree's `__pycache__` is removed first, so every child compiles torushj from
source.  Each of --runs rounds starts one process per target, in an order
that alternates from round to round; with --parent SRC each torushj target
is also run on a second source tree (the parent commit's `src/`), side by
side, so the two trees share the host's load.

Route: best of --repeat timings of the "lp" route of
`barrier.critical_value` both ways on the lattice graph at n = 128, the
mechanical cosine well with K = 33 and the golden-ratio shifted quadratic
with K = 49 (vmax 3, the `barrier` workload's two calls):
    howard_s    `build_polytope(...).c`, policy iteration with its certificate,
    highs_s     `solve_mather_lp` on the assembled polytope (HiGHS dual simplex),
plus the difference of the two critical values.

Usage:  python scripts/bench_import.py [--runs 15] [--repeat 5] [--parent SRC]
                                       [--out BENCH_import.json]
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
ALPHA = 0.6180339887498949
MODULES = ("scipy", "scipy.optimize", "scipy.sparse", "numpy.ma", "numpy.random")

# A child prints one JSON record: the statements' seconds, the monotonic
# clock when they finished, ru_maxrss in KiB and the MODULES loaded.
CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
{statements}
t = time.perf_counter() - t0
ready = time.monotonic()
print(json.dumps({{"s": t, "ready": ready,
                  "rss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "loads": [m for m in {modules!r} if m in sys.modules]}}))
"""

IMPORT = "import torushj.experiments"
SETUP = "import torushj.experiments\ntorushj.experiments.parse_config({path!r})"
CHAINS = {
    "numpy": "import numpy",
    "numpy + numpy.ma": "import numpy, numpy.ma",
    "numpy + numpy.random": "import numpy, numpy.random",
    "numpy + scipy": "import numpy, scipy",
    "numpy + scipy.sparse.csgraph": "import numpy, scipy.sparse.csgraph",
    "numpy + scipy.sparse.csgraph + scipy.optimize":
        "import numpy, scipy.sparse.csgraph, scipy.optimize",
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return env


def run_once(statements, src):
    code = CHILD.format(statements=statements, modules=MODULES)
    spawned = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code, src], env=child_env(),
                         capture_output=True, text=True, check=True)
    record = json.loads(out.stdout.splitlines()[-1])
    return record["s"], record["ready"] - spawned, record["rss"] / 1024.0, record["loads"]


def import_table(runs, parent):
    trees = [("", os.path.join(ROOT, "src"))] + ([(" (parent)", parent)] if parent else [])
    for _, src in trees:
        shutil.rmtree(os.path.join(src, "torushj", "__pycache__"), ignore_errors=True)
    torushj = [("torushj.experiments", IMPORT)] + [
        (f"set-up {name}", SETUP.format(path=os.path.join(ROOT, "configs", f"{name}.cfg")))
        for name in ("example_6_1", "barrier_suite")]
    targets = [(name + tag, stmts, src) for name, stmts in torushj for tag, src in trees]
    targets += [(name, stmts, trees[0][1]) for name, stmts in CHAINS.items()]
    samples = {name: [] for name, _, _ in targets}
    for r in range(runs):
        for name, stmts, where in (targets if r % 2 == 0 else targets[::-1]):
            samples[name].append(run_once(stmts, where))
    from bench_critical import tree_id     # after the children: see route_table
    rows = []
    for name, stmts, where in targets:
        t, setup, rss, loads = zip(*samples[name])
        row = {"target": name, "runs": runs, "min_s": min(t), "median_s": median(t),
               "median_setup_s": median(setup), "median_maxrss_mib": median(rss),
               "loads": sorted(set().union(*loads))}
        if "torushj" in stmts:
            row["tree"] = tree_id(where)
        rows.append(row)
    return rows


def route_table(repeat):
    # imported only after the import table: a child's ru_maxrss counts the
    # memory of the process that forked it
    from bench_critical import best
    from torushj.experiments import parse_potential
    from torushj.grids import build_grid
    from torushj.matherlp import build_polytope, solve_mather_lp
    from torushj.models import builtin_model, velocity_set

    grid = build_grid(1, 128)
    mech = builtin_model("mechanical", U=parse_potential("cos:amp=1,freq=1"))
    sq = builtin_model("shifted_quadratic", alpha=ALPHA)
    rows = []
    for name, model, vset in (("mechanical K=33", mech, velocity_set(3.0, 33)),
                              ("shifted_quadratic K=49", sq, velocity_set(3.0, 49))):
        howard_s, poly = best(lambda: build_polytope(model, grid, vset), repeat)
        highs_s, c_lp = best(lambda: -solve_mather_lp(model, poly)[1], repeat)
        rows.append({"case": f"{name} n=128", "nodes": grid.size,
                     "velocities": vset.count, "howard_s": howard_s,
                     "highs_s": highs_s, "c": poly.c, "abs_c_minus_lp": abs(poly.c - c_lp)})
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=15)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--parent", help="src/ directory of a second checkout whose "
                    "set-up to time, alternating with this one")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_import.json"))
    args = ap.parse_args()

    imports = import_table(args.runs, args.parent)
    print(f"{'set-up':<48s} {'min_s':>7s} {'median_s':>8s} {'setup_s':>7s} {'MiB':>6s} loads")
    for row in imports:
        print(f"{row['target']:<48s} {row['min_s']:7.3f} {row['median_s']:8.3f} "
              f"{row['median_setup_s']:7.3f} {row['median_maxrss_mib']:6.1f} "
              f"{' '.join(row['loads']) or '-'}")
    routes = route_table(args.repeat)
    print(f"{'lp route':<28s} {'howard_s':>9s} {'highs_s':>9s} {'|dc|':>8s}")
    for row in routes:
        print(f"{row['case']:<28s} {row['howard_s']:9.5f} {row['highs_s']:9.5f} "
              f"{row['abs_c_minus_lp']:8.1e}")
    from bench_critical import machine
    with open(args.out, "w") as f:
        json.dump({"machine": machine(), "runs": args.runs, "repeat": args.repeat,
                   "imports": imports, "lp_route": routes}, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
