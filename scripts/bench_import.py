#!/usr/bin/env python3
"""Time the import of torushj and the "lp" critical-value route.

Import: each run is a fresh interpreter that times `import
torushj.experiments` with perf_counter and reports ru_maxrss after it and
whether `scipy.optimize` and `scipy.sparse` got loaded.  The reference
chains `numpy`, `numpy + scipy` (the manifest's version string),
`numpy + scipy.sparse.csgraph` and `numpy + scipy.sparse.csgraph +
scipy.optimize` are timed the same way.  Each of --runs rounds starts
one process per target, in an order that alternates from round to round;
with --parent SRC the torushj import of a second source tree (the parent
commit's `src/`) is one more target, timed side by side, so the two trees
share the host's load.  Per target it
records the minimum and median seconds and the median ru_maxrss.

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
import subprocess
import sys
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
ALPHA = 0.6180339887498949

# A child prints: import seconds, ru_maxrss in KiB, scipy.optimize loaded,
# scipy.sparse loaded.
CHILD = """
import resource, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
{imports}
t = time.perf_counter() - t0
print(t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
      "scipy.optimize" in sys.modules, "scipy.sparse" in sys.modules)
"""

CHAINS = {
    "numpy": "import numpy",
    "numpy + scipy": "import numpy, scipy",
    "numpy + scipy.sparse.csgraph": "import numpy, scipy.sparse.csgraph",
    "numpy + scipy.sparse.csgraph + scipy.optimize":
        "import numpy, scipy.sparse.csgraph, scipy.optimize",
}


def import_once(imports, src):
    out = subprocess.run([sys.executable, "-c", CHILD.format(imports=imports), src],
                         capture_output=True, text=True, check=True)
    t, rss, optimize, sparse = out.stdout.split()
    return float(t), int(rss) / 1024.0, optimize == "True", sparse == "True"


def commit_of(src):
    out = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def import_table(runs, parent):
    src = os.path.join(ROOT, "src")
    targets = [("torushj.experiments", "import torushj.experiments", src)]
    if parent:
        targets.append(("torushj.experiments (parent)", "import torushj.experiments",
                        parent))
    targets += [(name, imp, src) for name, imp in CHAINS.items()]
    samples = {name: [] for name, _, _ in targets}
    for r in range(runs):
        for name, imp, where in (targets if r % 2 == 0 else targets[::-1]):
            samples[name].append(import_once(imp, where))
    rows = []
    for name, _, where in targets:
        t, rss, optimize, sparse = zip(*samples[name])
        row = {"target": name, "runs": runs, "min_s": min(t), "median_s": median(t),
               "median_maxrss_mib": median(rss), "loads_scipy_optimize": any(optimize),
               "loads_scipy_sparse": any(sparse)}
        if name.startswith("torushj"):
            row["commit"] = commit_of(where)
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
    ap.add_argument("--parent", help="src/ directory of a second checkout to "
                    "time the import of, alternating with this one")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_import.json"))
    args = ap.parse_args()

    imports = import_table(args.runs, args.parent)
    print(f"{'import':<48s} {'min_s':>7s} {'median_s':>8s} {'MiB':>6s} optimize sparse")
    for row in imports:
        print(f"{row['target']:<48s} {row['min_s']:7.3f} {row['median_s']:8.3f} "
              f"{row['median_maxrss_mib']:6.1f} {row['loads_scipy_optimize']!s:8s} "
              f"{row['loads_scipy_sparse']}")
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
