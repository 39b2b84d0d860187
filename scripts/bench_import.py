#!/usr/bin/env python3
"""Time the set-up of a torushj run.

Each run is a fresh interpreter that executes one target's statements and
reports
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
scipy.sparse.csgraph + scipy.optimize`.  Children run in the benchmark's
environment (`bench/run.py`'s `child_env`: no PYTHONPATH, BLAS on one
thread) plus PYTHONDONTWRITEBYTECODE=1, and each torushj tree's
`__pycache__` is removed first, so every child compiles torushj from
source.  Each of --runs rounds starts one process per target, in an order
that alternates from round to round; with --parent SRC each torushj target
is also run on a second source tree (the parent commit's `src/`), side by
side, so the two trees share the host's load.  The critical-value routes
at n = 128 are timed by `bench_critical.py`.

Usage:  python scripts/bench_import.py [--runs 15] [--parent SRC]
                                       [--out BENCH_import.json]
"""

import argparse
import os
import shutil
import sys
import time
from functools import partial
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_critical import ROOT, SRC, alternating, child_json, tree_id, write_record  # noqa: E402

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


def run_once(statements, src):
    code = CHILD.format(statements=statements, modules=MODULES)
    spawned = time.monotonic()
    record = child_json(["-c", code, src])
    return record["s"], record["ready"] - spawned, record["rss"] / 1024.0, record["loads"]


def import_table(runs, parent):
    trees = [("", SRC)] + ([(" (parent)", parent)] if parent else [])
    for _, src in trees:
        shutil.rmtree(os.path.join(src, "torushj", "__pycache__"), ignore_errors=True)
    torushj = [("torushj.experiments", IMPORT)] + [
        (f"set-up {name}", SETUP.format(path=os.path.join(ROOT, "configs", f"{name}.cfg")))
        for name in ("example_6_1", "barrier_suite")]
    targets = [(name + tag, stmts, src) for name, stmts in torushj for tag, src in trees]
    targets += [(name, stmts, SRC) for name, stmts in CHAINS.items()]
    samples = alternating(runs, {name: partial(run_once, stmts, where)
                                 for name, stmts, where in targets})
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


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=15)
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
    write_record(args.out, runs=args.runs, imports=imports)
    return 0


if __name__ == "__main__":
    sys.exit(main())
