#!/usr/bin/env python3
"""Time the two layers that left scipy.sparse, in this tree and in a parent
checkout side by side: `barrier.peierls_barrier` (a dense numpy Dijkstra
from all class representatives at once, formerly `csgraph.dijkstra`) and
`solver.solve_perturbed` (a walk over the policy's functional graph on the
lattice and a dense solve off it, formerly `spsolve`).

Cases:
    barrier  mechanical cos well, d = 1, n = 128, vmax 3, m = 49 (1 class);
             `cos_sum` well, d = 2, n = 24, vmax 2, m = 9 (1 class);
             rotation alpha = (0.618034, 0.414214) with the potential
             V = sin(2 pi (x_1 + 0.3)), d = 2, n = 24, m = 9 (24 classes)
    solve    the same three models at lam = 0.1, tol 1e-10, on the lattice
             (dt = h / velocity step) and at dt = 1e-2

Each (tree, case) runs in a fresh interpreter that imports torushj from that
tree's `src/` (`bench_critical.in_tree`) and reports the best of --repeat
timings; the trees alternate from round to round over --rounds rounds, and
the table keeps each tree's best.  The children also report the barrier's
sha256 and the solved field, so the table says whether the trees agree
(barrier bit for bit, field to the largest absolute difference).

Usage:  python scripts/bench_numpy_paths.py --parent SRC [--repeat 5]
                                            [--rounds 2] [--out BENCH_numpy_paths.json]
"""

import argparse
import hashlib
import os
import sys
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench_critical import (ROOT, SRC, alternating, best, in_tree, rotation,  # noqa: E402
                            tree_id, well, write_record)

CASES = [
    {"layer": "barrier", "case": "mechanical cos d=1 n=128 m=49", "model": "well1",
     "d": 1, "n": 128, "vmax": 3.0, "m": 49},
    {"layer": "barrier", "case": "cos_sum d=2 n=24 m=9", "model": "well2",
     "d": 2, "n": 24, "vmax": 2.0, "m": 9},
    {"layer": "barrier", "case": "rotation d=2 n=24 m=9", "model": "rotation2",
     "d": 2, "n": 24, "vmax": 2.0, "m": 9},
]
CASES += [dict(c, layer="solve", dt=dt, case=f"{c['case']} dt={dt or 'lattice'}")
          for dt in (None, 1e-2) for c in CASES[:3]]


def run_case(case, repeat):
    """One case in the tree this process imported torushj from: best
    seconds, classes, and the result (the barrier's sha256, or the solved
    field with its evaluation count)."""
    import numpy as np
    from torushj.barrier import peierls_barrier
    from torushj.experiments import parse_potential
    from torushj.grids import PeriodicGrid
    from torushj.matherlp import build_polytope
    from torushj.models import velocity_set
    from torushj.solver import Transition, solve_perturbed

    d = case["d"]
    model = {
        "well1": well,
        "well2": lambda: well(2, "cos_sum:amp=1,freq=1"),
        "rotation2": lambda: rotation(2, (0.618034, 0.414214),
                                      potential=parse_potential("sin:freq=1,offset=0.3")),
    }[case["model"]]()
    grid, vset = PeriodicGrid(d, case["n"]), velocity_set(case["vmax"], case["m"], d)
    poly = build_polytope(model, Transition(grid, vset))
    classes = int(len(poly.static_classes()[2]))
    if case["layer"] == "barrier":
        seconds, h = best(lambda: peierls_barrier(poly), repeat)
        return {"seconds": seconds, "classes": classes,
                "sha256": hashlib.sha256(np.ascontiguousarray(h.values).tobytes()).hexdigest()}
    shifted = model.with_c0(poly.c)
    arcs = Transition(grid, vset, case["dt"])
    seconds, (u, report) = best(lambda: solve_perturbed(shifted, 0.1, arcs, tol=1e-10), repeat)
    return {"seconds": seconds, "classes": classes, "field": u.values.tolist(),
            "evaluations": report.iterations}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", required=True, help="src/ directory of the parent checkout")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_numpy_paths.json"))
    args = ap.parse_args()

    trees = {"parent": args.parent, "this": SRC}
    rows = []
    print(f"{'layer':<8s} {'case':<42s} {'classes':>7s} {'parent_s':>9s} {'this_s':>9s} agree")
    for case in CASES:
        recs = alternating(args.rounds, {
            name: partial(in_tree, src, "bench_numpy_paths", "run_case", case, args.repeat)
            for name, src in trees.items()})
        parent, this = recs["parent"][0], recs["this"][0]
        row = {"layer": case["layer"], "case": case["case"], "nodes": case["n"] ** case["d"],
               "classes": this["classes"],
               "parent_s": min(r["seconds"] for r in recs["parent"]),
               "this_s": min(r["seconds"] for r in recs["this"])}
        if case["layer"] == "barrier":
            row["bit_identical"] = parent["sha256"] == this["sha256"]
            agree = str(row["bit_identical"])
        else:
            row["max_abs_field_diff"] = max(abs(a - b) for a, b in zip(parent["field"],
                                                                      this["field"]))
            row["evaluations"] = [parent["evaluations"], this["evaluations"]]
            agree = f"{row['max_abs_field_diff']:.1e}"
        rows.append(row)
        print(f"{row['layer']:<8s} {row['case']:<42s} {row['classes']:7d} "
              f"{row['parent_s']:9.4f} {row['this_s']:9.4f} {agree}")
    write_record(args.out, repeat=args.repeat, rounds=args.rounds,
                 trees={name: tree_id(src) for name, src in trees.items()}, cases=rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
