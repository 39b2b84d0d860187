#!/usr/bin/env python3
"""Time the Mather face layer: the Peierls barrier and the selection
evaluation by static classes against the paths they replaced.

Barrier cases: the rotation (shifted_quadratic, alpha = golden ratio - 1)
at d = 1, n = 32 and n = 128 (vmax 3, m = 49) and at d = 2, n = 24 (vmax 2,
m = 5 per axis).  Per case it reports the best of --repeat timings of
    per_class_s     `peierls_barrier`, Dijkstra from one node per class,
    all_sources_s   the retired loop with Dijkstra from every Aubry node
                    (`all_sources_barrier` in tests/test_peierls_exact.py),
with the class and Aubry-node counts, max |difference| and whether the
Aubry sets agree.

Selection cases: the operator (sigma = 1, a seeded random phi) on the
branched half-step shifted_quadratic (alpha = half a velocity step: one
class, two critical arcs per node) at n = 16, 32, 64, 128, and the limit
formula of the `rotation_sweep` benchmark workload (n = 32).  Per case it
reports the best of --repeat timings of
    class_s         `selection._minimize_on_face`, one ratio policy
                    iteration for every class (the polytope's barrier is
                    computed before the timing starts),
    fallback_s      the retired per-target Charnes-Cooper LP restricted to
                    the critical arcs (`restricted_lp` in
                    tests/test_mather_face.py),
    vertex_s        the retired vertex evaluation on disjoint critical
                    cycles (`vertex_minimize`, vertices precomputed), where
                    the face has such cycles,
with max |difference| against the class path, and writes all of it with the
machine facts to BENCH_face.json.

Usage:  python scripts/bench_face.py [--repeat 5] [--out BENCH_face.json]
"""

import argparse
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "tests")]

from bench_critical import ALPHA, ROOT, best, rotation, rotation_sweep, write_record  # noqa: E402
from test_mather_face import mather_vertices, restricted_lp, vertex_minimize  # noqa: E402
from test_peierls_exact import all_sources_barrier             # noqa: E402
from torushj.barrier import peierls_barrier                    # noqa: E402
from torushj.grids import GridField, PeriodicGrid              # noqa: E402
from torushj.matherlp import build_polytope                    # noqa: E402
from torushj.models import velocity_set                        # noqa: E402
from torushj.selection import _dl_flat, _minimize_on_face      # noqa: E402
from torushj.solver import Transition                          # noqa: E402


def barrier_cases():
    vs = velocity_set(3.0, 49)
    rot, rot2 = rotation(), rotation(2, [ALPHA, np.sqrt(2.0) - 1.0])
    return [("rotation d=1 n=32", rot, PeriodicGrid(1, 32), vs),
            ("rotation d=1 n=128", rot, PeriodicGrid(1, 128), vs),
            ("rotation d=2 n=24", rot2, PeriodicGrid(2, 24), velocity_set(2.0, 5, d=2))]


def selection_cases():
    """(name, polytope, barrier values, beta, offset) per case; reading the
    barrier here fills the polytope's cache, so timings leave it out."""
    out = []
    vs = velocity_set(3.0, 49)
    half = rotation(alpha=vs.spacing / 2)
    for n in (16, 32, 64, 128):
        grid = PeriodicGrid(1, n)
        poly = build_polytope(half, Transition(grid, vs))
        phi = np.random.default_rng(n).normal(size=n)
        out.append((f"branched operator n={n}", poly, poly.barrier.values,
                    np.ones(poly.num_vars), np.repeat(phi, vs.count)))
    rot, grid = rotation_sweep(), PeriodicGrid(1, 32)
    poly = build_polytope(rot, Transition(grid, vs))
    V0 = GridField.from_function(grid, rot.V0)
    out.append(("rotation_sweep limit formula n=32", poly, poly.barrier.values,
                _dl_flat(rot, poly), np.repeat(V0.values, vs.count)))
    return out


def fallback(poly, h, beta, offset):
    """Per target, the restricted LP with a positive denominator."""
    K, sign = poly.vset.count, 1.0 if beta.min() > 0 else -1.0
    return np.array([restricted_lp(poly, sign * (beta * np.repeat(h[:, x], K) + offset),
                                   sign * beta)[0] for x in range(poly.grid.size)])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_face.json"))
    args = ap.parse_args()

    barrier_rows = []
    print(f"{'barrier case':<22s} {'classes':>7s} {'aubry':>6s} {'per_class_s':>11s} "
          f"{'all_sources_s':>13s} {'max|dh|':>8s}")
    for name, model, grid, vset in barrier_cases():
        poly = build_polytope(model, Transition(grid, vset))
        new_s, h = best(lambda: peierls_barrier(poly), args.repeat)
        old_s, (want, aubry) = best(lambda: all_sources_barrier(model, poly), args.repeat)
        row = {"case": name, "nodes": grid.size, "velocities": vset.count,
               "classes": int(poly.static_classes()[2].size),
               "aubry_nodes": int(aubry.size), "per_class_s": new_s,
               "all_sources_s": old_s,
               "max_abs_diff": float(np.max(np.abs(h.values - want))),
               "same_aubry": bool(np.array_equal(h.aubry, aubry))}
        barrier_rows.append(row)
        print(f"{name:<22s} {row['classes']:7d} {row['aubry_nodes']:6d} {new_s:11.5f} "
              f"{old_s:13.5f} {row['max_abs_diff']:8.1e}")

    selection_rows = []
    print(f"{'selection case':<34s} {'class_s':>9s} {'fallback_s':>10s} {'vertex_s':>9s} "
          f"{'max|dv|':>8s}")
    for name, poly, h, beta, offset in selection_cases():
        class_s, res = best(lambda: _minimize_on_face(poly, True, beta, offset, None,
                                                      False, False), args.repeat)
        fallback_s, want = best(lambda: fallback(poly, h, beta, offset), args.repeat)
        diff = float(np.max(np.abs(res.per_x_value - want)))
        cycles = mather_vertices(poly)
        vertex_s = None
        if cycles is not None:
            vertex_s, (vals, _, _) = best(lambda: vertex_minimize(poly, cycles, h, beta, offset),
                                          args.repeat)
            diff = max(diff, float(np.max(np.abs(res.per_x_value - vals))))
        row = {"case": name, "nodes": poly.grid.size, "classes": res.classes,
               "critical_arcs": res.critical_arcs, "class_s": class_s,
               "fallback_s": fallback_s, "vertex_s": vertex_s, "max_abs_diff": diff}
        selection_rows.append(row)
        vtxt = f"{vertex_s:9.5f}" if vertex_s is not None else f"{'-':>9s}"
        print(f"{name:<34s} {class_s:9.5f} {fallback_s:10.5f} {vtxt} {diff:8.1e}")

    write_record(args.out, repeat=args.repeat, barrier=barrier_rows,
                 selection=selection_rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
