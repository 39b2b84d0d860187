#!/usr/bin/env python3
"""Time backward traces: the speculative block loop of
`curves.backward_calibrated_curve` against the lean per-step loop it
replaced (`lean_backward_calibrated_curve` in tests/test_trace_oracle.py).

Cases: the four traces of the `occupation` benchmark workload (seed 1; the
sweep's traces at lam = 12.8, 6.4, 3.2, the one at 6.4 being the mass
identity's at dt, and the mass identity's at lam = 6.4 and dt/2) and the
mass-identity trace of the bundled configs/occupation_suite.cfg (lam = 0.05,
the sweep's last).  Their inputs are recorded by running each pipeline once,
each case from the first trace the pipeline asks for at its (lam, dt).  A
trace ends at its first rest step, the first step back at its own point;
Tmax caps one that never rests.  Per trace it reports the steps, the rest
step (null for a trace that never rests), the number of blocks (numpy
passes), the best of --repeat timings of the block loop and of the lean loop
over the same steps with their microseconds per step, and whether every
CurveTrace field is bit for bit the lean loop's (it exits 1 if one is not).
It also times whole runs, `run_experiment` of the workload's config and of
the bundled config, and the foot sampler alone (`Transition.foot_sampler`
on the first trace's kernel and field, K = 49): microseconds per row at
S = 1, 64 and 256 random points.  All of it goes with the machine facts to
BENCH_traces.json.

With --parent SRC, the `src/` directory of a second checkout (say, the
parent commit's), a child process imports torushj from SRC
(`bench_critical.in_tree`), records the same cases with that tree's
pipelines, and times that tree's block loop, runs and sampler.  Each trace
row then holds, under "src", that tree's steps, blocks, rest step and times,
and whether its trace, cut after its first rest step, is bit for bit this
tree's; the run and sampler records hold that tree's times under "src_s"
and "src_us_per_row".

Usage:  python scripts/bench_traces.py [--repeat 5] [--parent SRC]
                                       [--out BENCH_traces.json]
"""

import argparse
import hashlib
import os
import sys
import tempfile
from unittest import mock

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "tests")]

from bench_critical import ROOT, best, in_tree, tree_id, write_record  # noqa: E402
from run import WORKLOADS, write_config                        # noqa: E402
from test_trace_oracle import ALL_FIELDS, lean_backward_calibrated_curve, rest_step  # noqa: E402
from torushj import experiments                                # noqa: E402
from torushj.curves import BLOCK_CAP, backward_calibrated_curve  # noqa: E402
from torushj.solver import Transition                          # noqa: E402

SAMPLER_ROWS = (1, 64, 256)     # the block sizes at which the sampler is timed
SUITE = os.path.join(ROOT, "configs", "occupation_suite.cfg")
# the fields of a trace that every tree has, cut after the rest step
PER_POINT, PER_STEP = ("points", "weights"), ("velocities", "vel_indices", "defects",
                                               "actions", "dl0")
SCALARS = ("lam", "dt", "on_lattice", "defect_tol")


def recorded_traces(config):
    """Run a pipeline once; the (args, kwargs) of the first trace it asks
    for at each (lam, dt)."""
    calls = {}

    def recording(*args, **kwargs):
        calls.setdefault((args[1], kwargs["arcs"].dt), (args, kwargs))
        return backward_calibrated_curve(*args, **kwargs)

    with (mock.patch.object(experiments, "backward_calibrated_curve", recording),
          tempfile.TemporaryDirectory() as out):
        result = experiments.run_experiment(config, output=out)
    if not result.passed:
        raise SystemExit(f"{config}: the pipeline failed its verdict")
    return calls


def count_blocks(args, kwargs):
    """Blocks of one trace: calls of the foot stencil the block loop makes."""
    sampler, calls = Transition.foot_sampler, [0]

    def counting(self, values, snap=False):
        feet_at = sampler(self, values, snap)

        def counted(Y):
            calls[0] += 1
            return feet_at(Y)
        return counted

    with mock.patch.object(Transition, "foot_sampler", counting):
        backward_calibrated_curve(*args, **kwargs)
    return calls[0]


def workload_config(tmp):
    path = os.path.join(tmp, "occupation.cfg")
    write_config(WORKLOADS["occupation"](1), path)
    return path


def cases():
    with tempfile.TemporaryDirectory() as tmp:
        workload = recorded_traces(workload_config(tmp))
    suite = recorded_traces(SUITE)
    return ([(f"occupation lam={lam:g} dt={dt:g}", call)
             for (lam, dt), call in workload.items()]
            + [("occupation_suite lam=0.05 dt=0.001", suite[(0.05, 0.001)])])


def digest(trace):
    """sha256 of the fields of the trace cut after its first rest step, to
    compare traces across trees, whether or not a tree traces past it."""
    r = rest_step(trace.points)
    steps = trace.steps if r is None else r + 1
    h = hashlib.sha256()
    for f in PER_POINT + PER_STEP + SCALARS:
        a = np.asarray(getattr(trace, f))
        h.update((a[:steps + 1] if f in PER_POINT else a[:steps] if f in PER_STEP
                  else a).tobytes())
    return h.hexdigest()


def block_loop_row(args, kwargs, repeat):
    """The block loop on one trace: its row of steps, blocks, rest step,
    best time and digest, and the trace."""
    block_s, trace = best(lambda: backward_calibrated_curve(*args, **kwargs), repeat)
    return {"steps": trace.steps, "rest_step": rest_step(trace.points),
            "blocks": count_blocks(args, kwargs), "block_s": block_s,
            "block_us_per_step": 1e6 * block_s / trace.steps, "digest": digest(trace)}, trace


def sampler_us_per_row(args, kwargs, repeat):
    """The foot sampler of one trace's kernel and field, apart from the block
    loop: the best of `repeat` timings of enough calls on S random points,
    in microseconds per row, for each S of SAMPLER_ROWS."""
    u = args[2]
    feet_at = kwargs["arcs"].foot_sampler(u.values)
    rng = np.random.default_rng(0)
    times = {}
    for S in SAMPLER_ROWS:
        Y, calls = rng.random((S, u.grid.d)), max(10, 5120 // S)
        s, _ = best(lambda: [feet_at(Y) for _ in range(calls)], repeat)
        times[str(S)] = 1e6 * s / (calls * S)
    return times


def runs_s(repeat):
    """Best of `repeat` timings of `run_experiment` on the workload's config
    and on the bundled one, each given by its path."""
    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in (("occupation", workload_config(tmp)), ("occupation_suite", SUITE)):
            out = os.path.join(tmp, name)
            times[name], _ = best(lambda: experiments.run_experiment(config, output=out), repeat)
    return times


def tree_record(repeat):
    """block_loop_row of each case, the run times and the sampler times, in
    the tree this process imported torushj from; what --parent reads from
    its child."""
    traces = cases()
    return {"traces": [block_loop_row(a, kw, repeat)[0] for _, (a, kw) in traces],
            "runs_s": runs_s(repeat), "sampler": sampler_us_per_row(*traces[0][1], repeat)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--parent", help="src/ directory of a second checkout whose block "
                    "loop and runs to time in a child process")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_traces.json"))
    args = ap.parse_args()

    parent = (in_tree(args.parent, "bench_traces", "tree_record", args.repeat)
              if args.parent else {})
    others = parent.get("traces")
    rows, traces = [], cases()
    print(f"{'trace':<36s} {'steps':>7s} {'rest':>6s} {'blocks':>6s} {'block_s':>8s} "
          f"{'us/step':>7s} {'lean_s':>8s} {'us/step':>7s} {'same':>5s}"
          + (f" {'src_steps':>9s} {'src_s':>8s} {'same':>5s}" if others else ""))
    for i, (name, (targs, tkw)) in enumerate(traces):
        row, new = block_loop_row(targs, tkw, args.repeat)
        # the lean loop over the same steps, the rest step the last
        lean_kw = dict(tkw, Tmax=(new.steps + 0.5) * new.dt)
        lean_s, ref = best(lambda: lean_backward_calibrated_curve(*targs, **lean_kw),
                           args.repeat)
        same = all(np.array_equal(getattr(new, f), getattr(ref, f))
                   for f in ALL_FIELDS if f != "rests")
        row = {"trace": name, "lam": new.lam, "dt": new.dt, **row,
               "lean_s": lean_s, "lean_us_per_step": 1e6 * lean_s / new.steps,
               "bit_identical": same}
        line = (f"{name:<36s} {new.steps:7d} {str(row['rest_step']):>6s} {row['blocks']:6d} "
                f"{row['block_s']:8.4f} {row['block_us_per_step']:7.2f} {lean_s:8.4f} "
                f"{row['lean_us_per_step']:7.2f} {str(same):>5s}")
        if others:
            row["src"] = dict(others[i], same_trace=others[i]["digest"] == row["digest"])
            line += (f" {row['src']['steps']:9d} {row['src']['block_s']:8.4f} "
                     f"{str(row['src']['same_trace']):>5s}")
        rows.append(row)
        print(line)
    runs = {name: {"s": s, "src_s": parent.get("runs_s", {}).get(name)}
            for name, s in runs_s(args.repeat).items()}
    for name, r in runs.items():
        print(f"run_experiment {name}: {r['s']:.4f} s"
              + ("" if r["src_s"] is None else f"; src: {r['src_s']:.4f} s"))
    name, (targs, tkw) = traces[0]
    src_sampler = parent.get("sampler")
    sampler = {"trace": name, "K": tkw["arcs"].vset.count,
               "us_per_row": sampler_us_per_row(targs, tkw, args.repeat),
               "src_us_per_row": src_sampler}
    print(f"foot sampler, {name}, K = {sampler['K']}, us per row at S = "
          + ", ".join(f"{S}: {t:.3f}" for S, t in sampler["us_per_row"].items())
          + ("" if src_sampler is None else "; src: " + ", ".join(
              f"{S}: {t:.3f}" for S, t in src_sampler.items())))
    write_record(args.out, repeat=args.repeat, block_cap=BLOCK_CAP,
                 src_tree=tree_id(args.parent) if args.parent else None,
                 traces=rows, runs=runs, sampler=sampler)
    return 0 if all(r["bit_identical"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
