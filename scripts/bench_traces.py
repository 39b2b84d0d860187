#!/usr/bin/env python3
"""Time backward traces: the speculative block loop of
`curves.backward_calibrated_curve` against the lean per-step loop it
replaced (`lean_backward_calibrated_curve` in tests/test_trace_oracle.py).

Cases: the five traces of the `occupation` benchmark workload (seed 1;
three sweep traces at lam = 12.8, 6.4, 3.2 and the mass-identity pair at
lam = 6.4, dt and dt/2) and the mass-identity trace of the bundled
configs/occupation_suite.cfg (lam = 0.05, 280,000 steps).  Their inputs are
recorded by running each pipeline once.  Per trace it reports the steps,
the rest step (the first step back at its own point, after which the block
loop fills the trace instead of checking it; null for a trace that never
rests), the number of blocks (numpy passes), the best of --repeat timings of
each loop with its microseconds per step, and whether every CurveTrace field
is bit for bit the same, and writes all of it with the machine facts to
BENCH_traces.json.  Apart from the block schedule, it times the foot
sampler alone (`Transition.foot_sampler` on the first trace's kernel and
field, K = 49): microseconds per row at S = 1, 64 and 256 random points.

With --parent SRC, the `src/` directory of a second checkout (say, the
parent commit's), a child process imports torushj from SRC
(`bench_critical.in_tree`), records the same six traces with that tree's
pipelines and times that tree's block loop and sampler.  Each trace row
then holds, under "src", that tree's blocks, rest step and times, and
whether its trace is bit for bit this tree's; the sampler record holds that
tree's times under "src_us_per_row".

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


def recorded_traces(config):
    """Run a pipeline once; the (args, kwargs) of each trace it asks for."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
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


def cases():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "occupation.cfg")
        write_config(WORKLOADS["occupation"](1), cfg)
        workload = recorded_traces(cfg)
    names = [f"occupation sweep lam={a[1]:g}" for a, _ in workload[:3]]
    names += ["occupation mass identity dt", "occupation mass identity dt/2"]
    suite = recorded_traces(os.path.join(ROOT, "configs", "occupation_suite.cfg"))
    return list(zip(names, workload)) + [("occupation_suite mass identity", suite[3])]


def digest(trace):
    """sha256 of every CurveTrace field, to compare traces across trees."""
    h = hashlib.sha256()
    for f in ALL_FIELDS:
        h.update(np.asarray(getattr(trace, f)).tobytes())
    return h.hexdigest()


def block_loop_row(args, kwargs, repeat):
    """The block loop on one trace: its row of blocks, rest step, best time
    and digest, and the trace."""
    block_s, trace = best(lambda: backward_calibrated_curve(*args, **kwargs), repeat)
    return {"rest_step": rest_step(trace), "blocks": count_blocks(args, kwargs),
            "block_s": block_s, "block_us_per_step": 1e6 * block_s / trace.steps,
            "digest": digest(trace)}, trace


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


def tree_record(repeat):
    """block_loop_row of each case and the sampler times, in the tree this
    process imported torushj from; what --parent reads from its child."""
    traces = cases()
    return {"traces": [block_loop_row(a, kw, repeat)[0] for _, (a, kw) in traces],
            "sampler": sampler_us_per_row(*traces[0][1], repeat)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--parent", help="src/ directory of a second checkout whose block "
                    "loop to time in a child process")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_traces.json"))
    args = ap.parse_args()

    parent = (in_tree(args.parent, "bench_traces", "tree_record", args.repeat)
              if args.parent else {})
    others, src_sampler = parent.get("traces"), parent.get("sampler")
    rows, traces = [], cases()
    print(f"{'trace':<32s} {'steps':>7s} {'rest':>6s} {'blocks':>6s} {'block_s':>8s} "
          f"{'us/step':>7s} {'lean_s':>8s} {'us/step':>7s} {'same':>5s}"
          + (f" {'src_blocks':>10s} {'src_s':>8s} {'same':>5s}" if others else ""))
    for i, (name, (targs, tkw)) in enumerate(traces):
        row, new = block_loop_row(targs, tkw, args.repeat)
        lean_s, ref = best(lambda: lean_backward_calibrated_curve(*targs, **tkw), args.repeat)
        same = all(np.array_equal(getattr(new, f), getattr(ref, f)) for f in ALL_FIELDS)
        row = {"trace": name, "lam": new.lam, "dt": new.dt, "steps": new.steps, **row,
               "lean_s": lean_s, "lean_us_per_step": 1e6 * lean_s / new.steps,
               "bit_identical": same}
        line = (f"{name:<32s} {new.steps:7d} {str(row['rest_step']):>6s} {row['blocks']:6d} "
                f"{row['block_s']:8.4f} {row['block_us_per_step']:7.2f} {lean_s:8.4f} "
                f"{row['lean_us_per_step']:7.2f} {str(same):>5s}")
        if others:
            row["src"] = dict(others[i], same_trace=others[i]["digest"] == row["digest"])
            line += (f" {row['src']['blocks']:10d} {row['src']['block_s']:8.4f} "
                     f"{str(row['src']['same_trace']):>5s}")
        rows.append(row)
        print(line)
    name, (targs, tkw) = traces[0]
    sampler = {"trace": name, "K": tkw["arcs"].vset.count,
               "us_per_row": sampler_us_per_row(targs, tkw, args.repeat),
               "src_us_per_row": src_sampler}
    print(f"foot sampler, {name}, K = {sampler['K']}, us per row at S = "
          + ", ".join(f"{S}: {t:.3f}" for S, t in sampler["us_per_row"].items())
          + ("" if src_sampler is None else "; src: " + ", ".join(
              f"{S}: {t:.3f}" for S, t in src_sampler.items())))
    write_record(args.out, repeat=args.repeat, block_cap=BLOCK_CAP,
                 src_tree=tree_id(args.parent) if args.parent else None,
                 traces=rows, sampler=sampler)
    return 0 if all(r["bit_identical"] and r.get("src", {}).get("same_trace", True)
                    for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
