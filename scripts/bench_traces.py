#!/usr/bin/env python3
"""Time backward traces: the speculative block loop of
`curves.backward_calibrated_curve` against the lean per-step loop it
replaced (`lean_backward_calibrated_curve` in tests/test_trace_oracle.py).

Cases: the five traces of the `occupation` benchmark workload (seed 1;
three sweep traces at lam = 12.8, 6.4, 3.2 and the mass-identity pair at
lam = 6.4, dt and dt/2) and the mass-identity trace of the bundled
configs/occupation_suite.cfg (lam = 0.05, 280,000 steps).  Their inputs are
recorded by running each pipeline once.  Per trace it reports the steps,
the number of blocks (numpy passes), the best of --repeat timings of each
loop with its microseconds per step, and whether every CurveTrace field is
bit for bit the same, and writes all of it with the machine facts to
BENCH_traces.json.

Usage:  python scripts/bench_traces.py [--repeat 5] [--out BENCH_traces.json]
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                os.path.join(ROOT, "bench")]

from bench_critical import best, machine                       # noqa: E402
from run import WORKLOADS, write_config                        # noqa: E402
from test_trace_oracle import ALL_FIELDS, lean_backward_calibrated_curve  # noqa: E402
from torushj import experiments                                # noqa: E402
from torushj.curves import BLOCK_CAP, backward_calibrated_curve  # noqa: E402
from torushj.solver import Transition                          # noqa: E402


def recorded_traces(config):
    """Run a pipeline once; the (args, kwargs) of each trace it asks for."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return backward_calibrated_curve(*args, **kwargs)

    experiments.backward_calibrated_curve = recording
    try:
        with tempfile.TemporaryDirectory() as out:
            result = experiments.run_experiment(config, output=out)
    finally:
        experiments.backward_calibrated_curve = backward_calibrated_curve
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

    Transition.foot_sampler = counting
    try:
        backward_calibrated_curve(*args, **kwargs)
    finally:
        Transition.foot_sampler = sampler
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


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_traces.json"))
    args = ap.parse_args()

    rows = []
    print(f"{'trace':<32s} {'steps':>7s} {'blocks':>6s} {'block_s':>8s} {'us/step':>7s} "
          f"{'lean_s':>8s} {'us/step':>7s} {'same':>5s}")
    for name, (targs, tkw) in cases():
        block_s, new = best(lambda: backward_calibrated_curve(*targs, **tkw), args.repeat)
        lean_s, ref = best(lambda: lean_backward_calibrated_curve(*targs, **tkw), args.repeat)
        same = all(np.array_equal(getattr(new, f), getattr(ref, f)) for f in ALL_FIELDS)
        row = {"trace": name, "lam": new.lam, "dt": new.dt, "steps": new.steps,
               "blocks": count_blocks(targs, tkw), "block_s": block_s,
               "block_us_per_step": 1e6 * block_s / new.steps, "lean_s": lean_s,
               "lean_us_per_step": 1e6 * lean_s / new.steps, "bit_identical": same}
        rows.append(row)
        print(f"{name:<32s} {new.steps:7d} {row['blocks']:6d} {block_s:8.4f} "
              f"{row['block_us_per_step']:7.2f} {lean_s:8.4f} {row['lean_us_per_step']:7.2f} "
              f"{str(same):>5s}")
    with open(args.out, "w") as f:
        json.dump({"machine": machine(), "repeat": args.repeat, "block_cap": BLOCK_CAP,
                   "traces": rows}, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0 if all(r["bit_identical"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
