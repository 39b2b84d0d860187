#!/usr/bin/env python3
"""Run every bundled experiment config and print a pass/fail summary: per
config its verdict, wall time in milliseconds, and the number and bytes of
the artifact files its manifest hashes (every file but manifest.json and
timings.json).

Usage:  python scripts/run_all_experiments.py [--output-root DIR] [--strict]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from torushj.experiments import run_experiment  # noqa: E402

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
ORDER = [
    "nonexistence_3_4",
    "barrier_suite",
    "vanishing_discount",
    "example_6_1",
    "operator_suite",
    "occupation_suite",
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--output-root", default="runs")
    ap.add_argument("--strict", action="store_true")
    args = ap.parse_args()

    failures = 0
    for name in ORDER:
        cfg = os.path.join(CONFIG_DIR, f"{name}.cfg")
        t0 = time.perf_counter()
        result = run_experiment(cfg, output=os.path.join(args.output_root, name),
                                strict=args.strict)
        status = "PASS" if result.passed else "FAIL"
        files = result.manifest["hashes"]
        size = sum(os.path.getsize(os.path.join(result.outdir, rel)) for rel in files)
        ms = 1e3 * (time.perf_counter() - t0)
        print(f"[{status}] {name:<22s} {ms:8.1f} ms  {len(files):2d} files "
              f"{size:>10,d} B  -> {result.outdir}")
        for stage in result.stages:
            if not stage.ok:
                print(f"        failing stage: {stage.name} {stage.error or ''}")
        failures += not result.passed
    print(f"{len(ORDER) - failures}/{len(ORDER)} experiments passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
