"""One benchmark run of torushj in a fresh process.

    python3 child.py --src SRC --config CFG --out DIR [--trace 0|1] [--setup-only]

Imports `torushj` from SRC (and nowhere else), parses and validates CFG,
then calls `run_experiment` with the default single worker and writes the
artifacts to DIR.  The last stdout line is one JSON record:

    ready      time.monotonic() when import, parse and validation finished
    wall_s     run_experiment call until the verdict was read back
    passed     verdict of the run (result and manifest on disk agree)
    hashes     the manifest's artifact hashes
    rss_mb     ru_maxrss of this process in MiB
    spans, counts, missing   only with --trace 1 (see tracer.py)
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import torushj.experiments as experiments

    if not os.path.abspath(experiments.__file__).startswith(src + os.sep):
        print(f"torushj imported from {experiments.__file__}, not from {src}", file=sys.stderr)
        return 3
    cfg = experiments.parse_config(args.config)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer   # this file's directory is sys.path[0]
        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    result = experiments.run_experiment(cfg, output=args.out)
    with open(os.path.join(result.outdir, "manifest.json")) as f:
        on_disk = json.load(f)
    passed = bool(result.passed and on_disk["passed"] is True
                  and on_disk["hashes"] == result.manifest["hashes"])
    wall = time.perf_counter() - t0

    record = {
        "ready": ready,
        "wall_s": wall,
        "passed": passed,
        "failing_stage": on_disk["failing_stage"],
        "hashes": on_disk["hashes"],
        "versions": on_disk["versions"],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        record.update(spans=tracer.spans, counts=dict(tracer.counts), missing=tracer.missing)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
