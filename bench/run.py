"""torushj benchmark: time to a passing verdict on layer-dominated workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run of the workload is a fresh
child process (`child.py`) that imports `torushj` from `src/`, parses the
config this script generated from the seed, and calls `run_experiment` with
its default single worker.  Children run one at a time (a closed loop with
one client) with BLAS/OpenMP pinned to one thread.  After one untimed
warm-up child, the S measured seconds hold five set-up-only children (for
setup_s; skipped with --trace 1) and then full runs, each started only if
the median run so far still fits.  See WORKLOADS.md for the workloads.

Every run must pass its verdict, and its artifact hashes must equal those of
the first run of the invocation (and the files on disk must hash to what the
manifest says).  A run that breaks either rule counts as failed.

--trace 0 prints the end-to-end metrics:
    wall_s       run_experiment call to a verified verdict, fastest run
    setup_s      child start until torushj is imported and the config parsed,
                 median over the set-ups
    peak_rss_mb  the child's ru_maxrss, median over the runs
wall_s is the fastest run, not the median: the host's other tenants slow
whole stretches of minutes by up to 60 %, which moves a median from one
invocation to the next, while contention can only add time to a run.
--trace 1 runs cycles of traced, untraced and traced children and prints
the per-layer metrics of the traced ones (see tracer.py), plus
trace.overhead_frac.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.  Lines
before it record the machine (`machine:`), every sample (`samples:`) and the
metrics as a table.  Exits 2 without a result when the checkout holds no
torushj sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

from tracer import EXACT_COUNTS, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 170          # the whole invocation, set-up children included
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


# ---------------------------------------------------------------------------
# workloads: config sections generated from the seed
# ---------------------------------------------------------------------------

def _grid(n):
    return {"grid": {"d": 1, "n": n}, "velocities": {"vmax": 3.0, "m": 49}}


def rotation_sweep(seed):
    return {
        "experiment": {"kind": "example_6_1", "name": "rotation_sweep"},
        "model": {"name": "shifted_quadratic", "alpha": 0.6180339887498949,
                  "target": "sin:freq=1,offset=0.3"},
        **_grid(32),
        "solver": {"tol": 1e-8, "max_iter": 400000},
        "schedule": {"lambdas": "0.1, 0.03, 0.01"},
        "barrier": {"tmax": 24.0},
        "thresholds": {"final_sup_error": 0.05, "monotone_factor": 2.0},
    }


def occupation(seed):
    return {
        "experiment": {"kind": "occupation_suite", "name": "occupation"},
        "model": {"name": "mechanical", "U": "cos:amp=1,freq=1"},
        **_grid(64),
        "solver": {"dt": 1e-3, "tol": 1e-8, "max_iter": 200000},
        "schedule": {"lambdas": "12.8, 6.4, 3.2"},
        "barrier": {"tmax": 24.0},
        "thresholds": {"mass_identity_rel": 0.05, "tv_factor": 2.0},
        "extras": {"mass_identity_lambda": 6.4, "start_node": 42},
    }


def barrier(seed):
    return {
        "experiment": {"kind": "barrier_suite", "name": "barrier", "seed": seed},
        "model": {"name": "mechanical", "U": "cos:amp=1,freq=1"},
        **_grid(128),
        "barrier": {"tmax": 24.0},
        "thresholds": {"critical_tol_mechanical": 0.05, "critical_tol_shifted": 0.02,
                       "tol_tri": 5e-3, "column_residual_C": 25.0},
        "extras": {"m_critical": 33, "alpha": 0.6180339887498949},
    }


WORKLOADS = {f.__name__: f for f in (rotation_sweep, occupation, barrier)}


def write_config(sections: dict, path: str) -> None:
    with open(path, "w") as f:
        for name, items in sections.items():
            f.write(f"[{name}]\n")
            for key, value in items.items():
                f.write(f"{key} = {value}\n")
            f.write("\n")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    env.pop("TORUSHJ_OUTPUT_ROOT", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(config: str, outdir: str, trace: int, setup_only: bool = False,
              timeout: float = DEADLINE_S) -> dict:
    """Run one child; returns its record plus `setup_s`, or {"error": ...}."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
           "--config", config, "--out", outdir, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"child killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - spawned
    return record


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def verify(record: dict, outdir: str, reference: dict | None) -> str | None:
    """Why the run failed, or None: verdict, files vs manifest, determinism."""
    if "error" in record:
        return record["error"]
    if not record["passed"]:
        return f"verdict failed at stage {record['failing_stage']}"
    hashes = record["hashes"]
    for rel, digest in hashes.items():
        path = os.path.join(outdir, rel)
        if not os.path.isfile(path) or _sha256(path) != digest:
            return f"artifact {rel} does not match its manifest hash"
    if reference is not None and hashes != reference:
        differing = sorted(k for k in set(hashes) | set(reference)
                           if hashes.get(k) != reference.get(k))
        return f"artifact hashes differ from the first run: {differing[:5]}"
    return None


def artifact_bytes(outdir: str, hashes: dict) -> int:
    return sum(os.path.getsize(os.path.join(outdir, rel)) for rel in hashes)


def machine_facts(seed: int, versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "torushj": versions.get("torushj"),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "torushj", "experiments.py")):
        print(f"no torushj sources under {SRC}", file=sys.stderr)
        return 2

    base = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    try:
        return measure(args, base, time.monotonic() + DEADLINE_S)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(OUT)
        except OSError:
            pass


def measure(args, base: str, deadline: float) -> int:
    config = os.path.join(base, f"{args.workload}.cfg")
    write_config(WORKLOADS[args.workload](args.seed), config)

    # One untimed warm-up child fills the OS file cache and torushj's
    # bytecode cache; then a few set-up-only children sample setup_s.
    setups = []
    start = None
    for _ in range(1 + (0 if args.trace else SETUP_SAMPLES)):
        record = run_child(config, base, 0, setup_only=True,
                           timeout=deadline - time.monotonic())
        if "error" in record:
            print(f"set-up child failed: {record['error']}", file=sys.stderr)
            return 1
        if start is None:
            start = time.monotonic()
        else:
            setups.append(record["setup_s"])

    # Untraced runs; with --trace 1, cycles of traced, untraced, traced, so
    # that even one cycle compares two traced runs' counts.
    cycle = (1, 0, 1) if args.trace else (0,)
    runs = {0: [], 1: []}
    failures = []
    reference = None
    durations = []
    index = 0
    while True:
        now = time.monotonic()
        if durations and (now - start + median(durations) > args.seconds
                          or now + max(durations) > deadline):
            break
        began = time.monotonic()
        for traced in cycle:
            outdir = os.path.join(base, f"run{index}")
            index += 1
            record = run_child(config, outdir, traced,
                               timeout=deadline - time.monotonic())
            why = verify(record, outdir, reference)
            if why is None:
                if reference is None:
                    reference = record["hashes"]
                if traced:
                    record["files"] = len(record["hashes"])
                    record["bytes"] = artifact_bytes(outdir, record["hashes"])
                runs[traced].append(record)
            else:
                failures.append(why)
                print(f"run {index - 1} failed: {why}", file=sys.stderr)
            shutil.rmtree(outdir, ignore_errors=True)
        durations.append(time.monotonic() - began)

    attempted = index
    ok = runs[0] + runs[1]
    if not runs[0] or (args.trace and not runs[1]):
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": len(failures), "metrics": {}}))
        return 1

    print("machine: " + json.dumps(machine_facts(args.seed, ok[0]["versions"]), sort_keys=True))
    samples = {"wall_s": [r["wall_s"] for r in runs[0]],
               "setup_s": setups + [r["setup_s"] for r in ok]}
    if args.trace:
        values, units = per_layer(runs[0], runs[1])
    else:
        values = {
            "wall_s": min(r["wall_s"] for r in runs[0]),
            "setup_s": median(samples["setup_s"]),
            "peak_rss_mb": median([r["rss_mb"] for r in runs[0]]),
        }
        units = END_TO_END_UNITS
    if args.trace:
        samples["trace.wall_s"] = [r["wall_s"] for r in runs[1]]
    print("samples: " + json.dumps(samples))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


PER_LAYER_UNITS = {
    "solver.solve_s": "s", "solver.sweeps": "count", "solver.us_per_sweep": "us",
    "solver.unconverged": "count",
    "matherlp.lp_count": "count", "matherlp.lp_s": "s", "matherlp.ms_per_lp": "ms",
    "matherlp.lp_vars": "count",
    "selection.applications": "count", "selection.nodes": "count",
    "selection.self_s": "s", "selection.ms_per_node": "ms",
    "barrier.peierls_s": "s", "barrier.longtime_s": "s", "barrier.dp_steps": "count",
    "barrier.warnings": "count",
    "curves.trace_steps": "count", "curves.trace_s": "s", "curves.us_per_step": "us",
    "curves.occupation_s": "s",
    "artifacts.export_s": "s", "artifacts.hash_s": "s", "artifacts.files": "count",
    "artifacts.bytes": "B",
    "solver.wall_frac": "ratio", "barrier.wall_frac": "ratio", "matherlp.wall_frac": "ratio",
    "selection.wall_frac": "ratio", "curves.wall_frac": "ratio",
    "artifacts.wall_frac": "ratio",
    "trace.wall_s": "s", "trace.overhead_frac": "ratio", "trace.missing": "count",
    "trace.count_mismatches": "count",
}


def per_layer(untraced: list, traced: list):
    """Medians of the traced runs' layer figures; counts from the first."""
    per_run = [layer_metrics(r["spans"], r["counts"], r["wall_s"]) for r in traced]
    values = {k: per_run[0][k] if PER_LAYER_UNITS[k] == "count"
              else median([m[k] for m in per_run]) for k in per_run[0]}
    first = traced[0]
    mismatched = [k for k in EXACT_COUNTS
                  if any(r["counts"].get(k, 0) != first["counts"].get(k, 0) for r in traced)]
    for k in mismatched:
        print(f"nondeterministic count {k}: "
              f"{[r['counts'].get(k, 0) for r in traced]}", file=sys.stderr)
    if first["missing"]:
        print(f"missing from torushj: {first['missing']}", file=sys.stderr)
    traced_wall = median([r["wall_s"] for r in traced])
    values.update({
        "artifacts.files": first["files"],
        "artifacts.bytes": first["bytes"],
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / median([r["wall_s"] for r in untraced]) - 1.0,
        "trace.missing": len(first["missing"]),
        "trace.count_mismatches": len(mismatched),
    })
    return values, PER_LAYER_UNITS


if __name__ == "__main__":
    sys.exit(main())
