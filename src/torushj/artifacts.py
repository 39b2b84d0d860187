"""Deterministic artifact writers: CSV, binary barrier matrices, manifests.

Identical inputs must produce byte-identical files; everything volatile
(wall-clock timings) goes to a separate timings file that artifact diffs
ignore.  Floats are rendered with 17 significant digits so round-trips are
exact.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Iterable

import numpy as np

from .barrier import BarrierMatrix
from .errors import DomainError
from .grids import GridField, PeriodicGrid
from .matherlp import DiscreteMeasure

__all__ = [
    "fmt17",
    "write_field_csv",
    "read_field_csv",
    "write_barrier_binary",
    "read_barrier_binary",
    "write_barrier_csv",
    "write_measure_csv",
    "write_node_csv",
    "write_trace_csv",
    "write_convergence_csv",
    "write_manifest",
    "sha256_file",
    "hash_directory",
    "diff_artifacts",
    "TIMINGS_FILE",
]

TIMINGS_FILE = "timings.json"
_BARRIER_MAGIC = b"PBAR"
_PEIERLS_T = -1.0


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def write_field_csv(field: GridField, path: str) -> None:
    g = field.grid
    coords = g.node_coords()
    with open(path, "w", newline="\n") as f:
        f.write(f"# {g.d},{g.n}\n")
        for i in range(g.size):
            cs = ",".join(fmt17(c) for c in coords[i])
            f.write(f"{i},{cs},{fmt17(field.values[i])}\n")


def read_field_csv(path: str) -> GridField:
    with open(path) as f:
        header = f.readline().strip()
        if not header.startswith("# "):
            raise DomainError(f"{path}: missing grid header")
        d, n = (int(tok) for tok in header[2:].split(","))
        vals = np.empty(n**d)
        for line in f:
            parts = line.strip().split(",")
            vals[int(parts[0])] = float(parts[-1])
    return GridField(PeriodicGrid(d, n), vals)


def write_barrier_binary(bm: BarrierMatrix, path: str) -> None:
    """16-byte header (magic, d, n, t = -1) then row-major float64 values."""
    with open(path, "wb") as f:
        f.write(_BARRIER_MAGIC)
        f.write(struct.pack("<IIf", bm.grid.d, bm.grid.n, _PEIERLS_T))
        f.write(np.ascontiguousarray(bm.values, dtype="<f8").tobytes())


def read_barrier_binary(path: str) -> BarrierMatrix:
    """A barrier without its Aubry set; a header t other than -1 is refused."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _BARRIER_MAGIC:
            raise DomainError(f"{path}: bad magic {magic!r}")
        d, n, t = struct.unpack("<IIf", f.read(12))
        if t != _PEIERLS_T:
            raise DomainError(f"{path}: header t = {t:g} marks no Peierls barrier")
        grid = PeriodicGrid(int(d), int(n))
        vals = np.frombuffer(f.read(), dtype="<f8").reshape(grid.size, grid.size)
    return BarrierMatrix(grid, vals.copy())


def write_barrier_csv(bm: BarrierMatrix, path: str) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(f"# {bm.grid.d},{bm.grid.n},peierls\n")
        N = bm.grid.size
        for i in range(N):
            f.write(",".join(fmt17(v) for v in bm.values[i]) + "\n")


def write_measure_csv(mu: DiscreteMeasure, path: str) -> None:
    with open(path, "w", newline="\n") as f:
        f.write("# node,velocity,weight\n")
        W = mu.weights
        for i in range(W.shape[0]):
            for k in range(W.shape[1]):
                if W[i, k] > 0.0:
                    f.write(f"{i},{k},{fmt17(W[i, k])}\n")


def write_node_csv(values, path: str, column: str = "weight") -> None:
    """One value per node, e.g. a projected measure or per-node operator values."""
    with open(path, "w", newline="\n") as f:
        f.write(f"# node,{column}\n")
        for i, v in enumerate(values):
            f.write(f"{i},{fmt17(v)}\n")


def write_trace_csv(trace, path: str) -> None:
    """One row per step: k, time -k*dt, point k, velocity k, weight k and
    defect k, each number formatted like `fmt17`.  The trailing rows whose
    point, velocity and defect are bit for bit the last row's (a trace at
    rest) format those fields once."""
    S, d = trace.steps, trace.points.shape[1]
    xs = ";".join(["{:.17g}"] * d)
    row = f"{{}},{{:.17g}},{xs},{xs},{{:.17g}},{{:.17g}}\n"
    fixed = np.column_stack((trace.points[:S], trace.velocities, trace.defects))
    bits = fixed.view(np.int64)
    moved = np.flatnonzero((bits != bits[-1:]).any(axis=1))
    t = int(moved[-1]) + 1 if moved.size else 0     # the first row of the resting tail
    times = (-np.arange(S) * float(trace.dt)).tolist()
    cols = [range(t), times[:t], *trace.points[:t].T.tolist(),
            *trace.velocities[:t].T.tolist(), trace.weights[:t].tolist(),
            trace.defects[:t].tolist()]
    with open(path, "w", newline="\n") as f:
        f.write("# step,time,coords,velocity,weight,defect\n")
        f.write("".join(map(row.format, *cols)))
        if t < S:
            last = fixed[-1].tolist()
            p, v = xs.format(*last[:d]), xs.format(*last[d:-1])
            rest = f"{{}},{{:.17g}},{p},{v},{{:.17g}},{last[-1]:.17g}\n"
            f.write("".join(map(rest.format, range(t, S), times[t:],
                                trace.weights[t:S].tolist())))


def write_convergence_csv(rows: Iterable, path: str) -> None:
    """Rows of (lambda, sup_error, iterations, residual)."""
    with open(path, "w", newline="\n") as f:
        f.write("# lambda,sup_error,iterations,residual\n")
        for lam, err, iters, resid in rows:
            f.write(f"{fmt17(lam)},{fmt17(err)},{iters},{fmt17(resid)}\n")


def write_manifest(manifest: dict, path: str) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_directory(dirpath: str, ignore=(TIMINGS_FILE,)) -> dict:
    out = {}
    for root, _dirs, files in os.walk(dirpath):
        for name in sorted(files):
            if name in ignore:
                continue
            full = os.path.join(root, name)
            rel = os.path.relpath(full, dirpath)
            out[rel] = sha256_file(full)
    return out


def diff_artifacts(dir_a: str, dir_b: str) -> list:
    """Compare artifact directories by SHA-256, ignoring the timings file.

    Returns a list of (relative path, status) with status in
    {"only_a", "only_b", "differs"}; empty means identical.
    """
    ha, hb = hash_directory(dir_a), hash_directory(dir_b)
    out = []
    for rel in sorted(set(ha) | set(hb)):
        if rel not in hb:
            out.append((rel, "only_a"))
        elif rel not in ha:
            out.append((rel, "only_b"))
        elif ha[rel] != hb[rel]:
            out.append((rel, "differs"))
    return out
