"""Deterministic artifact writers: CSV, binary barrier matrices, manifests.

Identical inputs must produce byte-identical files; everything volatile
(wall-clock timings) goes to a separate timings file that artifact diffs
ignore.  Every CSV goes through one row writer, `_write_rows`: a header, then
blocks of rows, one template per block formatted over columns and joined
once.  Every float is the one format `_FLOAT`, 17 significant digits, so
round-trips are exact.  The readers refuse a truncated file.
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
    "write_field_csv",
    "read_field_csv",
    "write_barrier_binary",
    "read_barrier_binary",
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
_FLOAT = "{:.17g}"      # the one float format: 17 significant digits round-trip a float64


def _write_rows(path: str, header: str, *blocks) -> None:
    """The one row writer: `header`, then for each block (row, columns) the
    rows row.format(c0[i], c1[i], ...), joined once per block."""
    with open(path, "w", newline="\n") as f:
        f.write(header)
        for row, columns in blocks:
            f.write("".join(map(row.format, *columns)))


def write_field_csv(field: GridField, path: str) -> None:
    g = field.grid
    _write_rows(path, f"# {g.d},{g.n}\n",
                ("{}," + ",".join([_FLOAT] * (g.d + 1)) + "\n",
                 [range(g.size), *g.node_coords().T.tolist(), field.values.tolist()]))


def read_field_csv(path: str) -> GridField:
    """A file that does not list each node once is refused."""
    with open(path) as f:
        header, rows = f.readline(), [line.split(",") for line in f]
    if not header.startswith("# "):
        raise DomainError(f"{path}: missing grid header")
    try:
        d, n = (int(tok) for tok in header[2:].split(","))
        idx, vals = [int(r[0]) for r in rows], [float(r[-1]) for r in rows]
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}") from None
    grid = PeriodicGrid(d, n)
    if len(idx) != grid.size or sorted(idx) != list(range(grid.size)):
        raise DomainError(f"{path}: {len(idx)} rows do not list the {grid.size} nodes once each")
    values = np.empty(grid.size)
    values[idx] = vals
    return GridField(grid, values)


def write_barrier_binary(bm: BarrierMatrix, path: str) -> None:
    """16-byte header (magic, d, n, t = -1) then row-major float64 values."""
    with open(path, "wb") as f:
        f.write(_BARRIER_MAGIC)
        f.write(struct.pack("<IIf", bm.grid.d, bm.grid.n, _PEIERLS_T))
        f.write(np.ascontiguousarray(bm.values, dtype="<f8").tobytes())


def read_barrier_binary(path: str) -> BarrierMatrix:
    """A barrier without its Aubry set; a header t other than -1, or a body
    of other than N^2 float64, is refused."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _BARRIER_MAGIC:
        raise DomainError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 16:
        raise DomainError(f"{path}: {len(raw)} bytes hold no 16-byte header")
    d, n, t = struct.unpack_from("<IIf", raw, 4)
    if t != _PEIERLS_T:
        raise DomainError(f"{path}: header t = {t:g} marks no Peierls barrier")
    grid = PeriodicGrid(int(d), int(n))
    if len(raw) != 16 + 8 * grid.size**2:
        raise DomainError(f"{path}: {len(raw) - 16} body bytes for {grid.size}^2 float64")
    vals = np.frombuffer(raw, dtype="<f8", offset=16).reshape(grid.size, grid.size)
    return BarrierMatrix(grid, vals.copy())


def write_measure_csv(mu: DiscreteMeasure, path: str) -> None:
    """The support only, node-major: rows node,velocity,weight with weight > 0."""
    i, k = np.nonzero(mu.weights > 0.0)
    _write_rows(path, "# node,velocity,weight\n",
                (f"{{}},{{}},{_FLOAT}\n",
                 [i.tolist(), k.tolist(), mu.weights[i, k].tolist()]))


def write_node_csv(values, path: str) -> None:
    """One weight per node, e.g. a projected measure."""
    vals = np.asarray(values, dtype=float).tolist()
    _write_rows(path, "# node,weight\n", (f"{{}},{_FLOAT}\n", [range(len(vals)), vals]))


def write_trace_csv(trace, path: str) -> None:
    """One row per step: k, time -k*dt, point, velocity, weight and defect k.
    A trace at rest from row t on (the trailing rows whose point, velocity
    and defect are bit for bit the last row's) stops after row t with the
    line `# rest,<r>,<q>`: the r = S-1-t steps after it repeat row t's point,
    velocity and defect at time -k*dt, each weight the one before times
    q = exp(lam * dl0[t] * dt), the factor of the weights' cumprod."""
    S, d = trace.steps, trace.points.shape[1]
    xs = ";".join([_FLOAT] * d)
    fixed = np.column_stack((trace.points[:S], trace.velocities, trace.defects))
    bits = fixed.view(np.int64)
    moved = np.flatnonzero((bits != bits[-1:]).any(axis=1))
    t = int(moved[-1]) + 1 if moved.size else 0     # the first row of the resting tail
    rows = min(t + 1, S)
    blocks = [(f"{{}},{_FLOAT},{xs},{xs},{_FLOAT},{_FLOAT}\n",
               [range(rows), (-np.arange(rows) * float(trace.dt)).tolist(),
                *trace.points[:rows].T.tolist(), *trace.velocities[:rows].T.tolist(),
                trace.weights[:rows].tolist(), trace.defects[:rows].tolist()])]
    if rows < S:
        q = np.exp(trace.lam * trace.dl0[t] * trace.dt)
        blocks.append((f"# rest,{S - rows},{_FLOAT}\n", [[float(q)]]))
    _write_rows(path, "# step,time,coords,velocity,weight,defect\n", *blocks)


def write_convergence_csv(rows: Iterable, path: str) -> None:
    """Rows of (lambda, sup_error, iterations, residual)."""
    _write_rows(path, "# lambda,sup_error,iterations,residual\n",
                (f"{_FLOAT},{_FLOAT},{{}},{_FLOAT}\n", list(zip(*rows)) or [()] * 4))


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


def hash_directory(dirpath: str, names=None) -> dict:
    """SHA-256 of each file in `names`, paths relative to dirpath; None
    names every file under dirpath but the timings file."""
    if names is None:
        names = [os.path.relpath(os.path.join(root, name), dirpath)
                 for root, _dirs, files in os.walk(dirpath) for name in files
                 if name != TIMINGS_FILE]
    return {rel: sha256_file(os.path.join(dirpath, rel)) for rel in sorted(names)}


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
