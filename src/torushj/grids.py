"""Periodic grids on the flat torus T^d (d = 1 or 2) and multilinear interpolation.

Nodes are indexed lexicographically (row-major for d=2): node (i, j) on an
n x n lattice has flat index i*n + j and coordinates (i*h, j*h) with h = 1/n.
This ordering is part of the exported CSV contract and must not change.

Interpolation is periodic multilinear.  It reproduces node values exactly,
uses convex weights only (no overshoot), and is therefore 1-Lipschitz with
respect to the sup norm of node values -- the property monotone schemes rely
on downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "wrap_points",
    "wrap_unit",
    "PeriodicGrid",
    "GridField",
    "interpolate",
    "interpolation_stencil",
    "product_lattice",
]


def product_lattice(axis, d: int) -> np.ndarray:
    """The points of axis^d, shape (len(axis)**d, d), in lexicographic order
    (the last coordinate varies fastest)."""
    axis = np.asarray(axis)
    return axis[np.indices((axis.size,) * d).reshape(d, -1).T]


def wrap_unit(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x mod 1 of a finite float array, in [0, 1): x - floor(x), with 1.0
    folded to 0.0, written into `out` (which may be x itself) or a new array.

    Bit for bit np.mod(x, 1.0) plus the same fold, at about an eighth of its
    cost: both round the one exact value x - floor(x) once (+0.0 at whole
    x).  It rounds to 1.0 only for a tiny negative x, whose x + 1 rounds up,
    and the fold maps that to 0.0.
    """
    out = np.subtract(x, np.floor(x), out=out)
    out[out >= 1.0] = 0.0
    return out


def wrap_points(x, d: int | None = None) -> np.ndarray:
    """Map points to torus coordinates in [0, 1)^d.

    Accepts a single point (d,) or a batch (..., d).  Raises DomainError on
    non-finite input.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise DomainError("torus point has non-finite coordinates")
    if d is not None and arr.shape[-1] != d:
        raise DomainError(f"expected {d} coordinates, got {arr.shape[-1]}")
    # a new array: np.asarray may have returned x itself
    return wrap_unit(arr)


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform lattice on T^d with n nodes per axis and spacing h = 1/n."""

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ConfigurationError(f"unsupported dimension d={self.d} (need 1 or 2)")
        if self.n < 4:
            raise ConfigurationError(f"need at least 4 nodes per axis, got n={self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def size(self) -> int:
        return self.n**self.d

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def node_coords(self) -> np.ndarray:
        """All node coordinates, shape (size, d), lexicographic order."""
        return product_lattice(self.axis_coords(), self.d)

    def flat_index(self, multi: np.ndarray) -> np.ndarray:
        """Flat index of integer node coordinates (..., d), wrapped mod n."""
        m = np.mod(np.asarray(multi, dtype=np.int64), self.n)
        idx = m[..., 0]
        for a in range(1, self.d):
            idx = idx * self.n + m[..., a]
        return idx

    def nearest_node(self, points: np.ndarray) -> np.ndarray:
        p = wrap_points(points, self.d)
        return self.flat_index(np.rint(p * self.n).astype(np.int64))


@dataclass
class GridField:
    """One real value per grid node, immutable after construction."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.grid.size:
            raise DomainError(
                f"field has {v.size} values for a grid of {self.grid.size} nodes"
            )
        if not np.all(np.isfinite(v)):
            raise DomainError("field values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: PeriodicGrid, fn) -> "GridField":
        return cls(grid, np.asarray(fn(grid.node_coords()), dtype=float))

    @classmethod
    def constant(cls, grid: PeriodicGrid, value: float) -> "GridField":
        return cls(grid, np.full(grid.size, float(value)))

    def as_array(self) -> np.ndarray:
        return self.values.reshape((self.grid.n,) * self.grid.d)

    def lipschitz_constant(self) -> float:
        """Max forward difference quotient over adjacent nodes (periodic)."""
        a = self.as_array()
        diffs = (np.abs(np.roll(a, -1, axis=i) - a).max() for i in range(a.ndim))
        return float(max(diffs) / self.grid.h)


def interpolation_stencil(grid: PeriodicGrid, points: np.ndarray):
    """Indices and convex weights for periodic multilinear interpolation.

    Returns (idx, w) with shapes (..., 2^d); sum of weights is 1 exactly in
    each row up to roundoff.  Reusable across many fields on the same grid.
    The 2^d cell corners come in lexicographic order (the last axis flips
    fastest), and each corner's weight is its product, axis by axis, of
    1 - frac or frac.
    """
    p = wrap_points(points, grid.d)
    scaled = p * grid.n
    base = np.floor(scaled).astype(np.int64)
    frac = scaled - base
    # Guard against floor(x*n) == n from roundoff at the right edge.
    over = base >= grid.n
    base[over] -= 1
    frac[over] = 1.0
    ends, sides = [], []
    for a in range(grid.d):
        lo = np.mod(base[..., a], grid.n)
        ends.append((lo, np.mod(lo + 1, grid.n)))
        sides.append((1.0 - frac[..., a], frac[..., a]))
    idx, w = list(ends[0]), list(sides[0])
    for a in range(1, grid.d):
        idx = [i * grid.n + e for i in idx for e in ends[a]]
        w = [x * s for x in w for s in sides[a]]
    return np.stack(idx, axis=-1), np.stack(w, axis=-1)


def interpolate(field: GridField, points: np.ndarray):
    """Periodic multilinear interpolation of a field at arbitrary points.

    Exact at nodes and for data affine within one cell.  Returns a scalar for
    a single point, else an array of shape points.shape[:-1].
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    idx, w = interpolation_stencil(field.grid, pts)
    out = np.sum(field.values[idx] * w, axis=-1)
    return float(out) if single else out
