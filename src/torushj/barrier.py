"""Minimal-action dynamic programming, Peierls barriers, and critical values.

The finite-time action matrix h_t(x, y) (cost of moving from node x to node
y in time t) evolves by the Bellman step

    h_{t+dt}(x, y) = min_v [ h_t(x, y - v*dt) + dt * L0(y, v) ],

with L0 evaluated at the arrival point so the step is the lam = 0 member of
the same update family the discounted solver iterates, over the arcs of the
same kernel (`solver.Transition`); barrier columns are then exact
vanishing-discount limits of the solver rather than merely O(dt)-consistent
ones.  The default dt aligns every velocity hop with the node lattice
(dt = h / velocity step), which keeps the +BIG unreachability sentinel
exact: off-lattice foot points would otherwise never leave the diagonal
seed.

The Peierls barrier h(x, y) = liminf_t [h_t(x, y) + c t] is approximated by
the minimum over a sampled tail window of [Tmax/2, Tmax]; a drift detector
flags matrices whose window minimum is still systematically improving at
Tmax.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .grids import GridField, PeriodicGrid
from .models import ControlModel, VelocitySet, discounted_wrapper
from .solver import Transition, default_dt, lambda_sweep, on_arcs

__all__ = [
    "BIG",
    "BarrierMatrix",
    "CriticalData",
    "initial_action_matrix",
    "min_action_step",
    "evolve_action",
    "critical_value",
    "peierls_barrier",
    "aubry_set",
    "solution_from_barrier",
]

BIG = 1e18


@dataclass
class BarrierMatrix:
    """Action costs over node pairs; entry (i, j) is the cost from i to j."""

    grid: PeriodicGrid
    kind: str                       # "h_t" or "peierls"
    t: Optional[float]              # accumulated time for h_t, None for peierls
    values: np.ndarray              # (N, N)
    warnings: list = dc_field(default_factory=list)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        N = self.grid.size
        if v.shape != (N, N):
            raise DomainError(f"barrier matrix must be {N}x{N}, got {v.shape}")
        if np.any(np.isnan(v)) or np.any(np.isinf(v)):
            raise DomainError("barrier matrix entries must be finite or the BIG sentinel")
        self.values = v

    def diagonal(self) -> np.ndarray:
        return np.diag(self.values).copy()


@dataclass
class CriticalData:
    """Critical value estimate(s); spread is the max pairwise disagreement."""

    c: float
    method: str
    spread: float = 0.0
    per_method: dict = dc_field(default_factory=dict)


def initial_action_matrix(grid: PeriodicGrid) -> BarrierMatrix:
    """h_0: zero on the diagonal, unreachable (+BIG) elsewhere."""
    N = grid.size
    v = np.full((N, N), BIG)
    np.fill_diagonal(v, 0.0)
    return BarrierMatrix(grid, "h_t", 0.0, v)


class _ActionKernel:
    """Reusable one-step Bellman kernel for the action DP."""

    def __init__(self, model: ControlModel, grid: PeriodicGrid,
                 vset: VelocitySet, dt: float):
        self.arcs = Transition(grid, vset, dt)
        self.cost = dt * on_arcs(grid, vset, model.L, 0.0)             # (K, N)

    def step(self, A: np.ndarray) -> np.ndarray:
        K, N = self.cost.shape
        take, w = self.arcs.take, self.arcs.w
        out = np.full_like(A, BIG)
        if w is None:
            for k in range(K):
                cand = A[:, take[k]] + self.cost[k][None, :]
                np.minimum(out, cand, out=out)
            return np.minimum(out, BIG)
        for k in range(K):
            vals = np.zeros_like(A)
            finite = np.ones(A.shape, dtype=bool)
            for s in range(take.shape[2]):
                wj = w[k, :, s]
                Aj = A[:, take[k, :, s]]
                active = wj > 1e-12
                bad = (Aj > BIG / 2) & active[None, :]
                finite &= ~bad
                vals += np.where(bad, 0.0, Aj) * np.where(active, wj, 0.0)[None, :]
            cand = np.where(finite, vals + self.cost[k][None, :], BIG)
            np.minimum(out, cand, out=out)
        return np.minimum(out, BIG)


def min_action_step(model: ControlModel, A: BarrierMatrix, dt: float,
                    vset: VelocitySet) -> BarrierMatrix:
    """One Bellman step h_t -> h_{t+dt} for the u = 0 Lagrangian."""
    if A.kind != "h_t":
        raise ConfigurationError("min_action_step advances h_t matrices only")
    kern = _ActionKernel(model, A.grid, vset, dt)
    return BarrierMatrix(A.grid, "h_t", (A.t or 0.0) + dt, kern.step(A.values),
                         warnings=list(A.warnings))


def evolve_action(model: ControlModel, grid: PeriodicGrid, vset: VelocitySet,
                  T: float, dt: Optional[float] = None) -> BarrierMatrix:
    """h_T from the diagonal seed by repeated Bellman steps."""
    if dt is None:
        dt = default_dt(grid, vset)
    steps = int(round(T / dt))
    kern = _ActionKernel(model, grid, vset, dt)
    A = initial_action_matrix(grid).values
    for _ in range(steps):
        A = kern.step(A)
    return BarrierMatrix(grid, "h_t", steps * dt, A)


def critical_value(model: ControlModel, method, grid: PeriodicGrid,
                   vset: VelocitySet, dt: Optional[float] = None,
                   Tmax: float = 24.0,
                   discount_schedule: Sequence[float] = (0.1, 0.05, 0.02, 0.01),
                   lp_polytope=None) -> CriticalData:
    """Critical value of H(., ., 0) by one or several routes.

    method is "lp", "discount", "longtime", or a sequence of those; with two
    or more methods the spread records their maximum disagreement and c is
    taken from the first.  The lp route solves the closed-measure linear
    program, discount solves lam*w + H^0(x, dw) = 0 and reads off
    -mean(lam*w) at the smallest scheduled lam, longtime uses
    -min_x h_T(x, x)/T.
    """
    methods = (method,) if isinstance(method, str) else tuple(method)
    if dt is None:
        dt = default_dt(grid, vset)
    values: dict[str, float] = {}
    for meth in methods:
        if meth == "lp":
            from .matherlp import build_polytope, solve_mather_lp
            poly = lp_polytope if lp_polytope is not None else build_polytope(
                model, grid, vset, dt)
            # a polytope built with its critical LP already holds -optimum
            if poly.critical_measure is None:
                values["lp"] = -solve_mather_lp(model, poly)[1]
            else:
                values["lp"] = poly.c
        elif meth == "discount":
            disc = discounted_wrapper(model)
            entries = lambda_sweep(disc, sorted(discount_schedule, reverse=True),
                                   grid, vset, dt=dt, tol=1e-9)
            last = entries[-1]
            if last.field is None:
                raise ConfigurationError(f"discount route failed: {last.error}")
            values["discount"] = -last.lam * float(np.mean(last.field.values))
        elif meth == "longtime":
            hT = evolve_action(model, grid, vset, Tmax, dt)
            diag = hT.diagonal()
            if np.all(diag > BIG / 2):
                raise ConfigurationError("no node returns to itself by Tmax")
            values["longtime"] = -float(np.min(diag)) / (hT.t or Tmax)
        else:
            raise ConfigurationError(f"unknown critical-value method {meth!r}")
    vals = list(values.values())
    spread = float(max(vals) - min(vals)) if len(vals) > 1 else 0.0
    return CriticalData(c=values[methods[0]], method="+".join(methods),
                        spread=spread, per_method=values)


def peierls_barrier(model: ControlModel, c: float, grid: PeriodicGrid,
                    vset: VelocitySet, Tmax: float = 24.0,
                    window: Optional[tuple] = None,
                    dt: Optional[float] = None,
                    drift_tol: float = 1e-3) -> BarrierMatrix:
    """Peierls barrier surrogate: min over a tail window of [h_t + c*t].

    The window defaults to [Tmax/2, Tmax], sampled at every DP step.  When
    the window minimum is still improving by more than drift_tol between the
    window's three-quarter point and Tmax on most pairs, an "increase Tmax"
    warning is attached (non-settled liminf).
    """
    if dt is None:
        dt = default_dt(grid, vset)
    if window is None:
        window = (Tmax / 2.0, Tmax)
    lo, hi = window
    if not (0 < lo < hi <= Tmax + 1e-12):
        raise ConfigurationError("window must sit inside (0, Tmax]")
    if Tmax < 8:
        raise ConfigurationError("Tmax must be at least 8 time units")
    kern = _ActionKernel(model, grid, vset, dt)
    A = initial_action_matrix(grid).values
    steps = int(round(Tmax / dt))
    runmin = np.full_like(A, BIG)
    snap34 = None
    t34 = lo + 0.75 * (hi - lo)
    for k in range(1, steps + 1):
        A = kern.step(A)
        t = k * dt
        if t >= lo - 1e-12:
            np.minimum(runmin, A + c * t, out=runmin)
            if snap34 is None and t >= t34 - 1e-12:
                snap34 = runmin.copy()
    warns = []
    if snap34 is not None:
        settled = snap34 < BIG / 2
        improving = (snap34 - runmin > drift_tol) & settled
        frac = float(np.mean(improving[settled])) if settled.any() else 1.0
        if frac > 0.5:
            warns.append(
                f"window minimum still drifting on {frac:.0%} of pairs: increase Tmax"
            )
    if np.any(runmin > BIG / 2):
        warns.append("some node pairs unreachable within the window; increase Tmax")
    return BarrierMatrix(grid, "peierls", None, runmin, warnings=warns)


def aubry_set(h: BarrierMatrix, tol: float = 0.03) -> np.ndarray:
    """Node indices with h(x, x) <= tol (nonempty: falls back to the argmin)."""
    if h.kind != "peierls":
        raise ConfigurationError("aubry_set needs a peierls matrix")
    diag = h.diagonal()
    nodes = np.nonzero(diag <= tol)[0]
    if nodes.size == 0:
        _warnings.warn(
            f"no diagonal entry within {tol}; returning argmin nodes instead",
            stacklevel=2,
        )
        nodes = np.nonzero(diag <= diag.min() + 1e-12)[0]
    return nodes


def solution_from_barrier(h: BarrierMatrix, y: int) -> GridField:
    """The column x -> h(y, x), a discrete solution of the critical equation."""
    if h.kind != "peierls":
        raise ConfigurationError("solution_from_barrier needs a peierls matrix")
    return GridField(h.grid, h.values[int(y), :].copy())
