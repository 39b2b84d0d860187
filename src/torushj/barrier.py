"""Minimal-action dynamic programming, exact Peierls barriers, critical values.

The finite-time action matrix h_t(x, y) (cost of moving from node x to node
y in time t) is a plain (N, N) array that evolves by the Bellman step

    h_{t+dt}(x, y) = min_v [ h_t(x, y - v*dt) + dt * L0(y, v) ],

with L0 evaluated at the arrival point so the step is the lam = 0 member of
the same update family the discounted solver iterates, over the arcs of the
same kernel (`solver.Transition`); barrier columns are then exact
vanishing-discount limits of the solver rather than merely O(dt)-consistent
ones.  Both the DP and the barrier need the integer hops that the default
dt = h / velocity step gives (`solver.lattice_graph`, which also gives
the arcs' L0).  `evolve_action` runs that step T/dt times.  No pipeline
calls the DP: the tests keep it as the oracle of the exact routes below.

The long-time critical value is the exact T -> infinity limit of
-min_x h_T(x, x) / T, that is -eta / dt with eta the minimum mean weight
dt * L0 of a cycle of the lattice graph.  Karp's theorem gives eta from
N + 1 Bellman steps applied to u = 0, the discrete Lax-Oleinik semigroup
(Fathi, Weak KAM Theorem in Lagrangian Dynamics): with D_k(y) the cheapest
walk of exactly k arcs that ends at y, from anywhere,
eta = min_y max_{0<=k<N} (D_N(y) - D_k(y)) / (N - k) (R. M. Karp, "A
characterization of the minimum cycle mean in a digraph", Discrete Math.
23 (1978) 309-311), on the arcs of `lattice_graph`.  That is value
iteration, not Howard's policy iteration, so the two routes check each other.

The Peierls barrier h(x, y) = liminf_t [h_t(x, y) + c t], the one matrix
a `BarrierMatrix` holds, is exact on that lattice graph, whose arc (k, y)
runs from its foot to y with weight dt * (L0(y, v_k) + c):
h(x, y) = min over z in A of [Phi(x, z) + Phi(z, y)], Phi the shortest-path
(Mane) potential and A the Aubry set, the nodes on zero-weight cycles
(Contreras-Iturriaga).  The polytope holds all of it:
its kernel, L0 on its arcs, and its Howard bias (`matherlp.build_polytope`),
which charges L0 at the arrival point like this graph, so that Johnson's
(1977) reweighting by psi = dt * potential makes every arc weight
nonnegative for every Lagrangian.  A is the union of the polytope's static
classes, and two nodes of one class are joined both ways at zero cost, so
Phi(x, z) + Phi(z, y) is the same for every z of a class: Dijkstra runs
forward and backward from one representative per class.  It is a dense
numpy Dijkstra on the (N, N) matrix of reduced weights, run from all
representatives at once (`_dijkstra`), so neither the barrier nor the
long-time route loads `scipy.sparse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DomainError, SolveError
from .grids import GridField, PeriodicGrid
from .matherlp import MatherPolytope, build_polytope
from .models import ControlModel, discounted_wrapper
from .solver import Transition, lattice_graph, solve_perturbed

__all__ = [
    "BIG",
    "BarrierMatrix",
    "CriticalData",
    "initial_action_matrix",
    "min_action_step",
    "evolve_action",
    "karp_min_mean",
    "critical_value",
    "peierls_barrier",
    "aubry_set",
    "solution_from_barrier",
]

BIG = 1e18
DISCOUNT_LAMBDA = 0.01          # critical_value's "discount" route


@dataclass
class BarrierMatrix:
    """The Peierls barrier over node pairs; entry (i, j) is h(i, j)."""

    grid: PeriodicGrid
    values: np.ndarray              # (N, N)
    aubry: Optional[np.ndarray] = None   # ascending; a .pbar file stores none
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
    spread: float = 0.0
    per_method: dict = dc_field(default_factory=dict)


def initial_action_matrix(grid: PeriodicGrid) -> np.ndarray:
    """h_0: zero on the diagonal, unreachable (+BIG) elsewhere."""
    N = grid.size
    v = np.full((N, N), BIG)
    np.fill_diagonal(v, 0.0)
    return v


class _ActionKernel:
    """Reusable one-step Bellman kernel for the action DP."""

    def __init__(self, model: ControlModel, arcs: Transition):
        L0 = lattice_graph(model, arcs)
        self.dt, self.take, self.cost = arcs.dt, arcs.take, arcs.dt * L0     # (K, N)

    def step(self, A: np.ndarray) -> np.ndarray:
        """h_t -> h_{t+dt}, the min-plus product A h_dt by its K arcs per node:
        out[i, j] = min_k A[i, take[k, j]] + cost[k, j].  It gathers whole
        rows of A.T and returns a C-contiguous array, so that the products
        after it stay row-major."""
        AT = np.ascontiguousarray(A.T)
        out = np.full_like(AT, BIG)
        for take, cost in zip(self.take, self.cost):
            np.minimum(out, AT[take] + cost[:, None], out=out)
        return np.ascontiguousarray(out.T)


def min_action_step(model: ControlModel, A: np.ndarray, arcs: Transition) -> np.ndarray:
    """One Bellman step h_t -> h_{t+dt} of the (N, N) array A, for u = 0."""
    return _ActionKernel(model, arcs).step(A)


def evolve_action(model: ControlModel, arcs: Transition, T: float) -> np.ndarray:
    """The (N, N) array h_T from the diagonal seed by repeated Bellman steps;
    a T that rounds to a negative step count raises ConfigurationError."""
    kern = _ActionKernel(model, arcs)
    steps = int(round(T / kern.dt))
    if steps < 0:
        raise ConfigurationError(f"T = {T:g} is a negative horizon")
    A = initial_action_matrix(arcs.grid)
    for _ in range(steps):
        A = kern.step(A)
    return A


def karp_min_mean(take: np.ndarray, W: np.ndarray) -> float:
    """The minimum mean weight of a cycle of the graph whose arc (k, y) runs
    from take[k, y] to y with weight W[k, y], by Karp's theorem: D_0 = 0,
    D_{k+1}(y) = min_j D_k(take[j, y]) + W[j, y], and
    eta = min_y max_{0<=k<N} (D_N(y) - D_k(y)) / (N - k).  Every node has K
    incoming arcs, so every D_k is finite."""
    N = take.shape[1]
    D = np.zeros((N + 1, N))
    for k in range(N):
        D[k + 1] = np.min(D[k][take] + W, axis=0)
    return float(np.min(np.max((D[N] - D[:N]) / (N - np.arange(N))[:, None], axis=0)))


def critical_value(model: ControlModel, method, arcs: Transition) -> CriticalData:
    """Critical value of H(., ., 0) on the kernel `arcs` by one or more routes.

    method is "lp", "discount", "longtime", or a sequence of those; with two
    or more methods the spread records their maximum disagreement and c is
    taken from the first.  The lp route is `build_polytope`'s c, the optimum
    of the closed-measure LP by certified policy iteration; discount solves
    lam*w + H^0(x, dw) = 0 once, at lam = DISCOUNT_LAMBDA, by Howard's
    policy iteration (`solve_perturbed` on `discounted_wrapper(model)`),
    reads off -mean(lam*w) and raises SolveError if that solve does not
    converge; longtime is the T -> infinity limit of -min_x h_T(x, x)/T,
    exactly, by Karp's theorem on the arcs of `lattice_graph`
    (`karp_min_mean`): N + 1 Bellman steps of a vector, N^2 K work.  The lp
    and longtime routes need whole-cell hops and raise ConfigurationError
    without them.
    """
    methods = (method,) if isinstance(method, str) else tuple(method)
    values: dict[str, float] = {}
    for meth in methods:
        if meth == "lp":
            values["lp"] = build_polytope(model, arcs).c
        elif meth == "discount":
            w, rep = solve_perturbed(discounted_wrapper(model), DISCOUNT_LAMBDA, arcs,
                                     tol=1e-9)
            if not rep.converged:
                raise SolveError(f"discount route: the solve at lam = {DISCOUNT_LAMBDA:g} "
                                 f"stopped at residual {rep.final_residual:.3g}")
            values["discount"] = -DISCOUNT_LAMBDA * float(np.mean(w.values))
        elif meth == "longtime":
            W = arcs.dt * lattice_graph(model, arcs)
            values["longtime"] = -karp_min_mean(arcs.take, W) / arcs.dt
        else:
            raise ConfigurationError(f"unknown critical-value method {meth!r}")
    vals = list(values.values())
    spread = float(max(vals) - min(vals)) if len(vals) > 1 else 0.0
    return CriticalData(c=values[methods[0]], spread=spread, per_method=values)


def peierls_barrier(polytope: MatherPolytope) -> BarrierMatrix:
    """The discrete Peierls barrier at the polytope's critical value, exactly.

    The polytope gives dt, the arcs and their L0, c, the potential and the
    static classes.  Raises ConfigurationError for a reweighted arc below
    -dt * zero_tol: that check certifies the potential, and only roundoff
    that passes it is clamped.  Pairs the
    lattice graph cannot join keep the BIG sentinel and a warning.  The
    values are read-only: `MatherPolytope.barrier` shares them.
    """
    aubry, _, reps = polytope.static_classes()
    dt, N, K = polytope.dt, polytope.grid.size, polytope.vset.count
    foot, head = polytope.arcs.take.ravel(), np.tile(np.arange(N), K)
    psi = dt * polytope.potential
    cost = dt * polytope.action[foot * K + np.repeat(np.arange(K), N)]
    reduced = cost + dt * polytope.c + psi[foot] - psi[head]
    tol = dt * polytope.zero_tol
    if reduced.min() < -tol:
        raise ConfigurationError(f"reduced arc weight {reduced.min():.3g} < 0: the "
                                 "potential does not certify this Lagrangian")
    reduced = np.maximum(reduced, 0.0)
    # the cheapest arc per (foot, head) pair; inf where there is none, and
    # zero weights stay arcs
    G = np.full((N, N), np.inf)
    np.minimum.at(G, (foot, head), reduced)
    h = np.full((N, N), np.inf)
    for to_z, from_z in zip(*_dijkstra(G, reps)):
        np.minimum(h, to_z[:, None] + from_z[None, :], out=h)
    h = h - psi[:, None] + psi[None, :]
    warns = []
    if not np.all(np.isfinite(h)):
        h[~np.isfinite(h)] = BIG
        warns.append("some node pairs are unreachable on the lattice graph")
    h.flags.writeable = False           # the polytope shares it (`.barrier`)
    return BarrierMatrix(polytope.grid, h, aubry=aubry, warnings=warns)


def _dijkstra(G: np.ndarray, sources: np.ndarray):
    """Shortest-path lengths to and from each source, two (S, N) arrays, on
    the dense weight matrix G (G[i, j] >= 0 the arc i -> j, inf where there
    is none); inf marks the pairs no path joins.  Dijkstra's algorithm on G
    and its transpose from all sources at once: each of N steps settles,
    per source and direction, the nearest open node and relaxes its row.
    Relaxing a settled node never lowers it, as the weights are
    nonnegative, so the rows need no mask.  Each length is the least float
    sum dist(u) + G[u, v] over the arcs into v, and these equations fix
    the lengths, so they are those of any Dijkstra, such as
    `scipy.sparse.csgraph.dijkstra`, bit for bit."""
    S, N = len(sources), G.shape[0]
    GT = np.ascontiguousarray(G.T)
    rows = np.arange(2 * S)
    dist = np.full((2 * S, N), np.inf)            # to the sources, then from
    dist[rows, np.concatenate([sources, sources])] = 0.0
    closed = np.zeros((2 * S, N))                 # inf once a node is settled
    buf = np.empty((2 * S, N))
    for _ in range(N):
        near = np.add(dist, closed, out=buf).argmin(axis=1)
        closed[rows, near] = np.inf
        np.take(GT, near[:S], axis=0, out=buf[:S])
        np.take(G, near[S:], axis=0, out=buf[S:])
        buf += dist[rows, near][:, None]
        np.minimum(dist, buf, out=dist)
    return dist[:S], dist[S:]


def aubry_set(h: BarrierMatrix) -> np.ndarray:
    """The Aubry set the barrier computed: node indices on zero-weight cycles."""
    if h.aubry is None:
        raise ConfigurationError("this barrier carries no Aubry set (a .pbar file "
                                 "stores none); recompute it with peierls_barrier")
    return h.aubry


def solution_from_barrier(h: BarrierMatrix, y: int) -> GridField:
    """The column x -> h(y, x), a discrete solution of the critical equation."""
    return GridField(h.grid, h.values[int(y), :].copy())
