"""Mather measures as linear programs over a discrete closed-measure polytope.

A measure is a nonnegative weight per (node, velocity) pair, an "arc" of
the transition kernel the solver uses (`solver.Transition`).  Closedness is
imposed through that kernel: the pushforward of (x, v) is the arc's head,
the multilinear binning of x + v*dt, and a closed measure is one whose
per-node inflow equals its outflow.  Minimizing the u = 0 action over that
polytope yields the discrete critical value and its minimizing measures.

The Mather face is exact and finite.  `build_polytope` keeps the reduced
costs of one optimal dual of that critical LP (HiGHS returns the dual with
the solve); by complementary slackness every Mather measure lives on the
critical arcs, those of zero reduced cost, and conversely every closed
probability measure on them is minimizing.  With integer hops the vertices
of that face are the uniform measures on simple cycles of the critical
subgraph, which `mather_vertices` lists when the cycles are disjoint and
`build_polytope` keeps.  The selection layer evaluates its
linear-fractional objectives on those vertices (Charnes-Cooper 1962: the
minimum sits at a vertex), and otherwise solves `fractional_minimize`
restricted to the critical arcs.

The full-polytope programs, which impose minimality as an action row with
slack tol_min, remain as `minimize_linear_over_mather` and
`fractional_minimize` without a support; they serve the tests as an
oracle.  Linear programs are solved with HiGHS dual simplex (deterministic
pivoting, vertex solutions).  Their multiplicity flag comes from a second LP
that maximizes the mass movable off the support of the returned vertex while
staying on the optimal face; reduced-cost inspection alone cannot tell a
degenerate vertex from a genuine alternative optimum since those optima are
typically sparse and thus heavily degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import ConfigurationError, DomainError, MatherLPError
from .grids import PeriodicGrid
from .models import ControlModel, VelocitySet
from .solver import Transition, default_dt, on_arcs

__all__ = [
    "DiscreteMeasure",
    "MatherPolytope",
    "closedness_operator",
    "build_polytope",
    "solve_mather_lp",
    "minimize_linear_over_mather",
    "fractional_minimize",
    "mather_vertices",
    "projected_measure",
    "graph_check",
    "GraphReport",
]


@dataclass
class DiscreteMeasure:
    """Nonnegative weights on (node, velocity) pairs, flat order x*K + k."""

    grid: PeriodicGrid
    vset: VelocitySet
    weights: np.ndarray          # (N, K)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        N, K = self.grid.size, self.vset.count
        if w.shape == (N * K,):
            w = w.reshape(N, K)
        if w.shape != (N, K):
            raise DomainError(f"weights must have shape ({N}, {K})")
        if w.min() < -1e-9:
            raise DomainError(f"negative weight {w.min():g} in measure")
        self.weights = np.clip(w, 0.0, None)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def flat(self) -> np.ndarray:
        return self.weights.ravel()

    def projected(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def mean_velocity(self) -> np.ndarray:
        w = self.flat()
        V = np.tile(self.vset.velocities, (self.grid.size, 1))
        return (w[:, None] * V).sum(axis=0) / max(w.sum(), 1e-300)


def closedness_operator(grid: PeriodicGrid, vset: VelocitySet, dt: float) -> sparse.csr_matrix:
    """Sparse (N x N*K) operator whose rows vanish exactly on closed measures.

    Row y evaluates sum_{(x,v)} w(x,v) * [binning weight of x + v*dt at y]
    minus sum_v w(y, v).  Rows and columns each sum to zero.
    """
    N, K = grid.size, vset.count
    cols = np.arange(N * K)
    idx, w = Transition(grid, vset, dt).stencil(+1)        # heads x + v*dt
    if w is None:
        rows, vals = idx.T.ravel(), np.ones(N * K)
    else:
        S = idx.shape[2]
        rows = idx.transpose(1, 0, 2).ravel()
        vals = w.transpose(1, 0, 2).ravel()
        cols = np.repeat(cols, S)
    C = sparse.coo_matrix(
        (np.concatenate([vals, -np.ones(N * K)]),
         (np.concatenate([rows, np.repeat(np.arange(N), K)]),
          np.concatenate([cols, np.arange(N * K)]))),
        shape=(N, N * K),
    ).tocsr()
    C.sum_duplicates()
    return C


@dataclass
class MatherPolytope:
    """Closedness operator, action row, and the critical LP's solution."""

    grid: PeriodicGrid
    vset: VelocitySet
    dt: float
    C: sparse.csr_matrix
    action: np.ndarray           # L0 per (node, velocity), flat
    c: Optional[float] = None    # critical value; -c is the LP optimum
    tol_min: float = 1e-9
    critical_measure: Optional[DiscreteMeasure] = None   # the critical LP's optimizer
    reduced_cost: Optional[np.ndarray] = None            # of one optimal dual, flat
    potential: Optional[np.ndarray] = None               # that dual's node part
    vertices: Optional[list] = None                      # `mather_vertices` of it

    @property
    def num_vars(self) -> int:
        return self.grid.size * self.vset.count

    @property
    def zero_tol(self) -> float:
        """Reduced costs at or below this scale-relative 1e-9 count as zero."""
        return 1e-9 * max(1.0, float(np.max(np.abs(self.action))))

    def critical_arcs(self) -> np.ndarray:
        """Flat indices of the arcs whose reduced cost is zero (up to
        `zero_tol`): the support of every Mather measure."""
        if self.reduced_cost is None:
            raise ConfigurationError("polytope has no critical dual; build it "
                                     "with with_critical=True")
        return np.flatnonzero(self.reduced_cost <= self.zero_tol)


def build_polytope(model: ControlModel, grid: PeriodicGrid, vset: VelocitySet,
                   dt: Optional[float] = None, with_critical: bool = True,
                   tol_min: float = 1e-9) -> MatherPolytope:
    """Assemble the polytope; by default also solve its critical LP once and
    keep the critical value, the optimizer, one optimal dual (its node part
    and the reduced costs) and the vertices of the Mather face."""
    if dt is None:
        dt = default_dt(grid, vset)
    action = on_arcs(grid, vset, model.L, 0.0).T.ravel()    # flat (x, k)
    poly = MatherPolytope(grid=grid, vset=vset, dt=dt,
                          C=closedness_operator(grid, vset, dt),
                          action=action, tol_min=tol_min)
    if with_critical:
        mu, opt, info = solve_mather_lp(model, poly)
        poly.c = -opt
        poly.critical_measure = mu
        # A_eq = [C; 1], so A_eq^T y = C^T y[:N] + y[N]
        poly.potential = info.duals[:-1]
        poly.reduced_cost = action - poly.C.T @ poly.potential - info.duals[-1]
        poly.vertices = mather_vertices(poly)
    return poly


@dataclass
class LPInfo:
    status: int
    message: str
    multiplicity: Optional[bool] = None
    movable_mass: float = 0.0
    duals: Optional[np.ndarray] = None     # equality-row marginals


def _run_lp(cvec, A_eq, b_eq, A_ub=None, b_ub=None):
    res = linprog(c=cvec, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub,
                  bounds=(0, None), method="highs-ds")
    if res.status == 2:
        raise MatherLPError(
            "LP infeasible: closedness operator rank defect or minimality slack "
            "too tight (increase tol_min)"
        )
    if res.status != 0:
        raise MatherLPError(f"LP failed with status {res.status}: {res.message}")
    return res


def solve_mather_lp(model: ControlModel, polytope: MatherPolytope):
    """Minimize the u = 0 action over closed probability measures.

    Returns (measure, optimal value, info); the critical value is minus the
    optimum and info.duals holds the optimal dual of the equality rows.
    Unboundedness cannot occur (mass constraint) and is surfaced as an
    internal error.
    """
    N, K = polytope.grid.size, polytope.vset.count
    A_eq = sparse.vstack([polytope.C, sparse.csr_matrix(np.ones((1, N * K)))])
    b_eq = np.zeros(N + 1)
    b_eq[-1] = 1.0
    res = _run_lp(polytope.action, A_eq, b_eq)
    mu = DiscreteMeasure(polytope.grid, polytope.vset, res.x)
    return mu, float(res.fun), LPInfo(status=res.status, message=res.message,
                                      duals=np.asarray(res.eqlin.marginals))


def _mather_constraints(polytope: MatherPolytope):
    if polytope.c is None:
        raise ConfigurationError("polytope.c unset; build with with_critical=True "
                                 "or fill it from critical_value")
    N, K = polytope.grid.size, polytope.vset.count
    A_eq = sparse.vstack([polytope.C, sparse.csr_matrix(np.ones((1, N * K)))])
    b_eq = np.zeros(N + 1)
    b_eq[-1] = 1.0
    A_ub = sparse.csr_matrix(polytope.action[None, :])
    b_ub = np.array([-polytope.c + polytope.tol_min])
    return A_eq, b_eq, A_ub, b_ub


def _movable_mass_off_support(polytope: MatherPolytope, cost: np.ndarray,
                              primal: np.ndarray, opt: float,
                              face_tol: float) -> float:
    """Max mass placeable outside the returned support while staying optimal."""
    A_eq, b_eq, A_ub, b_ub = _mather_constraints(polytope)
    off = (primal <= 1e-9).astype(float)
    A_ub2 = sparse.vstack([A_ub, sparse.csr_matrix(cost[None, :])])
    b_ub2 = np.concatenate([b_ub, [opt + face_tol]])
    res = _run_lp(-off, A_eq, b_eq, A_ub2, b_ub2)
    return float(-res.fun)


def minimize_linear_over_mather(polytope: MatherPolytope, cost: np.ndarray,
                                check_multiplicity: bool = False):
    """Minimize a linear functional over the Mather subpolytope.

    Returns (measure, value, info).  With check_multiplicity the info flag
    reports whether the argmin face has dimension >= 1 (mass > 1% movable off
    the returned vertex's support at optimal cost).
    """
    cost = np.asarray(cost, dtype=float).ravel()
    if cost.size != polytope.num_vars:
        raise DomainError("cost vector length mismatch")
    A_eq, b_eq, A_ub, b_ub = _mather_constraints(polytope)
    res = _run_lp(cost, A_eq, b_eq, A_ub, b_ub)
    mu = DiscreteMeasure(polytope.grid, polytope.vset, res.x)
    info = LPInfo(status=res.status, message=res.message)
    if check_multiplicity:
        scale = max(1.0, float(np.max(np.abs(cost))))
        movable = _movable_mass_off_support(polytope, cost, res.x, float(res.fun),
                                            face_tol=1e-9 * scale)
        info.movable_mass = movable
        info.multiplicity = movable > 0.01
    return mu, float(res.fun), info


def fractional_minimize(polytope: MatherPolytope, numerator: np.ndarray,
                        denominator: np.ndarray, sign: str,
                        check_multiplicity: bool = False,
                        support: Optional[np.ndarray] = None):
    """Minimize (sum w*a)/(sum w*b) over the Mather subpolytope.

    The denominator must be strictly one-signed on the variables (sign is
    "positive" or "negative").  Charnes-Cooper substitution nu = w/|sum w*b|
    homogenizes the feasible set: closedness rows stay zero, the minimality
    constraint becomes  nu.(L0 + c - tol_min) <= 0, and nu.|b| = 1 replaces
    the mass constraint; the probability measure is recovered as nu/sum(nu).

    With `support` (flat arc indices, normally `polytope.critical_arcs()`)
    the program runs on those arcs only and drops the minimality row: closed
    measures on the critical arcs are exactly the Mather measures.
    """
    a = np.asarray(numerator, dtype=float).ravel()
    b = np.asarray(denominator, dtype=float).ravel()
    if a.size != polytope.num_vars or b.size != polytope.num_vars:
        raise DomainError("numerator/denominator length mismatch")
    if sign == "positive":
        if b.min() <= 0:
            raise DomainError("denominator not strictly positive as declared")
        obj, beq_row = a, b
    elif sign == "negative":
        if b.max() >= 0:
            raise DomainError("denominator not strictly negative as declared")
        obj, beq_row = -a, -b
    else:
        raise ConfigurationError("sign must be 'positive' or 'negative'")
    if polytope.c is None:
        raise ConfigurationError("polytope.c unset")
    N = polytope.grid.size
    if support is None:
        cols = np.arange(polytope.num_vars)
        homog = polytope.action + (polytope.c - polytope.tol_min)
        ub_rows, b_ub = [sparse.csr_matrix(homog[None, :])], [0.0]
    else:
        cols = np.asarray(support, dtype=np.int64)
        ub_rows, b_ub = [], []
    obj = obj[cols]
    A_eq = sparse.vstack([polytope.C[:, cols], sparse.csr_matrix(beq_row[None, cols])])
    b_eq = np.zeros(N + 1)
    b_eq[-1] = 1.0
    A_ub = sparse.vstack(ub_rows) if ub_rows else None
    res = _run_lp(obj, A_eq, b_eq, A_ub, np.array(b_ub) if ub_rows else None)
    nu = np.zeros(polytope.num_vars)
    nu[cols] = res.x
    total = nu.sum()
    if total <= 0:
        raise MatherLPError("degenerate Charnes-Cooper solution with zero mass")
    mu = DiscreteMeasure(polytope.grid, polytope.vset, nu / total)
    value = float(res.fun)
    info = LPInfo(status=res.status, message=res.message)
    if check_multiplicity:
        scale = max(1.0, float(np.max(np.abs(obj))))
        off = (res.x <= 1e-9 * max(total, 1.0)).astype(float)
        A_ub2 = sparse.vstack(ub_rows + [sparse.csr_matrix(obj[None, :])])
        b_ub2 = np.array(b_ub + [res.fun + 1e-9 * scale])
        res2 = _run_lp(-off, A_eq, b_eq, A_ub2, b_ub2)
        info.movable_mass = float(-res2.fun / max(res2.x.sum(), 1e-300))
        info.multiplicity = info.movable_mass > 0.01
    return mu, value, info


def mather_vertices(polytope: MatherPolytope) -> Optional[list]:
    """The vertices of the Mather face as disjoint cycles of critical arcs.

    With integer hops a closed measure on the critical arcs is a circulation,
    so the face's vertices are the uniform measures on simple cycles of the
    critical subgraph.  When every node has at most one critical arc the
    successor walk below finds all of them in O(N); each cycle is returned
    as an array of flat arc indices.  Returns None when the hops are off the
    lattice or a node has two or more critical arcs.
    """
    head, w = Transition(polytope.grid, polytope.vset, polytope.dt).stencil(+1)
    if w is not None:
        return None
    N, K = polytope.grid.size, polytope.vset.count
    arcs = polytope.critical_arcs()
    src = arcs // K
    if np.any(np.bincount(src, minlength=N) > 1):
        return None
    nxt = np.full(N, -1)
    nxt[src] = head[arcs % K, src]
    arc_of = np.full(N, -1)
    arc_of[src] = arcs
    state = np.zeros(N, dtype=np.int8)        # 0 new, 1 on this walk, 2 done
    cycles = []
    for start in range(N):
        path = []
        x = start
        while x >= 0 and state[x] == 0:
            state[x] = 1
            path.append(x)
            x = nxt[x]
        if x >= 0 and state[x] == 1:
            cycles.append(arc_of[path[path.index(x):]])
        state[path] = 2
    return cycles


def projected_measure(mu: DiscreteMeasure) -> np.ndarray:
    """Pushforward to the base torus: node weight = sum over velocities."""
    return mu.projected()


@dataclass
class GraphReport:
    node_mass: np.ndarray
    spread: np.ndarray           # (N, d) velocity spread per carrying node
    threshold: float
    passed: bool
    checked_nodes: np.ndarray = dc_field(default_factory=lambda: np.array([], dtype=int))


def graph_check(mu: DiscreteMeasure, tol: float = 1e-6) -> GraphReport:
    """Velocity-spread diagnostic for the graph property of minimizing measures.

    For each node carrying at least tol mass, the spread (max minus min per
    axis) of velocities holding at least tol of that node's mass must stay
    within two velocity-lattice steps.
    """
    W = mu.weights
    nm = W.sum(axis=1)
    carrying = np.nonzero(nm >= tol)[0]
    d = mu.vset.d
    spread = np.zeros((mu.grid.size, d))
    thresh = 2.0 * mu.vset.spacing
    ok = True
    for i in carrying:
        sel = W[i] >= tol * nm[i]
        vs = mu.vset.velocities[sel]
        sp = vs.max(axis=0) - vs.min(axis=0)
        spread[i] = sp
        if np.any(sp > thresh + 1e-12):
            ok = False
    return GraphReport(node_mass=nm, spread=spread, threshold=thresh,
                       passed=ok, checked_nodes=carrying)
