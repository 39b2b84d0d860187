"""Mather measures on the lattice graph: the critical value by Howard's
min-plus policy iteration, its static classes, and linear programs over the
closed-measure polytope.

A measure is a nonnegative weight per (node, velocity) pair, an "arc" of
the transition kernel the solver uses (`solver.Transition`).  Closedness is
imposed through that kernel: the pushforward of (x, v) is the arc's head,
the multilinear binning of x + v*dt, and a closed measure is one whose
per-node inflow equals its outflow.  The arc's action is L0 charged at its
head, through the same stencil (with integer hops L0(x + v*dt, v)), as the
solver, the action DP and the barrier charge it.  Minimizing that action
over the polytope yields the discrete critical value and its minimizing
measures.

With integer hops the critical value is the min-plus eigenvalue of the
one-step operator: eta + u(y) = min_k dt*L0(y, v_k) + u(y - v_k*dt), with
c = -eta/dt and eta the minimal cycle mean of the lattice graph.
`build_polytope` computes eta, the bias u and the critical arcs by Howard's
policy iteration (Cochet-Terrasson, Cohen, Gaubert, McGettrick, Quadrat,
"Numerical computation of spectral elements in max-plus algebra", IFAC
1998), with no linear program.  Its reduced costs certify u: they are
nonnegative up to roundoff, and zero on every arc of a min-mean cycle.
The critical arcs are the zero-cost arcs inside strongly connected
components of the zero-cost graph (`cycle_arcs`); the closed probability
measures on them are exactly the Mather measures, whatever the potential.
Those components are the static classes, which the polytope keeps as one
label per Aubry node (`MatherPolytope.classes`): every simple cycle of
critical arcs, hence every vertex of the Mather face, lies in one class,
and the Peierls barrier is additive through any node of a class.  The
selection layer minimizes its linear-fractional objectives class by class
with the ratio form of the same policy iteration (`_howard` with per-arc
denominators).

Off the node lattice the polytope takes c, the reduced costs and the
critical measure from the critical LP (`solve_mather_lp`), which HiGHS
solves with its dual, and has no classes; so does the "lp" route of
`barrier.critical_value`, which with integer hops returns the certified
policy-iteration c.  The full-polytope programs, which
impose minimality as an action row with slack tol_min, remain as
`minimize_linear_over_mather` and `fractional_minimize`; they serve the
tests as an oracle.  Linear programs are solved with HiGHS dual simplex
(deterministic pivoting, vertex solutions).  Their multiplicity flag comes
from a second LP that maximizes the mass movable off the support of the
returned vertex while staying on the optimal face; reduced-cost inspection
alone cannot tell a degenerate vertex from a genuine alternative optimum
since those optima are typically sparse and thus heavily degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import ConfigurationError, DomainError, MatherLPError
from .grids import PeriodicGrid
from .models import ControlModel, VelocitySet
from .solver import Transition, default_dt, on_arcs

__all__ = [
    "DiscreteMeasure",
    "MatherPolytope",
    "closedness_operator",
    "build_polytope",
    "cycle_arcs",
    "solve_mather_lp",
    "minimize_linear_over_mather",
    "fractional_minimize",
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


def closedness_operator(arcs: Transition) -> sparse.csr_matrix:
    """Sparse (N x N*K) operator whose rows vanish exactly on closed measures.

    Row y evaluates sum_{(x,v)} w(x,v) * [binning weight of x + v*dt at y]
    minus sum_v w(y, v), with the heads of the kernel `arcs`.  Rows and
    columns each sum to zero.
    """
    N, K = arcs.grid.size, arcs.vset.count
    cols = np.arange(N * K)
    idx, w = arcs.heads
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
    """Closedness operator, action row, and the critical problem's solution.

    `potential` and `reduced_cost` are per unit time, like `action`: with
    integer hops they are Howard's bias u / dt and the reduced arc weights
    (dt*L0 - eta + u[foot] - u[head]) / dt; off the lattice, the critical
    LP's node dual and reduced costs.
    """

    arcs: Transition             # the one transition kernel of (grid, vset, dt)
    C: sparse.csr_matrix
    action: np.ndarray           # L0 per (node, velocity), flat
    c: Optional[float] = None    # critical value; -c is the LP optimum
    tol_min: float = 1e-9
    critical_measure: Optional[DiscreteMeasure] = None   # one minimizing measure
    reduced_cost: Optional[np.ndarray] = None            # >= -zero_tol, flat
    potential: Optional[np.ndarray] = None               # certified by reduced_cost
    critical: Optional[np.ndarray] = None                # `critical_arcs()`
    classes: Optional[np.ndarray] = None                 # static class per node, -1 off A

    @property
    def grid(self) -> PeriodicGrid:
        return self.arcs.grid

    @property
    def vset(self) -> VelocitySet:
        return self.arcs.vset

    @property
    def dt(self) -> float:
        return self.arcs.dt

    @property
    def num_vars(self) -> int:
        return self.grid.size * self.vset.count

    @property
    def zero_tol(self) -> float:
        """Reduced costs at or below this scale-relative 1e-9 count as zero."""
        return 1e-9 * max(1.0, float(np.max(np.abs(self.action))))

    def critical_arcs(self) -> np.ndarray:
        """Flat indices of the arcs whose reduced cost is zero (up to
        `zero_tol`) and, with integer hops, that lie on a cycle of such
        arcs: the support of every Mather measure."""
        if self.critical is None:
            raise ConfigurationError("polytope has no critical solution; build "
                                     "it with with_critical=True")
        return self.critical

    def static_classes(self):
        """The Aubry set A (ascending), the class of each node of A, and one
        representative per class, its smallest node; classes are numbered
        in the order of their representatives."""
        if self.classes is None:
            raise ConfigurationError("the polytope has no static classes: they need "
                                     "its critical solution (with_critical=True), and "
                                     "off the node lattice there are none")
        aubry = np.flatnonzero(self.classes >= 0)
        label = self.classes[aubry]
        return aubry, label, aubry[np.unique(label, return_index=True)[1]]


def cycle_arcs(foot: np.ndarray, head: np.ndarray, N: int):
    """Mask of the arcs foot -> head that lie on a cycle of the graph they
    form on N nodes, those whose ends share a strongly connected component,
    and the component label of each node."""
    G = sparse.csr_matrix((np.ones(foot.size), (foot, head)), shape=(N, N))
    label = csgraph.connected_components(G, connection="strong")[1]
    return label[foot] == label[head], label


def build_polytope(model: ControlModel, grid: PeriodicGrid, vset: VelocitySet,
                   dt: Optional[float] = None,
                   with_critical: bool = True) -> MatherPolytope:
    """Assemble the polytope; by default also solve its critical problem once
    and keep the critical value, one minimizing measure, a potential with its
    reduced costs, the critical arcs and, with integer hops, their static
    classes.

    With integer hops that is Howard's policy iteration (`_howard`), whose
    potential must pass the certificate reduced_cost >= -zero_tol
    (MatherLPError otherwise); off the lattice it is the critical LP."""
    if dt is None:
        dt = default_dt(grid, vset)
    arcs = Transition(grid, vset, dt)
    L0 = on_arcs(grid, vset, model.L, 0.0)                     # (K, N), at the nodes
    N, K = grid.size, vset.count
    kk = np.arange(K)[:, None]
    # L0 is charged at the arc's head, binned like the mass closedness pushes
    # there.  With integer hops, arc (k, y) runs from its foot take[k, y] to
    # y; in the flat (x, k) order of the polytope it is x * K + k, x the foot.
    if arcs.integer_hops:
        flat = arcs.take * K + kk                              # (K, N)
        action = np.empty(N * K)
        action[flat] = L0
    else:
        head, w = arcs.heads
        action = np.sum(L0[kk[..., None], head] * w, axis=-1).T.ravel()
    poly = MatherPolytope(arcs=arcs, C=closedness_operator(arcs), action=action)
    if not with_critical:
        return poly
    if not arcs.integer_hops:
        mu, opt, info = solve_mather_lp(model, poly)
        poly.c = -opt
        poly.critical_measure = mu
        # A_eq = [C; 1], so A_eq^T y = C^T y[:N] + y[N]
        poly.potential = info.duals[:-1]
        poly.reduced_cost = action - poly.C.T @ poly.potential - info.duals[-1]
        poly.critical = np.flatnonzero(poly.reduced_cost <= poly.zero_tol)
        return poly
    foot = arcs.take
    W = dt * L0
    eta, u, pol, _ = _howard(foot, W, np.ones_like(W))
    star = float(eta.min())
    poly.c = -star / dt
    poly.potential = u / dt
    reduced = (W - star + u[foot] - u[None, :]) / dt              # (K, N)
    poly.reduced_cost = np.empty(N * K)
    poly.reduced_cost[flat] = reduced
    if poly.reduced_cost.min() < -poly.zero_tol:
        raise MatherLPError(f"reduced cost {poly.reduced_cost.min():.3g} < 0: the "
                            "policy-iteration potential does not certify c")
    k, y = np.nonzero(reduced <= poly.zero_tol)
    on, label = cycle_arcs(foot[k, y], y, N)
    poly.critical = np.sort(flat[k[on], y[on]])
    # the static classes, numbered in the order of their smallest node
    aubry = np.unique(y[on])
    _, first, cls = np.unique(label[aubry], return_index=True, return_inverse=True)
    poly.classes = np.full(N, -1)
    poly.classes[aubry] = np.argsort(np.argsort(first))[cls]
    # the policy's cycle through a node of minimal mean: N steps back along
    # the policy from any node land on its cycle
    cycle = _policy_cycle(foot[pol, np.arange(N)], int(np.argmin(eta)), N)
    weights = np.zeros(N * K)
    weights[flat[pol[cycle], cycle]] = 1.0 / len(cycle)
    poly.critical_measure = DiscreteMeasure(grid, vset, weights)
    return poly


def _policy_cycle(pred: np.ndarray, start: int, steps: int) -> list:
    """The cycle that walking steps back from start along the policy
    y -> pred[y] lands on, listed from the node it lands on, in the walk's
    direction.  steps must be at least the walk's length to the cycle."""
    y = start
    for _ in range(steps):
        y = pred[y]
    cycle = [y]
    while pred[cycle[-1]] != y:
        cycle.append(pred[cycle[-1]])
    return cycle


def _howard(take: np.ndarray, W: np.ndarray, D: np.ndarray):
    """Howard's policy iteration for the min-plus spectral problem with
    per-arc denominators D > 0

        u(y) = min_k W[k, y] - eta(y) * D[k, y] + u(take[k, y])

    on a graph whose arc (k, y) runs from take[k, y] to y with weight W[k, y],
    all three (K, N); an arc with W = +inf is absent, and every node needs a
    present one.  eta(y) is the minimum of sum W / sum D over the cycles
    upstream of y: with D = 1 the minimal cycle mean, otherwise the minimal
    cycle ratio (Cochet-Terrasson et al., IFAC 1998, give both).  A policy
    picks one arc per node, so its graph has one predecessor per node: value
    determination walks its cycles and the trees that hang from them
    (`_policy_values`).  Improvement first lowers eta, then the bias u,
    switching a node only on a decrease larger than a roundoff tolerance, so
    that the (eta, u) pairs strictly decrease and the loop ends.  Returns
    per-node eta, the bias u, the policy and the number of value
    determinations.
    """
    K, N = W.shape
    cols = np.arange(N)
    present = np.isfinite(W)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(W[present]))))
    pol = np.argmin(W, axis=0)
    u = np.zeros(N)
    for it in range(1, N * K + 1):
        eta, u = _policy_values(take[pol, cols], W[pol, cols], D[pol, cols], u)
        feet = np.where(present, eta[take], np.inf)
        lower = feet.min(axis=0) < eta - tol
        if lower.any():
            pol = np.where(lower, np.argmin(feet, axis=0), pol)
            continue
        cand = np.where(feet <= eta + tol, W - eta * D + u[take], np.inf)
        better = cand.min(axis=0) < u - tol
        if not better.any():
            return eta, u, pol, it
        pol = np.where(better, np.argmin(cand, axis=0), pol)
    raise MatherLPError(f"policy iteration did not settle in {N * K} steps")


def _policy_values(pred: np.ndarray, w: np.ndarray, d: np.ndarray,
                   u_old: np.ndarray):
    """Cycle ratio eta and bias u of the policy graph y <- pred[y] (arc
    weight w[y], denominator d[y]): u(y) = w[y] - eta(y) d[y] + u(pred[y]),
    with eta constant on each basin.  Each cycle keeps u_old at its smallest
    node, so that a cycle the improvement left alone keeps its values bit
    for bit."""
    N = pred.size
    pred, w, d, old = pred.tolist(), w.tolist(), d.tolist(), u_old.tolist()
    eta, u = [0.0] * N, [0.0] * N
    state = [0] * N                   # 0 new, 1 on this walk, 2 done
    for start in range(N):
        path, y = [], start
        while state[y] == 0:
            state[y] = 1
            path.append(y)
            y = pred[y]
        closed = state[y] == 1        # the walk closed a new cycle at y
        for z in path:
            state[z] = 2
        if closed:
            i = path.index(y)
            cyc = path[i:]
            j = cyc.index(min(cyc))
            cyc = cyc[j:] + cyc[:j]   # pred(cyc[t]) = cyc[t + 1], pred(cyc[-1]) = cyc[0]
            ratio = sum(w[z] for z in cyc) / sum(d[z] for z in cyc)
            eta[cyc[0]], u[cyc[0]] = ratio, old[cyc[0]]
            for z in reversed(cyc[1:]):
                eta[z], u[z] = ratio, (w[z] - ratio * d[z]) + u[pred[z]]
            del path[i:]
        for z in reversed(path):
            p = pred[z]
            eta[z], u[z] = eta[p], (w[z] - eta[p] * d[z]) + u[p]
    return np.array(eta), np.array(u)


@dataclass
class LPInfo:
    status: int
    message: str
    multiplicity: Optional[bool] = None
    movable_mass: float = 0.0
    duals: Optional[np.ndarray] = None     # equality-row marginals


def _run_lp(cvec, A_eq, b_eq, A_ub=None, b_ub=None):
    from scipy.optimize import linprog   # HiGHS loads on the first LP only
    # dual simplex without presolve: on these closedness programs HiGHS's
    # presolve took more than half of the solve and removed little
    res = linprog(c=cvec, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub,
                  bounds=(0, None), method="highs-ds", options={"presolve": False})
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
                        check_multiplicity: bool = False):
    """Minimize (sum w*a)/(sum w*b) over the Mather subpolytope.

    The denominator must be strictly one-signed on the variables (sign is
    "positive" or "negative").  Charnes-Cooper substitution nu = w/|sum w*b|
    homogenizes the feasible set: closedness rows stay zero, the minimality
    constraint becomes  nu.(L0 + c - tol_min) <= 0, and nu.|b| = 1 replaces
    the mass constraint; the probability measure is recovered as nu/sum(nu).
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
    homog = polytope.action + (polytope.c - polytope.tol_min)
    A_ub = sparse.csr_matrix(homog[None, :])
    A_eq = sparse.vstack([polytope.C, sparse.csr_matrix(beq_row[None, :])])
    b_eq = np.zeros(N + 1)
    b_eq[-1] = 1.0
    res = _run_lp(obj, A_eq, b_eq, A_ub, np.zeros(1))
    nu = res.x
    total = nu.sum()
    if total <= 0:
        raise MatherLPError("degenerate Charnes-Cooper solution with zero mass")
    mu = DiscreteMeasure(polytope.grid, polytope.vset, nu / total)
    value = float(res.fun)
    info = LPInfo(status=res.status, message=res.message)
    if check_multiplicity:
        scale = max(1.0, float(np.max(np.abs(obj))))
        off = (res.x <= 1e-9 * max(total, 1.0)).astype(float)
        A_ub2 = sparse.vstack([A_ub, sparse.csr_matrix(obj[None, :])])
        b_ub2 = np.array([0.0, res.fun + 1e-9 * scale])
        res2 = _run_lp(-off, A_eq, b_eq, A_ub2, b_ub2)
        info.movable_mass = float(-res2.fun / max(res2.x.sum(), 1e-300))
        info.multiplicity = info.movable_mass > 0.01
    return mu, value, info


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
