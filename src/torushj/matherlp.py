"""Mather measures on the lattice graph: the critical value by Howard's
min-plus policy iteration, its static classes, and linear programs over the
closed-measure polytope.

A measure is a nonnegative weight per (node, velocity) pair, an "arc" of
the transition kernel the solver uses (`solver.Transition`).  Closedness is
imposed through that kernel: the pushforward of (x, v) is the arc's head,
the node x + v*dt, and a closed measure is one whose per-node inflow equals
its outflow.  The arc's action is L0(x + v*dt, v), charged at its head as
the solver, the action DP and the barrier charge it.  Minimizing that
action over the polytope yields the discrete critical value and its
minimizing measures.

The critical value is the min-plus eigenvalue of the one-step operator:
eta + u(y) = min_k dt*L0(y, v_k) + u(y - v_k*dt), with c = -eta/dt and eta
the minimal cycle mean of the lattice graph (`solver.lattice_graph`).
`build_polytope` computes eta, the bias u and the critical arcs by Howard's
policy iteration (Cochet-Terrasson, Cohen, Gaubert, McGettrick, Quadrat,
"Numerical computation of spectral elements in max-plus algebra", IFAC
1998), with no linear program; its value determination walks each policy
graph with `solver.policy_walk`.  Its reduced costs certify u: they are
nonnegative up to roundoff, and zero on every arc of a min-mean cycle.
The critical arcs are the zero-cost arcs inside strongly connected
components of the zero-cost graph (`cycle_arcs`); the closed probability
measures on them are exactly the Mather measures, whatever the potential.
Those components are the static classes, which the polytope keeps as one
label per Aubry node (`MatherPolytope.classes`): every simple cycle of
critical arcs, hence every vertex of the Mather face, lies in one class,
and the Peierls barrier is additive through any node of a class.  The
polytope owns that barrier (`MatherPolytope.barrier`), so the selection
layer reads h_G and M(L_G) off one critical problem; it minimizes its
linear-fractional objectives class by class with the ratio form of the
same policy iteration (`_howard` with per-arc denominators).

Off the node lattice there is no lattice graph, so `lattice_graph`, hence
`build_polytope` and the "lp" route of `barrier.critical_value`, raises
ConfigurationError: every polytope is a solved critical problem.  The
closedness operator keeps its stencil branch for any kernel.  Two linear
programs remain, both solved with HiGHS dual simplex (deterministic
pivoting, vertex solutions) and sharing the rows C w = 0, row . w = 1
(`_closed_rows`): the closed-measure LP (`solve_mather_lp`, row = 1), which
serves criterion 7 and the tests as the oracle of c, and one Charnes-Cooper
program over the Mather face (`fractional_minimize`, row = the
denominator), which imposes minimality as an action row with slack tol_min
and serves the tests as the oracle of the selection layer.  A linear
objective is its denominator-one case (`minimize_linear_over_mather`).

Only the linear programs need scipy: the closedness operator
(`closedness_operator`, `MatherPolytope.C`) and the LP helpers import
`scipy.sparse` inside the function, and `_run_lp` imports HiGHS on the
first LP.  Howard's policy iteration and `cycle_arcs` (Tarjan's strongly
connected components) are plain numpy and Python, so a lattice run loads
neither; nor does it load `numpy.ma`, which a plain `np.unique` imports
(`_distinct` gives the same sorted nodes by a bincount).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import DomainError, MatherLPError
from .grids import PeriodicGrid
from .models import ControlModel, VelocitySet
from .solver import Transition, lattice_graph, policy_walk

__all__ = [
    "DiscreteMeasure",
    "MatherPolytope",
    "closedness_operator",
    "build_polytope",
    "cycle_arcs",
    "solve_mather_lp",
    "minimize_linear_over_mather",
    "fractional_minimize",
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


def closedness_operator(arcs: Transition):
    """Sparse (N x N*K) CSR operator whose rows vanish exactly on closed
    measures.

    Row y evaluates sum_{(x,v)} w(x,v) * [binning weight of x + v*dt at y]
    minus sum_v w(y, v), with the heads of the kernel `arcs`.  Rows and
    columns each sum to zero.  Only the LPs read it, so scipy.sparse is
    imported here.
    """
    from scipy import sparse
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
    return sparse.coo_matrix(
        (np.concatenate([vals, -np.ones(N * K)]),
         (np.concatenate([rows, np.repeat(np.arange(N), K)]),
          np.concatenate([cols, np.arange(N * K)]))),
        shape=(N, N * K),
    ).tocsr()


@dataclass
class MatherPolytope:
    """The critical problem of the lattice graph, solved: the kernel, the
    action row, and Howard's solution (`build_polytope`).

    `potential` and `reduced_cost` are per unit time, like `action`: Howard's
    bias u / dt and the reduced arc weights
    (dt*L0 - eta + u[foot] - u[head]) / dt.
    """

    arcs: Transition             # the one transition kernel of (grid, vset, dt)
    action: np.ndarray           # L0 per (node, velocity), flat
    c: float                     # critical value; -c is the LP optimum
    critical_measure: DiscreteMeasure    # one minimizing measure
    reduced_cost: np.ndarray     # >= -zero_tol, flat
    potential: np.ndarray        # certified by reduced_cost
    critical: np.ndarray         # ascending flat arcs of zero reduced cost on
                                 # cycles of such arcs: the Mather support
    classes: np.ndarray          # static class per node, -1 off A
    tol_min: float = 1e-9

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
        return _zero_tol(self.action)

    def static_classes(self):
        """The Aubry set A (ascending), the class of each node of A, and one
        representative per class, its smallest node; classes are numbered
        in the order of their representatives."""
        aubry = np.flatnonzero(self.classes >= 0)
        label = self.classes[aubry]
        return aubry, label, aubry[np.unique(label, return_index=True)[1]]

    @cached_property
    def C(self):
        """`closedness_operator(self.arcs)`, built on first use: the lattice
        routes never read it, only the LPs do."""
        return closedness_operator(self.arcs)

    @cached_property
    def barrier(self):
        """`barrier.peierls_barrier(self)`, computed once; read-only values."""
        from .barrier import peierls_barrier      # barrier imports this module
        return peierls_barrier(self)


def cycle_arcs(foot: np.ndarray, head: np.ndarray, N: int):
    """Mask of the arcs foot -> head that lie on a cycle of the graph they
    form on N nodes, those whose ends share a strongly connected component,
    and the component label of each node.  The components come from
    Tarjan's algorithm (SIAM J. Comput. 1, 1972), iterative, in plain
    Python: it runs on the critical or tight arcs, about N of them."""
    succ = [[] for _ in range(N)]
    for x, y in zip(foot.tolist(), head.tolist()):
        succ[x].append(y)
    index, low, label = [-1] * N, [0] * N, [-1] * N
    stack, count, comps = [], 0, 0
    for root in range(N):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            x, arcs = work[-1]
            for y in arcs:
                if index[y] < 0:          # descend to a new node
                    index[y] = low[y] = count
                    count += 1
                    stack.append(y)
                    work.append((y, iter(succ[y])))
                    break
                if label[y] < 0:          # y is on the stack
                    low[x] = min(low[x], index[y])
            else:                         # x is finished
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[x])
                if low[x] == index[x]:    # x roots a component
                    while True:
                        y = stack.pop()
                        label[y] = comps
                        if y == x:
                            break
                    comps += 1
    label = np.array(label)
    return label[foot] == label[head], label


def _distinct(a: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of an array of non-negative intp, sorted, as
    `np.unique(a)` gives them; plain `np.unique` loads `numpy.ma`."""
    return np.flatnonzero(np.bincount(a, minlength=size))


def _zero_tol(action: np.ndarray) -> float:
    return 1e-9 * max(1.0, float(np.max(np.abs(action))))


def build_polytope(model: ControlModel, arcs: Transition) -> MatherPolytope:
    """Assemble the polytope on the kernel `arcs` and solve its critical
    problem once, by Howard's policy iteration (`_howard`): the critical
    value, one minimizing measure, a potential with its reduced costs, the
    critical arcs and their static classes.  The potential must pass the
    certificate reduced_cost >= -zero_tol (MatherLPError otherwise).  A
    kernel whose hops leave the node lattice raises ConfigurationError."""
    L0 = lattice_graph(model, arcs)
    dt, N, K = arcs.dt, arcs.grid.size, arcs.vset.count
    # L0 is charged at the arc's head.  Arc (k, y) runs from its foot
    # take[k, y] to y; in the flat (x, k) order of the polytope it is
    # x * K + k, x the foot.
    foot = arcs.take
    flat = foot * K + np.arange(K)[:, None]                    # (K, N)
    action = np.empty(N * K)
    action[flat] = L0
    W = dt * L0
    eta, u, pol, _ = _howard(foot, W, np.ones_like(W))
    star = float(eta.min())
    reduced = (W - star + u[foot] - u[None, :]) / dt              # (K, N)
    reduced_cost = np.empty(N * K)
    reduced_cost[flat] = reduced
    zero_tol = _zero_tol(action)
    if reduced_cost.min() < -zero_tol:
        raise MatherLPError(f"reduced cost {reduced_cost.min():.3g} < 0: the "
                            "policy-iteration potential does not certify c")
    k, y = np.nonzero(reduced <= zero_tol)
    on, label = cycle_arcs(foot[k, y], y, N)
    # the static classes, numbered in the order of their smallest node
    aubry = _distinct(y[on], N)
    _, first, cls = np.unique(label[aubry], return_index=True, return_inverse=True)
    classes = np.full(N, -1)
    classes[aubry] = np.argsort(np.argsort(first))[cls]
    # the policy's cycle upstream of a node of minimal mean
    cycle = next(policy_walk(foot[pol, np.arange(N)], (int(np.argmin(eta)),)))[0]
    weights = np.zeros(N * K)
    weights[flat[pol[cycle], cycle]] = 1.0 / len(cycle)
    return MatherPolytope(arcs=arcs, action=action, c=-star / dt,
                          critical_measure=DiscreteMeasure(arcs.grid, arcs.vset, weights),
                          reduced_cost=reduced_cost, potential=u / dt,
                          critical=np.sort(flat[k[on], y[on]]), classes=classes)


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
    pred, w, d, old = pred.tolist(), w.tolist(), d.tolist(), u_old.tolist()
    eta, u = [0.0] * len(pred), [0.0] * len(pred)
    for cycle, tree in policy_walk(pred):
        if cycle:
            j = cycle.index(min(cycle))
            cycle = cycle[j:] + cycle[:j]
            ratio = sum(w[z] for z in cycle) / sum(d[z] for z in cycle)
            eta[cycle[0]], u[cycle[0]] = ratio, old[cycle[0]]
            tree = cycle[:0:-1] + tree    # the rest of the cycle hangs from cycle[0]
        for z in tree:
            p = pred[z]
            eta[z], u[z] = eta[p], (w[z] - eta[p] * d[z]) + u[p]
    return np.array(eta), np.array(u)


def _run_lp(cvec, A_eq, b_eq, A_ub=None, b_ub=None):
    from scipy.optimize import linprog   # HiGHS loads on the first LP only
    # dual simplex without presolve: on these closedness programs HiGHS's
    # presolve took more than half of the solve and removed little.  At the
    # default feasibility tolerance, 1e-7, vertex weights fell below -1e-9;
    # at 1e-10 HiGHS gave up (status Unknown) on a 2-d face program
    res = linprog(c=cvec, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub,
                  bounds=(0, None), method="highs-ds",
                  options={"presolve": False, "primal_feasibility_tolerance": 3e-10})
    if res.status == 2:
        raise MatherLPError(
            "LP infeasible: closedness operator rank defect or minimality slack "
            "too tight (increase tol_min)"
        )
    if res.status != 0:
        raise MatherLPError(f"LP failed with status {res.status}: {res.message}")
    return res


def _closed_rows(polytope: MatherPolytope, row: np.ndarray):
    """The equality rows C w = 0, row . w = 1 of a closed-measure program."""
    from scipy import sparse
    return (sparse.vstack([polytope.C, sparse.csr_matrix(row[None, :])]),
            np.append(np.zeros(polytope.grid.size), 1.0))


def solve_mather_lp(model: ControlModel, polytope: MatherPolytope):
    """Minimize the u = 0 action over closed probability measures.

    Returns (measure, optimal value, None), the None standing for the
    multiplicity flag this program does not compute; the critical value is
    minus the optimum.  Unboundedness cannot occur (mass constraint) and is
    surfaced as an internal error.
    """
    res = _run_lp(polytope.action, *_closed_rows(polytope, np.ones(polytope.num_vars)))
    return DiscreteMeasure(polytope.grid, polytope.vset, res.x), float(res.fun), None


def minimize_linear_over_mather(polytope: MatherPolytope, cost: np.ndarray,
                                check_multiplicity: bool = False):
    """Minimize a linear functional over the Mather subpolytope: the
    denominator-one case of `fractional_minimize`, with the same returns."""
    return fractional_minimize(polytope, cost, np.ones(polytope.num_vars),
                               check_multiplicity)


def fractional_minimize(polytope: MatherPolytope, numerator: np.ndarray,
                        denominator: np.ndarray, check_multiplicity: bool = False):
    """Minimize (sum w*a)/(sum w*b) over the Mather subpolytope.

    The denominator b must be strictly one-signed (DomainError otherwise);
    its sign s is read from b.  Charnes-Cooper substitution nu = w/(s sum
    w*b) homogenizes the feasible set: closedness rows stay zero, the
    minimality constraint becomes nu.(L0 + c - tol_min) <= 0, and s b.nu = 1
    replaces the mass constraint; the optimum is min s a.nu, and the
    probability measure is recovered as nu/sum(nu).

    Returns (measure, value, multiplicity).  The multiplicity flag is None
    unless check_multiplicity is set; then a second LP maximizes the share
    of nu movable off the support of the returned vertex while staying on
    the optimal face, and the flag is that share > 1%.  Reduced-cost
    inspection alone cannot tell a degenerate vertex from a genuine
    alternative optimum, since these optima are sparse and thus heavily
    degenerate.
    """
    from scipy import sparse
    a = np.asarray(numerator, dtype=float).ravel()
    b = np.asarray(denominator, dtype=float).ravel()
    if a.size != polytope.num_vars or b.size != polytope.num_vars:
        raise DomainError("numerator/denominator length mismatch")
    sign = np.sign(b[0])
    if not np.all(sign * b > 0):
        raise DomainError("denominator not strictly one-signed")
    obj = sign * a
    A_ub = sparse.csr_matrix(polytope.action[None, :] + (polytope.c - polytope.tol_min))
    A_eq, b_eq = _closed_rows(polytope, sign * b)
    res = _run_lp(obj, A_eq, b_eq, A_ub, np.zeros(1))
    total = res.x.sum()
    if total <= 0:
        raise MatherLPError("degenerate Charnes-Cooper solution with zero mass")
    mu = DiscreteMeasure(polytope.grid, polytope.vset, res.x / total)
    multiplicity = None
    if check_multiplicity:
        scale = max(1.0, float(np.max(np.abs(obj))))
        off = (res.x <= 1e-9 * max(total, 1.0)).astype(float)
        A_ub2 = sparse.vstack([A_ub, sparse.csr_matrix(obj[None, :])])
        b_ub2 = np.array([0.0, res.fun + 1e-9 * scale])
        res2 = _run_lp(-off, A_eq, b_eq, A_ub2, b_ub2)
        multiplicity = bool(-res2.fun / max(res2.x.sum(), 1e-300) > 0.01)
    return mu, float(res.fun), multiplicity


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
