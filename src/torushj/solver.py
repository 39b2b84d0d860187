"""Monotone semi-Lagrangian fixed-point solver for the discounted equation.

The discrete update at node x is

    T[u](x) = min_v  dt * ( L(x, v, lam*u~) - lam*V(x, lam) + c0 ) + u~,
    u~ = periodic multilinear interpolation of u at the foot point x - v*dt,

solved for its fixed point.  The u-argument of L is the foot value u~, which
makes w |-> w + dt*L(x, v, lam*w) strictly increasing whenever
dt*lam*max(sigma) < 1, so T is exactly monotone and commutes with constants
up to the discount factor.  Iterates start from the midpoint of the
sub/supersolution bracket and are clamped to it.

By default dt = h / (velocity lattice step), which makes every foot point a
grid node: characteristics then live on the lattice exactly, the scheme has
no interpolation bias, and the dynamic-programming branch along backward
curves is exact.  Any other positive dt is supported through interpolation.
`Transition`, the one kernel of the package, alone takes the (grid, velocity
set, dt) triple, resolves a missing dt, refuses a bad one and builds
whole-cell arcs by index arithmetic; every other entry point takes a kernel,
and a field on another grid is refused (`Transition.values_of`).  `on_arcs`
evaluates a function of (x, v) on its arcs, and `lattice_graph` L0 there.

Each solver step is one Howard policy evaluation.  The argmin arcs of T[u]
form a policy pi, and u <- u + (I - diag(a) P_pi)^-1 (T[u] - u) with
a = 1 - lam*dt*sigma, sigma = -dL/du(x, 0) and P_pi the foot stencil of the
chosen arcs.  For couplings affine in u this is exactly Howard's policy
iteration (Bokanowski-Maroso-Zidani, SIAM J. Numer. Anal. 47, 2009), which
ends in finitely many evaluations; otherwise it is a chord iteration that
is exact on the constant mode.  A step that the bracket clamp leaves
unchanged ends the solve as stalled.  The evaluation needs no sparse
algebra (`Transition.evaluate_policy`): with integer hops P_pi maps each
node to one foot, and a walk over the cycles and trees of that functional
graph solves it exactly; off the lattice it is a dense numpy solve.  So the
solver, like every lattice run, loads no `scipy.sparse`.  That walk is
`policy_walk`, which `matherlp`'s value determination and cycles read too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import getitem, mul
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DomainError, SolveError
from .grids import (GridField, PeriodicGrid, interpolation_stencil, product_lattice,
                    wrap_unit)
from .models import ControlModel, VelocitySet

__all__ = [
    "SolveReport",
    "Bracket",
    "Transition",
    "on_arcs",
    "default_dt",
    "lattice_graph",
    "policy_walk",
    "bellman_apply",
    "compute_bracket",
    "solve_perturbed",
    "residual",
    "nonexistence_certificate",
    "lambda_sweep",
]

LAMBDA_PROBES = (0.1, 0.01, 0.001)    # compute_bracket bounds |V(., lam)| at these
CERTIFICATE_MARGIN = 1e-9             # nonexistence_certificate's margin above c0
BRACKET_BLOCK = 1 << 16               # entries of one (momenta x nodes) block


@dataclass
class SolveReport:
    lam: float
    iterations: int
    final_residual: float
    bracket_violations: int
    converged: bool
    lambda_above_lambda0: bool = False
    stalled: bool = False


@dataclass
class Bracket:
    """Sub/supersolution envelope of the discounted equation.

    lower/upper are the shifted critical solution u^ -+ (max/min adjustments
    plus kappa/delta); T bounds their sup norms.  lambda0 is the conservative
    discount threshold below which the bracket is guaranteed to enclose the
    solution.
    """

    lower: GridField
    upper: GridField
    lambda0: float
    K0: float
    delta: float
    kappa: float
    T: float
    C2: float = 0.0


class Transition:
    """The one transition kernel of a (grid, velocity set, dt) triple.

    Arc (k, x) leaves node x with velocity v_k for one time step.  The
    Bellman update, the action DP and backward curves read values at its
    foot x - v*dt; the closedness operator pushes mass to its head x + v*dt.
    With integer hops (v*dt/h whole for every velocity) both ends are nodes;
    otherwise they are periodic multilinear stencils.  dt defaults to
    `default_dt`; one not positive and finite raises ConfigurationError.
    `take` and `w` hold the foot stencil in (K, N) C order, `heads` the head
    stencil.  Each stencil is built the first time it is read, so a kernel
    that only samples feet (`foot_sampler`) or only pushes mass to heads
    builds no foot stencil.
    """

    def __init__(self, grid: PeriodicGrid, vset: VelocitySet, dt: Optional[float] = None):
        if vset.d != grid.d:
            raise ConfigurationError("velocity set and grid dimensions differ")
        dt = default_dt(grid, vset) if dt is None else float(dt)
        if not (math.isfinite(dt) and dt > 0):
            raise ConfigurationError(f"time step dt must be positive and finite, got {dt:g}")
        self.grid, self.vset, self.dt = grid, vset, dt
        hops = vset.velocities * (dt / grid.h)          # (K, d), in cells
        self.integer_hops = bool(np.max(np.abs(hops - np.rint(hops))) < 1e-9)

    def values_of(self, field: GridField) -> np.ndarray:
        """The field's values; one on another grid raises ConfigurationError."""
        if field.grid != self.grid:
            raise ConfigurationError(f"a field on {field.grid} given to a kernel "
                                     f"on {self.grid}")
        return field.values

    @cached_property
    def _foot(self):
        return self.stencil(-1)

    @property
    def take(self) -> np.ndarray:
        """Foot node indices: (K, N) with integer hops, else (K, N, S)."""
        return self._foot[0]

    @property
    def w(self) -> Optional[np.ndarray]:
        """Foot stencil weights (K, N, S), or None with integer hops."""
        return self._foot[1]

    def stencil(self, sign: int):
        """Arc ends x + sign*v*dt: with integer hops (K, N) node indices, each
        node's multi-index plus sign times the cells of v*dt, and None; else
        (K, N, S) stencil indices and convex weights."""
        grid = self.grid
        if self.integer_hops:       # the whole cells of v*dt, mod n, and the nodes
            cells = np.rint(np.mod(self.vset.velocities * (self.dt / grid.h), grid.n))
            nodes = product_lattice(np.arange(grid.n), grid.d)                  # (N, d)
            return grid.flat_index(nodes + sign * cells.astype(np.int64)[:, None, :]), None
        ends = grid.node_coords()[None, :, :] + sign * self.vset.velocities[:, None, :] * self.dt
        return interpolation_stencil(grid, ends)

    @cached_property
    def heads(self):
        """Arc heads x + v*dt, `stencil(+1)`, computed once."""
        return self.stencil(+1)

    def foot_values(self, values: np.ndarray) -> np.ndarray:
        """Field values at all foot points, shape (K, N).  Off the lattice the
        stencil terms are added left to right, as np.sum over the stencil
        axis adds them, in a quarter of its time."""
        if self.integer_hops:
            return values[self.take]
        corners, w = values[self.take], self.w
        out = corners[..., 0] * w[..., 0]
        for s in range(1, w.shape[-1]):
            out += corners[..., s] * w[..., s]
        return out

    def foot_sampler(self, values: np.ndarray, snap: bool = False):
        """A function Y -> (feet, fv) for the backward-trace loop: the K feet
        y - v*dt of each of S points Y (S, d), wrapped into [0, 1)^d, and the
        field's values there, arrays (S, K, d) and (S, K).  With snap, each
        foot is first rounded to its nearest node.  The arithmetic is that of
        `wrap_points` and `interpolation_stencil`, done per axis on a copy of
        the field padded by two nodes per axis, so that no stencil index
        wraps; every entry is the same float whatever S is.  The feet are
        wrapped in place by `wrap_unit`, and the sampler reads neither `take`
        nor `w`."""
        n, d = self.grid.n, self.grid.d
        vdt = self.vset.velocities * self.dt
        pad = np.pad(values.reshape((n,) * d), (0, 2), mode="wrap").ravel()
        # the 2^d cell corners in the stencil's order, each as the padded
        # field shifted by its flat offset, so that a corner is one gather
        corners = product_lattice((0, 1), d)
        offsets = corners @ (n + 2) ** np.arange(d - 1, -1, -1)
        stencil = [(c, pad[off:]) for c, off in zip(corners.tolist(), offsets)]

        def feet_at(Y):
            feet = Y[:, None, :] - vdt                   # (S, K, d)
            wrap_unit(feet, out=feet)
            if snap:
                feet = np.rint(feet * n) / n
                feet[feet >= 1.0] = 0.0
            s = feet * n
            i = s.astype(np.intp)                   # the floor, as s >= 0
            t = s - i
            base = i[..., 0]
            for a in range(1, d):
                base = base * (n + 2) + i[..., a]
            sides = [(1.0 - t[..., a], t[..., a]) for a in range(d)]
            # each corner's weight is built as its term is, and the terms are
            # summed in place: holding all 2^d weights or terms at once made
            # the sampler slower
            terms = (shifted[base] * reduce(mul, map(getitem, sides, corner))
                     for corner, shifted in stencil)
            fv = next(terms)
            for term in terms:
                fv += term
            return feet, fv

        return feet_at

    def policy_matrix(self, pol: np.ndarray) -> np.ndarray:
        """P_pi as a dense (N, N) array: row x is the foot stencil of arc
        (pol[x], x), so P_pi @ v == foot_values(v)[pol, arange(N)]."""
        N = self.grid.size
        rows = np.arange(N)
        cols = self.take[pol, rows].reshape(N, -1)
        vals = np.ones(cols.shape) if self.w is None else self.w[pol, rows]
        P = np.zeros((N, N))
        np.add.at(P, (np.repeat(rows, cols.shape[1]), cols.ravel()), vals.ravel())
        return P

    def evaluate_policy(self, pol: np.ndarray, decay: np.ndarray,
                        rhs: np.ndarray) -> np.ndarray:
        """The solution z of (I - diag(decay) P_pi) z = rhs, 0 < decay < 1.
        With integer hops P_pi maps each node to one foot, so z solves
        z(x) = rhs(x) + decay(x) z(foot(x)) on the policy's functional graph
        (`_discounted_walk`); otherwise a dense solve of `policy_matrix`."""
        if self.integer_hops:
            return _discounted_walk(self.take[pol, np.arange(pol.size)], decay, rhs)
        return np.linalg.solve(np.eye(pol.size) - decay[:, None] * self.policy_matrix(pol),
                               rhs)


def _discounted_walk(pred: np.ndarray, a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The solution z of z(y) = r(y) + a(y) z(pred(y)), 0 < a < 1, on the
    functional graph y -> pred(y) (`policy_walk`), the discounted analogue of
    `matherlp._policy_values`.  A cycle y_0, ..., y_{L-1} with
    pred(y_t) = y_{t+1} closes at its entry node y_0:
    z(y_0) = sum_t (prod_{s<t} a(y_s)) r(y_t) / (1 - prod_t a(y_t)); every
    other node takes one step of the recursion from its predecessor."""
    pred, a, r = pred.tolist(), a.tolist(), r.tolist()
    z = [0.0] * len(pred)
    for cycle, tree in policy_walk(pred):
        if cycle:
            acc, gain = 0.0, 1.0
            for x in cycle:
                acc += gain * r[x]
                gain *= a[x]
            # a cycle that does not discount leaves z undetermined: nan,
            # which the solver reports as a DomainError
            z[cycle[0]] = acc / (1.0 - gain) if gain != 1.0 else math.nan
            tree = cycle[:0:-1] + tree    # the rest of the cycle hangs from y_0
        for x in tree:
            z[x] = r[x] + a[x] * z[pred[x]]
    return np.array(z)


def policy_walk(pred, starts=None):
    """Walk the functional graph y -> pred[y] from each start (every node
    when starts is None) that no earlier walk visited, and yield per walk
    (cycle, tree): the cycle it closed, in walk order (pred(cycle[t]) =
    cycle[t + 1], wrapping), or [] if it ran into an earlier walk; and its
    other new nodes, each after its predecessor.  Over all starts every node
    is yielded once.  A list pred indexes faster than an array."""
    walk = [-1] * len(pred)           # the start whose walk visited the node
    for start in range(len(pred)) if starts is None else starts:
        if walk[start] >= 0:
            continue
        path, y = [], start
        while walk[y] < 0:
            walk[y] = start
            path.append(y)
            y = pred[y]
        cycle = []
        if walk[y] == start:          # the walk closed a new cycle at y
            i = path.index(y)
            cycle = path[i:]
            del path[i:]
        path.reverse()
        yield cycle, path


def on_arcs(arcs: Transition, fn, *args) -> np.ndarray:
    """fn(x, v, *args) at every arc (velocity k, node x), shape (K, N)."""
    X, V = arcs.grid.node_coords(), arcs.vset.velocities
    shape = (len(V),) + X.shape
    XK = np.broadcast_to(X[None, :, :], shape)
    VK = np.broadcast_to(V[:, None, :], shape)
    return np.asarray(fn(XK, VK, *args), dtype=float)


def default_dt(grid: PeriodicGrid, vset: VelocitySet) -> float:
    """Time step aligning every velocity hop with the node lattice."""
    return grid.h / vset.spacing


def lattice_graph(model: ControlModel, arcs: Transition) -> np.ndarray:
    """L0(y, v_k), charged at the head, on the arcs (k, y) from take[k, y] to y
    of the lattice graph, shape (K, N); hops off the node lattice raise
    ConfigurationError."""
    if not arcs.integer_hops:
        raise ConfigurationError(
            f"dt = {arcs.dt:g} moves velocities off the node lattice; the lattice "
            "graph needs whole-cell hops (dt = h / velocity step)")
    return on_arcs(arcs, model.L, 0.0)


class _Kernel:
    """Per-solve precomputation: base costs plus the u-coupling hook."""

    def __init__(self, model: ControlModel, lam: float, arcs: Transition):
        if model.c0 is None:
            raise ConfigurationError(
                "model.c0 is unset; fill it via barrier.critical_value first"
            )
        self.model = model
        self.lam = float(lam)
        self.arcs, self.dt = arcs, arcs.dt
        self.X = arcs.grid.node_coords()
        L0 = on_arcs(arcs, model.L, 0.0)
        Vlam = np.asarray(model.V(self.X, lam), dtype=float) if lam != 0.0 else 0.0
        self.base = self.dt * (L0 - lam * Vlam + model.c0)      # (K, N)
        self._L0 = L0 if model.L_u_part is None else None

    def candidates(self, values: np.ndarray) -> np.ndarray:
        """The Bellman candidate of every arc, shape (K, N)."""
        fv = self.arcs.foot_values(values)
        if self.lam == 0.0:
            return self.base + fv
        if self.model.L_u_part is not None:
            return self.base + self.dt * self.model.L_u_part(self.X, self.lam * fv) + fv
        Lfull = on_arcs(self.arcs, self.model.L, self.lam * fv)
        return self.base + self.dt * (Lfull - self._L0) + fv

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.candidates(values).min(axis=0)


def bellman_apply(model: ControlModel, lam: float, u: GridField,
                  arcs: Transition) -> GridField:
    """One application of the discounted Bellman update (lam = 0 gives the
    critical operator)."""
    return GridField(u.grid, _Kernel(model, lam, arcs).apply(arcs.values_of(u)))


def residual(model: ControlModel, lam: float, u: GridField, arcs: Transition) -> float:
    """Sup-norm fixed-point defect per unit time, ||u - T[u]||_inf / dt."""
    values = arcs.values_of(u)
    return float(np.max(np.abs(values - _Kernel(model, lam, arcs).apply(values))) / arcs.dt)


def one_sided_subsolution_defect(model: ControlModel, w: GridField,
                                 arcs: Transition) -> float:
    """max(w - T0[w])/dt; nonpositive (up to tolerance) iff w is a discrete
    subsolution of the critical equation."""
    values = arcs.values_of(w)
    return float(np.max(values - _Kernel(model, 0.0, arcs).apply(values)) / arcs.dt)


def _min_over_nodes(fn, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """min over the nodes X of fn(x, p), per momentum p of P: shape (len(P),).
    The (momenta x nodes) product is evaluated in blocks of nodes, each of
    at most BRACKET_BLOCK entries, so that memory stays O(N + P)."""
    step = max(1, BRACKET_BLOCK // len(P))
    out = np.full(len(P), np.inf)
    for i in range(0, len(X), step):
        block = X[None, i:i + step, :]
        vals = np.asarray(fn(block, P[:, None, :]), dtype=float)
        np.minimum(out, np.broadcast_to(vals, (len(P), block.shape[1])).min(axis=1),
                   out=out)
    return out


def compute_bracket(model: ControlModel, critical_solution: GridField) -> Bracket:
    """Sub/supersolution bracket around a solution of the critical equation.

    delta is the sampled minimum of dH/du(x, p, 0) over momenta up to the
    critical Lipschitz bound K0; kappa-1 bounds |V| over the probe discounts;
    T = K0*diam + kappa/delta bounds both bracket fields.  lambda0 is the
    conservative default min(0.1, delta / (2*T*C2)) with C2 the sampled
    second-order u-remainder of L (C2 = 0 for u-linear models, capping
    lambda0 at 0.1).
    """
    if model.c0 is None:
        raise ConfigurationError("model.c0 must be set before computing brackets")
    grid = critical_solution.grid
    X = grid.node_coords()
    d = grid.d

    # K0 = sup{|p| : H(x,p,0) <= c0} sampled on a momentum lattice.
    paxis = np.linspace(-model.p_box, model.p_box, 513 if d == 1 else 65)
    P = product_lattice(paxis, d)
    sub = _min_over_nodes(lambda x, p: model.H(x, p, 0.0), X, P) <= model.c0 + 1e-9
    pnorm = np.sqrt(np.sum(P**2, axis=1))
    K0 = float(pnorm[sub].max()) if np.any(sub) else 0.0
    K0 += paxis[1] - paxis[0]                         # one lattice step of slack

    # delta = min dH/du(x,p,0) over the sampled compact set S0.
    keep = pnorm <= K0 + 1e-12
    Psub = P[keep] if np.any(keep) else P[:1]
    delta = float(_min_over_nodes(model.dHdu0, X, Psub).min())
    if delta <= 0.0:
        raise ConfigurationError(
            "sampled dH/du(x,p,0) is not positive; the monotonicity/derivative "
            "hypotheses fail for this model"
        )

    kappa = 1.0
    for lam in LAMBDA_PROBES:
        kappa = max(kappa, 1.0 + float(np.max(np.abs(model.V(X, lam)))))

    diam = 0.5 * math.sqrt(d)
    T = K0 * diam + kappa / delta

    uhat = critical_solution.values
    lower = GridField(grid, uhat - uhat.max() - kappa / delta)
    upper = GridField(grid, uhat - uhat.min() + kappa / delta)

    # Sampled second-order u-remainder of L on a coarse (x, v, u) lattice.
    Vp = product_lattice(np.linspace(-3.0, 3.0, 13), d)
    base_L = model.L(X[None, :, :], Vp[:, None, :], 0.0)
    slope = model.dLdu0(X[None, :, :], Vp[:, None, :])
    C2 = 0.0
    for uu in (-1.0, -0.3, -0.03, 0.03, 0.3, 1.0):
        rem = np.abs(model.L(X[None, :, :], Vp[:, None, :], uu) - base_L - uu * slope)
        C2 = max(C2, float(rem.max()) / uu**2)
    lambda0 = 0.1 if C2 < 1e-12 else min(0.1, delta / (2.0 * T * C2))

    return Bracket(lower=lower, upper=upper, lambda0=lambda0,
                   K0=K0, delta=delta, kappa=kappa, T=T, C2=C2)


def solve_perturbed(model: ControlModel, lam: float, arcs: Transition,
                    tol: float = 1e-8, max_iter: int = 200000,
                    bracket: Optional[Bracket] = None,
                    init: Optional[GridField] = None):
    """Fixed point of the discounted Bellman update; returns (field, report).

    Converged means the sup-norm defect per unit time fell below tol; the
    report counts policy evaluations.  When lam exceeds the bracket's lambda0
    the solve proceeds anyway (the nonexistence probe relies on this) with a
    warning flag on the report.  Non-convergence (max_iter, or a step that
    the bracket clamp leaves unchanged: stalled) still returns the field.
    """
    if lam <= 0:
        raise ConfigurationError("discount lam must be positive")
    kernel = _Kernel(model, lam, arcs)
    X, nodes, dt, grid = kernel.X, np.arange(arcs.grid.size), arcs.dt, arcs.grid
    sigma_nodes = -np.asarray(model.dLdu0(X, np.zeros_like(X)), dtype=float)
    if lam * dt * float(sigma_nodes.max()) >= 1.0:
        raise ConfigurationError(
            "dt*lam*max(sigma) >= 1 breaks monotonicity of the update; shrink dt"
        )
    decay = 1.0 - lam * dt * sigma_nodes

    lo = hi = None
    if bracket is not None:
        lo, hi = arcs.values_of(bracket.lower), arcs.values_of(bracket.upper)
    if init is not None:
        u = arcs.values_of(init).copy()
    elif bracket is not None:
        u = 0.5 * (lo + hi)
    else:
        u = np.zeros(grid.size)

    it = clamp_active = 0
    stalled = False
    while True:
        cand = kernel.candidates(u)
        pol = cand.argmin(axis=0)
        Tu = cand[pol, nodes]
        res = float(np.max(np.abs(Tu - u)) / dt)
        if res <= tol or stalled or it == max_iter:
            break
        it += 1
        new = u + arcs.evaluate_policy(pol, decay, Tu - u)
        if not np.all(np.isfinite(new)):
            raise DomainError("policy evaluation left the field values non-finite")
        if lo is not None:
            clamp_active = int(np.sum((new < lo) | (new > hi)))
            np.clip(new, lo, hi, out=new)
        stalled = bool(np.array_equal(new, u))
        u = new

    converged = res <= tol
    violations = clamp_active
    if lo is not None and converged:
        # The clamp must be inactive at convergence: the raw update of the
        # returned field has to sit inside the bracket on its own.
        violations = int(np.sum((Tu < lo - 1e-9) | (Tu > hi + 1e-9)))
    report = SolveReport(
        lam=lam, iterations=it, final_residual=res,
        bracket_violations=violations, converged=converged,
        lambda_above_lambda0=bool(bracket is not None and lam > bracket.lambda0),
        stalled=stalled,
    )
    return GridField(grid, u), report


def nonexistence_certificate(model: ControlModel, lam: float, grid: PeriodicGrid) -> bool:
    """Certify that the discounted equation has no (sub)solution at this lam.

    True iff  min_x [ inf_u H(x, 0, u) + lam*V(x, lam) ] > c0 + CERTIFICATE_MARGIN, which
    contradicts the subsolution inequality at an interior maximum.  False is
    not a proof of existence.
    """
    if model.c0 is None:
        raise ConfigurationError("model.c0 must be set")
    if model.H_inf_u is None:
        raise ConfigurationError("model.H_inf_u must be set")
    X = grid.node_coords()
    infH = np.asarray(model.H_inf_u(X), dtype=float)
    crit = float(np.min(infH + lam * np.asarray(model.V(X, lam), dtype=float)))
    return crit > model.c0 + CERTIFICATE_MARGIN


@dataclass
class SweepEntry:
    lam: float
    field: Optional[GridField]
    report: Optional[SolveReport]
    error: Optional[Exception] = None       # the failed solve's own exception


def lambda_sweep(model: ControlModel, lambdas, arcs: Transition,
                 **solver_kwargs) -> list[SweepEntry]:
    """Solve a strictly descending discount schedule with warm starts.

    The typed failures of one solve (SolveError, ConfigurationError, and
    DomainError from a non-finite field) are recorded, as the exception
    itself, in its entry and do not abort the sweep; any other exception
    propagates.
    """
    lams = [float(x) for x in lambdas]
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise ConfigurationError("lambda schedule must be strictly descending")
    out: list[SweepEntry] = []
    warm = solver_kwargs.pop("init", None)
    for lam in lams:
        try:
            fld, rep = solve_perturbed(model, lam, arcs, init=warm, **solver_kwargs)
            out.append(SweepEntry(lam, fld, rep))
            warm = fld
        except (SolveError, ConfigurationError, DomainError) as exc:
            out.append(SweepEntry(lam, None, None, error=exc))
    return out
