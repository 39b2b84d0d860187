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
curves is exact.  Any other dt (including much smaller ones) is supported
through interpolation.  `Transition` holds these arcs once for the whole
package: the action DP (barrier), the closedness operator (matherlp) and
backward curves use the same kernel, and `on_arcs` evaluates a function of
(x, v) on all of its arcs.

Each solver step is one Howard policy evaluation.  The argmin arcs of T[u]
form a policy pi, and u <- u + (I - diag(a) P_pi)^-1 (T[u] - u) with
a = 1 - lam*dt*sigma, sigma = -dL/du(x, 0) and P_pi the foot stencil of the
chosen arcs.  For couplings affine in u this is exactly Howard's policy
iteration (Bokanowski-Maroso-Zidani, SIAM J. Numer. Anal. 47, 2009), which
ends in finitely many evaluations; otherwise it is a chord iteration that
is exact on the constant mode.  A step that the bracket clamp leaves
unchanged ends the solve as stalled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import getitem, mul
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .errors import ConfigurationError, DomainError, SolveError
from .grids import GridField, PeriodicGrid, interpolation_stencil, product_lattice
from .models import ControlModel, VelocitySet

__all__ = [
    "SolveReport",
    "Bracket",
    "Transition",
    "on_arcs",
    "default_dt",
    "bellman_apply",
    "compute_bracket",
    "solve_perturbed",
    "residual",
    "nonexistence_certificate",
    "lambda_sweep",
]


@dataclass
class SolveReport:
    lam: float
    iterations: int
    final_residual: float
    bracket_violations: int
    converged: bool
    lambda_above_lambda0: bool = False
    stalled: bool = False

    def __post_init__(self):
        if self.converged and self.final_residual > self._tol_used:
            raise SolveError("converged report with residual above tolerance")

    _tol_used: float = field(default=np.inf, repr=False)


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

    def midpoint(self) -> GridField:
        return GridField(self.lower.grid, 0.5 * (self.lower.values + self.upper.values))


class Transition:
    """The one transition kernel of a (grid, velocity set, dt) triple.

    Arc (k, x) leaves node x with velocity v_k for one time step.  The
    Bellman update, the action DP and backward curves read values at its
    foot x - v*dt; the closedness operator pushes mass to its head x + v*dt.
    With integer hops (v*dt/h whole for every velocity) both ends are nodes;
    otherwise they are periodic multilinear stencils.  `take` and `w` hold
    the foot stencil in (K, N) C order, `heads` the head stencil.
    """

    def __init__(self, grid: PeriodicGrid, vset: VelocitySet, dt: float):
        if vset.d != grid.d:
            raise ConfigurationError("velocity set and grid dimensions differ")
        self.grid, self.vset, self.dt = grid, vset, float(dt)
        hops = vset.velocities * (self.dt / grid.h)     # (K, d), in cells
        self.integer_hops = bool(np.max(np.abs(hops - np.rint(hops))) < 1e-9)
        self.take, self.w = self.stencil(-1)

    def stencil(self, sign: int):
        """Arc ends x + sign*v*dt: (K, N) node indices and None with integer
        hops, else (K, N, S) stencil indices and convex weights."""
        ends = (self.grid.node_coords()[None, :, :]
                + sign * self.vset.velocities[:, None, :] * self.dt)
        if self.integer_hops:
            return self.grid.nearest_node(ends), None
        return interpolation_stencil(self.grid, ends)

    @cached_property
    def heads(self):
        """Arc heads x + v*dt, computed once: with integer hops the (K, N)
        node indices that invert each foot map `take`, and None; else
        `stencil(+1)`."""
        if self.w is not None:
            return self.stencil(+1)
        K, N = self.take.shape
        head = np.empty_like(self.take)
        head[np.arange(K)[:, None], self.take] = np.arange(N)
        return head, None

    def foot_values(self, values: np.ndarray) -> np.ndarray:
        """Field values at all foot points, shape (K, N)."""
        if self.w is None:
            return values[self.take]
        return np.sum(values[self.take] * self.w, axis=-1)

    def foot_sampler(self, values: np.ndarray, snap: bool = False):
        """A function Y -> (feet, fv) for the backward-trace loop: the K feet
        y - v*dt of each of S points Y (S, d), wrapped into [0, 1)^d, and the
        field's values there, arrays (S, K, d) and (S, K).  With snap, each
        foot is first rounded to its nearest node.  The arithmetic is that of
        `wrap_points` and `interpolation_stencil`, done per axis on a copy of
        the field padded by two nodes per axis, so that no stencil index
        wraps; every entry is the same float whatever S is."""
        n, d = self.grid.n, self.grid.d
        vdt = self.vset.velocities * self.dt
        pad = np.pad(values.reshape((n,) * d), (0, 2), mode="wrap").ravel()
        # the 2^d cell corners in the stencil's order, each as the padded
        # field shifted by its flat offset, so that a corner is one gather
        corners = product_lattice((0, 1), d)
        offsets = corners @ (n + 2) ** np.arange(d - 1, -1, -1)
        stencil = [(c, pad[off:]) for c, off in zip(corners.tolist(), offsets)]

        def feet_at(Y):
            feet = np.mod(Y[:, None, :] - vdt, 1.0)      # (S, K, d)
            feet[feet >= 1.0] = 0.0
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

    def policy_matrix(self, pol: np.ndarray) -> sparse.csr_matrix:
        """P_pi as an (N, N) CSR matrix: row x is the foot stencil of arc
        (pol[x], x), so P_pi @ v == foot_values(v)[pol, arange(N)]."""
        rows = np.arange(self.grid.size)
        cols = self.take[pol, rows].reshape(rows.size, -1)
        vals = np.ones(cols.shape) if self.w is None else self.w[pol, rows]
        return sparse.csr_matrix((vals.ravel(), cols.ravel(),
                                  np.arange(0, cols.size + 1, cols.shape[1])),
                                 shape=(rows.size, rows.size))


def on_arcs(grid: PeriodicGrid, vset: VelocitySet, fn, *args) -> np.ndarray:
    """fn(x, v, *args) at every arc (velocity k, node x), shape (K, N)."""
    X = grid.node_coords()
    shape = (vset.count,) + X.shape
    XK = np.broadcast_to(X[None, :, :], shape)
    VK = np.broadcast_to(vset.velocities[:, None, :], shape)
    return np.asarray(fn(XK, VK, *args), dtype=float)


def default_dt(grid: PeriodicGrid, vset: VelocitySet) -> float:
    """Time step aligning every velocity hop with the node lattice."""
    return grid.h / vset.spacing


class _Kernel:
    """Per-solve precomputation: base costs plus the u-coupling hook."""

    def __init__(self, model: ControlModel, lam: float, grid: PeriodicGrid,
                 vset: VelocitySet, dt: float, c0: Optional[float] = None):
        if c0 is None:
            c0 = model.c0
        if c0 is None:
            raise ConfigurationError(
                "model.c0 is unset; fill it via barrier.critical_value first"
            )
        self.model = model
        self.lam = float(lam)
        self.dt = float(dt)
        self.arcs = Transition(grid, vset, dt)
        self.X = grid.node_coords()
        L0 = on_arcs(grid, vset, model.L, 0.0)
        Vlam = np.asarray(model.V(self.X, lam), dtype=float) if lam != 0.0 else 0.0
        self.base = dt * (L0 - lam * Vlam + c0)      # (K, N)
        self._L0 = L0 if model.L_u_part is None else None

    def candidates(self, values: np.ndarray) -> np.ndarray:
        """The Bellman candidate of every arc, shape (K, N)."""
        fv = self.arcs.foot_values(values)
        if self.lam == 0.0:
            return self.base + fv
        if self.model.L_u_part is not None:
            return self.base + self.dt * self.model.L_u_part(self.X, self.lam * fv) + fv
        Lfull = on_arcs(self.arcs.grid, self.arcs.vset, self.model.L, self.lam * fv)
        return self.base + self.dt * (Lfull - self._L0) + fv

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.candidates(values).min(axis=0)


def bellman_apply(model: ControlModel, lam: float, u: GridField,
                  vset: VelocitySet, dt: float, c0: Optional[float] = None) -> GridField:
    """One application of the discounted Bellman update (lam = 0 gives the
    critical operator)."""
    k = _Kernel(model, lam, u.grid, vset, dt, c0=c0)
    return GridField(u.grid, k.apply(u.values))


def residual(model: ControlModel, lam: float, u: GridField,
             vset: VelocitySet, dt: float, c0: Optional[float] = None) -> float:
    """Sup-norm fixed-point defect per unit time, ||u - T[u]||_inf / dt."""
    k = _Kernel(model, lam, u.grid, vset, dt, c0=c0)
    return float(np.max(np.abs(u.values - k.apply(u.values))) / dt)


def one_sided_subsolution_defect(model: ControlModel, w: GridField,
                                 vset: VelocitySet, dt: float,
                                 c0: Optional[float] = None) -> float:
    """max(w - T0[w])/dt; nonpositive (up to tolerance) iff w is a discrete
    subsolution of the critical equation."""
    k = _Kernel(model, 0.0, w.grid, vset, dt, c0=c0)
    return float(np.max(w.values - k.apply(w.values)) / dt)


def compute_bracket(model: ControlModel, critical_solution: GridField,
                    lambda_probes=(0.1, 0.01, 0.001)) -> Bracket:
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
    Hv = model.H(X[None, :, :], P[:, None, :], 0.0)   # (P, N)
    sub = np.any(Hv <= model.c0 + 1e-9, axis=1)
    pnorm = np.sqrt(np.sum(P**2, axis=1))
    K0 = float(pnorm[sub].max()) if np.any(sub) else 0.0
    K0 += paxis[1] - paxis[0]                         # one lattice step of slack

    # delta = min dH/du(x,p,0) over the sampled compact set S0.
    keep = pnorm <= K0 + 1e-12
    Psub = P[keep] if np.any(keep) else P[:1]
    dH = np.asarray(model.dHdu0(X[None, :, :], Psub[:, None, :]), dtype=float)
    delta = float(dH.min())
    if delta <= 0.0:
        raise ConfigurationError(
            "sampled dH/du(x,p,0) is not positive; the monotonicity/derivative "
            "hypotheses fail for this model"
        )

    kappa = 1.0
    for lam in lambda_probes:
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


def solve_perturbed(model: ControlModel, lam: float, grid: PeriodicGrid,
                    vset: VelocitySet, dt: Optional[float] = None,
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
    if dt is None:
        dt = default_dt(grid, vset)
    kernel = _Kernel(model, lam, grid, vset, dt)
    X, nodes = kernel.X, np.arange(grid.size)
    sigma_nodes = -np.asarray(model.dLdu0(X, np.zeros_like(X)), dtype=float)
    if lam * dt * float(sigma_nodes.max()) >= 1.0:
        raise ConfigurationError(
            "dt*lam*max(sigma) >= 1 breaks monotonicity of the update; shrink dt"
        )
    decay = 1.0 - lam * dt * sigma_nodes
    eye = sparse.identity(grid.size, format="csr")

    lo = hi = None
    if bracket is not None:
        lo, hi = bracket.lower.values, bracket.upper.values
    if init is not None:
        u = init.values.copy()
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
        A = kernel.arcs.policy_matrix(pol)
        A.data *= np.repeat(-decay, np.diff(A.indptr))      # -diag(decay) P_pi
        new = u + spsolve(A + eye, Tu - u)
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
        stalled=stalled, _tol_used=tol,
    )
    return GridField(grid, u), report


def nonexistence_certificate(model: ControlModel, lam: float, grid: PeriodicGrid,
                             margin: float = 1e-9) -> bool:
    """Certify that the discounted equation has no (sub)solution at this lam.

    True iff  min_x [ inf_u H(x, 0, u) + lam*V(x, lam) ] > c0 + margin, which
    contradicts the subsolution inequality at an interior maximum.  False is
    not a proof of existence.
    """
    if model.c0 is None:
        raise ConfigurationError("model.c0 must be set")
    X = grid.node_coords()
    if model.H_inf_u is not None:
        infH = np.asarray(model.H_inf_u(X), dtype=float)
    else:
        P0 = np.zeros_like(X)
        infH = np.full(X.shape[0], np.inf)
        for uu in np.concatenate([[-1e8, -1e4, 1e4, 1e8], np.linspace(-50, 50, 201)]):
            infH = np.minimum(infH, np.asarray(model.H(X, P0, uu), dtype=float))
    crit = float(np.min(infH + lam * np.asarray(model.V(X, lam), dtype=float)))
    return crit > model.c0 + margin


@dataclass
class SweepEntry:
    lam: float
    field: Optional[GridField]
    report: Optional[SolveReport]
    error: Optional[str] = None


def lambda_sweep(model: ControlModel, lambdas, grid: PeriodicGrid,
                 vset: VelocitySet, **solver_kwargs) -> list[SweepEntry]:
    """Solve a strictly descending discount schedule with warm starts.

    The typed failures of one solve (SolveError, ConfigurationError, and
    DomainError from a non-finite field) are recorded in its entry and do not
    abort the sweep; any other exception propagates.
    """
    lams = [float(x) for x in lambdas]
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise ConfigurationError("lambda schedule must be strictly descending")
    out: list[SweepEntry] = []
    warm = solver_kwargs.pop("init", None)
    for lam in lams:
        try:
            fld, rep = solve_perturbed(model, lam, grid, vset, init=warm, **solver_kwargs)
            out.append(SweepEntry(lam, fld, rep))
            warm = fld
        except (SolveError, ConfigurationError, DomainError) as exc:
            out.append(SweepEntry(lam, None, None, error=str(exc)))
    return out
