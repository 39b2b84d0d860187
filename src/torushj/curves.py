"""Backward calibrated curves and discounted occupation measures.

A backward discrete characteristic from x repeatedly takes the argmin branch
of the same Bellman update the solver iterates, over the arcs of the same
transition kernel (`solver.Transition`, which also refuses a bad dt and
decides whether the hops are whole cells), so on a converged field each step
realizes the dynamic-programming equality up to the solver defect (when
foot points are grid nodes) plus the one-cell interpolation kink scale
(when they are not; the threshold self-calibrates from the field's second
differences since off-lattice steps cannot do better than that).

A step of the trace needs only its argmin: the K feet y - v*dt and u there
(`Transition.foot_sampler`), L at the point with all K velocities and foot
values, and the argmin of dt*(L + c0) + u(foot).  The term -lam*dt*V(y) is
the same for every velocity, so it is left out of the argmin.  The chosen
velocity seldom changes, so the loop checks steps in speculative blocks.
It guesses that the last chosen velocity j holds for the next S steps,
computes the S points that guess gives, and evaluates the feet, L and the
argmin at all of them in one numpy pass.  A row is a true step when every
row before it chose j and its foot under j is, bit for bit, the next
guessed point; the first row that breaks the guess still is a true step,
with its own argmin and foot, so a block advances at least one step.  S
doubles after a block that held, up to BLOCK_CAP.  After a switch of
velocity it starts at the length of the run that just ended, at least 1 and
at most BLOCK_CAP; otherwise it stays.  A step depends on its point alone,
since u, lam and dt are fixed.  So the first step back at its own point, bit
for bit, repeats forever: the trace ends with it (its rest step, and
`CurveTrace.rests`), and Tmax only caps a trace that never rests.  Every
float is computed as a per-step loop would compute it, so the trace is the
same bit for bit as that loop's up to the rest step; the guess only decides
how many rows a pass checks.  The loop keeps the chosen index, L there and u
at the chosen foot, which is u at the next point of the trace.
After the loop, one vectorized expression each gives the actions
dt*(L - lam*V + c0), the defects |u(y_k) - (action_k + u(y_{k+1}))|,
dL/du(y_k, v_k, 0) and the weights below.

The discounted occupation measure weights step k by

    W_k = exp( lam * sum_{j<k} dL/du(xi_j, v_j, 0) * dt ),   W_0 = 1,

bins the step's departure point by interpolation weights and its velocity
exactly (velocities are lattice members), and normalizes to mass one.  The
rest step of a trace that rests carries the steps after it too, an exact
geometric sum W_t*dt / (1 - exp(lam * dl0_t * dt)); only a trace that never
rests cuts a tail, which TAIL_TOL bounds.  The
departure-point binning makes the pushforward of one step's bin land on the
next step's bin, so the closedness defect telescopes to the O(lam) boundary
term the continuum identity predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CalibrationError, ConfigurationError, TailMassError
from .grids import GridField, interpolate, interpolation_stencil, wrap_points, wrap_unit
from .matherlp import DiscreteMeasure
from .models import ControlModel
from .solver import Bracket, Transition, on_arcs

__all__ = [
    "CurveTrace",
    "backward_calibrated_curve",
    "check_calibration",
    "CalibrationReport",
    "occupation_measure",
    "check_mass_identity",
    "closedness_defect",
    "speed_bound_check",
    "SpeedReport",
]

# A trace whose share of steps above the defect tolerance exceeds this
# raises CalibrationError.
DEFECT_FRACTION = 0.05

# Most trace steps one speculative block checks in one numpy pass.
BLOCK_CAP = 256

TAIL_TOL = 1e-4     # occupation_measure's bound on the discarded tail's mass share


@dataclass
class CurveTrace:
    """Backward discrete characteristic with velocities and discount weights.

    points[k] is the curve at time -k*dt (points[0] = start); step k moves
    from points[k+1] to points[k] with velocity velocities[k].  weights[k] is
    the discount factor W_k (strictly decreasing, W_0 = 1), defects[k] the
    dynamic-programming defect of step k, actions[k] its accumulated
    Lagrangian increment, and dl0[k] = dL/du(points[k], velocities[k], 0).
    A trace that rests ends with its rest step, points[-1] == points[-2]
    bit for bit, which every later step would repeat.
    """

    lam: float
    arcs: Transition            # the kernel it stepped with; dt is its dt
    points: np.ndarray          # (S+1, d)
    velocities: np.ndarray      # (S, d)
    vel_indices: np.ndarray     # (S,)
    weights: np.ndarray         # (S+1,)
    defects: np.ndarray         # (S,)
    actions: np.ndarray         # (S,)
    dl0: np.ndarray             # (S,)
    on_lattice: bool
    defect_tol: float
    rests: bool                 # its last step is back at its own point

    @property
    def dt(self) -> float:
        return self.arcs.dt

    @property
    def steps(self) -> int:
        return len(self.vel_indices)

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    def masses(self) -> np.ndarray:
        """The discounted mass W_k*dt of each step (S,).  The rest step of a
        trace that rests stands for itself and every step after it, so it
        carries the whole geometric tail W_t*dt / (1 - q), q = exp(lam *
        dl0_t * dt); TailMassError when q >= 1, whose tail has no sum."""
        Wd = self.weights[:-1] * self.dt
        if self.rests:
            shrink = -np.expm1(self.lam * self.dl0[-1] * self.dt)
            if not shrink > 0:
                raise TailMassError(f"a trace resting at dL/du = {self.dl0[-1]:.3e} "
                                    f"has no finite discounted tail")
            Wd[-1] /= shrink
        return Wd


def _kink_scale(u: GridField) -> float:
    """Largest second difference of the field: the off-lattice one-step
    interpolation error floor (chord-vs-kink within one cell)."""
    a = u.as_array()
    dd = (np.abs(np.roll(a, -1, i) - 2 * a + np.roll(a, 1, i)).max() for i in range(a.ndim))
    return float(max(dd)) / 4.0


def backward_calibrated_curve(model: ControlModel, lam: float, u: GridField,
                              x, Tmax: float, arcs: Transition,
                              solver_tol: float = 1e-8,
                              defect_tol: Optional[float] = None) -> CurveTrace:
    """Follow the argmin branch of the Bellman update of `arcs` backward from x,
    up to its first rest step, or for floor(Tmax/dt) steps if none comes.

    Raises CalibrationError ("field not converged") when more than
    DEFECT_FRACTION of the steps exceed the defect tolerance.  The tolerance
    defaults to 10*solver_tol*dt for on-lattice traces and adds the
    interpolation kink scale otherwise.
    """
    if model.c0 is None:
        raise ConfigurationError("model.c0 must be set")
    if not (np.isfinite(Tmax) and Tmax >= 0):
        raise ConfigurationError(f"trace horizon must be nonnegative, got Tmax={Tmax}")
    values = arcs.values_of(u)
    grid = arcs.grid
    lam, dt, c0 = float(lam), arcs.dt, model.c0
    steps = int(np.floor(Tmax / dt + 1e-12))
    vels = arcs.vset.velocities                 # (K, d)
    y = wrap_points(np.asarray(x, dtype=float), grid.d)
    start_on_node = bool(
        np.max(np.abs(y * grid.n - np.rint(y * grid.n))) < 1e-9)
    on_lattice = arcs.integer_hops and start_on_node
    if on_lattice:
        y = np.rint(y * grid.n) % grid.n / grid.n   # snap away float fuzz, 1 -> 0

    if defect_tol is None:
        defect_tol = 10.0 * solver_tol * dt
        if not on_lattice:
            defect_tol += 10.0 * (_kink_scale(u) + dt * grid.h)

    pts = np.empty((steps + 1, grid.d))
    vidx = np.empty(steps, dtype=int)
    Lj = np.empty(steps)                        # L at the chosen arc
    uj = np.empty(steps)                        # u at the chosen foot = u(pts[k+1])
    pts[0] = y
    bits = pts.view(np.int64)
    feet_at = arcs.foot_sampler(values, snap=on_lattice)
    n, vdt = grid.n, vels * dt
    k, j, size, start = 0, 0, 1, 0              # a block of one row checks no guess
    rests = False
    while k < steps:
        # Guess: velocity j holds for the whole block.  The accumulation
        # restarts at each wrap of the torus from the point wrapped as the
        # feet are, so that off the lattice too the guessed points are the
        # feet bit for bit; the check below catches any that are not.
        size = min(size, steps - k)
        Y = np.empty((size, grid.d))
        Y[0], Y[1:] = pts[k], -vdt[j]
        Y = np.add.accumulate(Y, axis=0)
        # Each run of rows from Y[i], in [0, 1)^d, is monotone per axis, so
        # it leaves [0, 1)^d if and only if its last point does.
        i = 0
        while not all(0.0 <= c < 1.0 for c in Y[-1].tolist()):
            i += int(((Y[i:] < 0.0) | (Y[i:] >= 1.0)).any(axis=1).argmax())
            wrap_unit(Y[i], out=Y[i])
            Y[i + 1:] = -vdt[j]
            Y[i:] = np.add.accumulate(Y[i:], axis=0)
        if on_lattice:
            Y[1:] = np.rint(Y[1:] * n) / n
            Y[Y >= 1.0] = 0.0
        feet, fv = feet_at(Y)                   # (size, K, d), (size, K)
        Lv = model.L(Y[:, None, :], vels, lam * fv)
        # -lam*dt*V(y) is the same for every velocity, so the argmin omits it.
        arg = (dt * (Lv + c0) + fv).argmin(axis=1)
        # Row i is a true step when each row before it chose j and its foot
        # under j is, bit for bit, the guessed point after it.  So the rows
        # up to the first one that breaks the guess are true steps.
        hit = (arg[:-1] == j) & (feet[:-1, j] == Y[1:]).all(axis=1)
        take = size if hit.all() else int(hit.argmin()) + 1
        rows, a = np.arange(take), arg[:take]
        vidx[k:k + take], Lj[k:k + take], uj[k:k + take] = a, Lv[rows, a], fv[rows, a]
        pts[k + 1:k + take + 1] = feet[rows, a]
        if a[-1] != j:
            # start is the first step of the run of j that ends here.
            switch = k + take - 1               # the first step of velocity a[-1]
            size = min(max(switch - start, 1), BLOCK_CAP)
            j, start = int(a[-1]), switch
        elif take == size:
            size = min(2 * size, BLOCK_CAP)
        # A step back at its own point, bit for bit, repeats forever: the
        # first such step is the last of the trace.
        same = (bits[k + 1:k + take + 1] == bits[k:k + take]).all(axis=1)
        k += take
        if same.any():
            rests, steps = True, k - take + int(same.argmax()) + 1
            pts, vidx, Lj, uj = pts[:steps + 1], vidx[:steps], Lj[:steps], uj[:steps]
            break

    X, vel = pts[:-1], vels[vidx]
    Vx = np.asarray(model.V(X, lam), dtype=float) if lam != 0.0 else 0.0
    actions = dt * (Lj - lam * Vx + c0)
    u_here = np.concatenate(([interpolate(u, pts[0])], uj[:-1])) if steps else uj
    defects = np.abs(u_here - (actions + uj))
    dl0 = np.asarray(model.dLdu0(X, vel), dtype=float)
    W = np.ones(steps + 1)
    np.cumprod(np.exp(lam * dl0 * dt), out=W[1:])

    if steps > 0:
        frac = float(np.mean(defects > defect_tol))
        if frac > DEFECT_FRACTION:
            raise CalibrationError(
                f"field not converged: {frac:.1%} of steps exceed the "
                f"calibration defect tolerance {defect_tol:.3e}"
            )
    return CurveTrace(lam=lam, arcs=arcs, points=pts, velocities=vel,
                      vel_indices=vidx, weights=W, defects=defects,
                      actions=actions, dl0=dl0, on_lattice=on_lattice,
                      defect_tol=defect_tol, rests=rests)


@dataclass
class CalibrationReport:
    max_defect_rate: float       # max_k defect_k / dt
    telescoped_error: float      # whole-trace calibration identity defect
    defect_tol: float


def check_calibration(trace: CurveTrace, u: GridField) -> CalibrationReport:
    """Per-step and telescoped calibration defects of a recorded trace."""
    if trace.steps == 0:
        return CalibrationReport(0.0, 0.0, trace.defect_tol)
    u_start = interpolate(u, trace.points[0])
    u_end = interpolate(u, trace.points[-1])
    tele = abs(u_start - u_end - float(trace.actions.sum()))
    return CalibrationReport(
        max_defect_rate=float(trace.defects.max() / trace.dt),
        telescoped_error=tele,
        defect_tol=trace.defect_tol,
    )


def occupation_measure(trace: CurveTrace) -> DiscreteMeasure:
    """Discount-weighted occupation measure of a backward trace at its lam.

    Step k deposits its mass (`CurveTrace.masses`, the exact tail on the
    rest step of a trace that rests) at (departure point, chosen velocity);
    positions bin by interpolation weights, velocities exactly.  For a trace
    that does not rest, raises TailMassError when the discarded tail beyond
    its horizon would carry more than TAIL_TOL of the total mass (estimated
    from the weight decay rate).
    """
    if trace.steps == 0:
        raise ConfigurationError("cannot bin an empty trace")
    if not trace.lam > 0:
        raise ConfigurationError(f"discount lam must be positive, got {trace.lam}")
    Wd = trace.masses()                          # (S,)
    if not trace.rests:
        total = float(Wd.sum())
        decay = max(-float(np.mean(trace.dl0[-max(10, trace.steps // 10):])), 1e-12)
        tail = float(trace.weights[-1]) / (trace.lam * decay)
        if tail / (total + tail) > TAIL_TOL:
            raise TailMassError(
                f"discarded tail mass fraction {tail / (total + tail):.2e} exceeds "
                f"{TAIL_TOL:.0e}: extend Tmax"
            )
    grid, vset = trace.arcs.grid, trace.arcs.vset
    idx, w = interpolation_stencil(grid, trace.points[1:])      # (S, 2^d)
    K = vset.count
    flat = np.zeros(grid.size * K)
    cols = idx * K + trace.vel_indices[:, None]
    np.add.at(flat, cols.ravel(), (w * Wd[:, None]).ravel())
    return DiscreteMeasure(grid, vset, flat / flat.sum())


def check_mass_identity(trace: CurveTrace) -> float:
    """Relative defect of the occupation-measure identity

        int dL/du dmu  =  -1 / ( lam * int_0^inf W dt ),

    at the trace's lam, evaluated with the trace's own quadrature
    (`CurveTrace.masses`); exact up to one first-order quadrature term in dt
    and, for a trace that does not rest, the tail beyond its horizon.
    """
    if trace.steps == 0:
        raise ConfigurationError("empty trace")
    if not trace.lam > 0:
        raise ConfigurationError(f"discount lam must be positive, got {trace.lam}")
    Wd = trace.masses()
    lhs = float((trace.dl0 * Wd).sum() / Wd.sum())
    rhs = -1.0 / (trace.lam * float(Wd.sum()))
    return abs(lhs - rhs) / abs(rhs)


def closedness_defect(mu: DiscreteMeasure, arcs: Transition) -> float:
    """Sup over the nodes of |mass the arcs of `arcs` push to the node minus
    the node's own mass|, the largest row of `closedness_operator(arcs)`
    applied to mu, without the operator: each arc's mass goes to its head
    (its binning stencil off the lattice)."""
    W = mu.weights                                     # (N, K)
    idx, w = arcs.heads                                # (K, N[, S])
    mass = W.T if w is None else W.T[..., None] * w
    pushed = np.bincount(idx.ravel(), weights=mass.ravel(), minlength=W.shape[0])
    return float(np.max(np.abs(pushed - W.sum(axis=1))))


@dataclass
class SpeedReport:
    passed: bool
    max_speed: float
    lattice_vmax: float
    a_priori_bound: float
    saturated: bool
    note: str = ""


def speed_bound_check(trace: CurveTrace, model: ControlModel,
                      bracket: Bracket) -> SpeedReport:
    """Empirical speeds against the a-priori calibrated-curve bound.

    The bound is B = C0 + lambda0*(kappa - 1) - c0 with C0 the sampled
    superlinearity constant max[(D0+1)|v| - L(x, v, lambda0*D0)], D0 = the
    bracket's sup-norm bound T.  Fails (with a diagnostic) when the argmin
    saturates the velocity lattice: a truncated lattice invalidates the
    argmin itself.
    """
    D0, vset = bracket.T, trace.arcs.vset
    L = on_arcs(trace.arcs, model.L, bracket.lambda0 * D0)          # (K, N)
    C0 = float(np.max((D0 + 1.0) * vset.speeds()[:, None] - L))
    bound = C0 + bracket.lambda0 * (bracket.kappa - 1.0) - (model.c0 or 0.0)
    if trace.steps == 0:
        return SpeedReport(True, 0.0, vset.vmax, bound, False)
    max_speed = float(np.max(np.sqrt(np.sum(trace.velocities**2, axis=1))))
    saturated = bool(max_speed >= vset.vmax - 1e-12) and max_speed > 0
    ok = (max_speed <= vset.vmax + 1e-12) and (max_speed <= bound + 1e-12) and not saturated
    note = "velocity lattice truncates the argmin" if saturated else ""
    return SpeedReport(passed=ok, max_speed=max_speed, lattice_vmax=vset.vmax,
                       a_priori_bound=bound, saturated=saturated, note=note)
