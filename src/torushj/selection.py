"""The barrier/measure selection operator and its verification suite.

For a u-independent Hamiltonian G with Peierls barrier h_G and Mather
measures M(L_G), the operator

    (P phi)(x) = inf over mu in M(L_G) of
                 [ int sigma (h_G(., x) + phi) dmu ] / [ int sigma dmu ]

is a linear-fractional program over the discrete Mather face, so its infimum
is attained at a vertex (Charnes-Cooper 1962): the uniform measure on a
simple cycle of critical arcs.  Every such cycle lies in one static class S
of the polytope (`MatherPolytope.classes`), and inside S the barrier is
additive through the class representative z_S, h(y, x) = h(y, z_S) +
h(z_S, x) (Contreras-Iturriaga).  So each class gives one target-free
minimum-ratio cycle problem, rho_S, solved for all classes at once by the
ratio form of Howard's policy iteration (`matherlp._howard`, Cochet-
Terrasson et al. 1998), and P phi at every target is the (classes x
targets) minimum of rho_S + h(z_S, x).  A target has several equilibrium
measures when two or more cycles attain it: a tie across classes, or a
class with more than one optimal cycle.  Both h_G and M(L_G) are read off
the polytope (`MatherPolytope.barrier`), so every evaluation takes it
alone; every polytope is a solved lattice problem with its classes.

Its fixed points are the discrete solutions of the critical equation; the
checks below exercise the Lipschitz-1 bound, idempotence, the
measure-integral comparison principle, the largest-subsolution
characterization of the vanishing-discount limit, and the equilibrium
measures attaining the infimum.  The comparison and largest-subsolution
checks minimize linear functionals, the denominator-one case of the same
evaluation with a zero barrier.

The limit-solution formula for a discounted family with u-derivative
dL/du(.,.,0) < 0 is the sign-flipped variant

    u0(x) = inf over mu of
            [ int h(y, x) dL/du(y,v,0) dmu + int V0 dmu ] / [ int dL/du dmu ],

evaluated the same way with a negative denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .barrier import BIG
from .errors import ConfigurationError, DomainError
from .grids import GridField
from .matherlp import DiscreteMeasure, MatherPolytope, _distinct, _howard, cycle_arcs
from .models import ControlModel
from .solver import on_arcs, one_sided_subsolution_defect, policy_walk

__all__ = [
    "SelectionResult",
    "apply_selection_operator",
    "limit_solution_formula",
    "check_fixed_point",
    "check_operator_lipschitz",
    "measure_comparison",
    "ComparisonVerdict",
    "check_largest_subsolution",
    "SubsolutionReport",
    "equilibrium_measures",
]

TOL_HYPOTHESIS = 1e-9     # the comparison hypothesis admits this face-minimum deficit


@dataclass
class SelectionResult:
    field: Optional[GridField]       # None for a subset of target nodes
    per_x_value: np.ndarray
    per_x_optimizer: Optional[dict] = None
    multiplicity: Optional[dict] = None
    critical_arcs: int = 0
    classes: int = 0                 # static classes of the Mather face


def _lift(node_values: np.ndarray, K: int) -> np.ndarray:
    """Lift a per-node vector to the flat (node, velocity) variable order."""
    return np.repeat(np.asarray(node_values, dtype=float), K)


def _dl_flat(model: ControlModel, polytope: MatherPolytope) -> np.ndarray:
    return on_arcs(polytope.arcs, model.dLdu0).T.ravel()


def _minimize_on_face(polytope: MatherPolytope, barrier: bool,
                      beta: np.ndarray, offset: np.ndarray,
                      targets: Optional[np.ndarray], keep_measures: bool,
                      check_multiplicity: bool):
    """Per target x (every node when targets is None), the minimum over
    Mather measures mu of

        int (beta * h(., x) + offset) dmu / int beta dmu

    with beta and offset given per flat arc and beta strictly one-signed; h
    is the polytope's own barrier when `barrier` is set, zero otherwise.

    The minimum sits on a simple cycle of critical arcs, which lies in one
    static class S.  Inside S the barrier is additive through the class
    representative z_S, h(y, x) = h(y, z_S) + h(z_S, x), so the value is
    min over S of rho_S + h(z_S, x), with rho_S the minimum ratio of
    beta * h(., z_S) + offset over beta on the cycles of S.  One run of
    `_howard` on the critical arcs solves every class, and its policy cycle
    is the witness.  Multiplicity means two or more optimal cycles: a tie
    across classes, or a second optimal cycle inside the winning class.
    A target that no class reaches, its barrier column at the BIG sentinel
    for every representative, has no value and raises DomainError.
    Returns a SelectionResult without its field.
    """
    N, K = polytope.grid.size, polytope.vset.count
    aubry, label, reps = polytope.static_classes()
    crit = polytope.critical
    h = polytope.barrier.values if barrier else None
    A, S = aubry.size, reps.size
    local = np.full(N, -1)
    local[aubry] = np.arange(A)
    foot, k = crit // K, crit % K
    head = local[polytope.arcs.heads[0][k, foot]]
    num = offset[crit]
    if h is not None:
        num = num + beta[crit] * h[foot, reps[polytope.classes[foot]]]
    # the ratio with a positive denominator; arcs off the face are absent
    sign = 1.0 if beta[crit].min() > 0 else -1.0
    take, W, D = np.zeros((K, A), dtype=np.int64), np.full((K, A), np.inf), np.ones((K, A))
    take[k, head], W[k, head], D[k, head] = local[foot], sign * num, sign * beta[crit]
    eta, u, pol, _ = _howard(take, W, D)
    rho = eta[local[reps]]

    if targets is None:
        targets = np.arange(N)
    shift = np.zeros((S, len(targets))) if h is None else h[np.ix_(reps, targets)]
    unreached = targets[np.all(shift >= BIG / 2, axis=0)]
    if unreached.size:
        raise DomainError(f"no static class reaches node(s) {unreached[:8].tolist()} "
                          "on the lattice graph: the barrier is BIG there")
    value = rho[:, None] + shift                              # (classes, targets)
    best = np.argmin(value, axis=0)
    values = value[best, np.arange(len(targets))]
    cycles = {}                 # the policy's cycle in each winning class
    if keep_measures or check_multiplicity:
        pred = take[pol, np.arange(A)]
        won = _distinct(best, S)
        # classes share no node, so one walk from their representatives
        # yields each class's cycle in turn
        cycles = {c: cyc for c, (cyc, _) in zip(won, policy_walk(pred, local[reps[won]]))}
    measures = mult = None
    if keep_measures:
        witness = {}
        for c, cyc in cycles.items():
            w = np.zeros(polytope.num_vars)
            w[aubry[pred[cyc]] * K + pol[cyc]] = 1.0 / len(cyc)
            witness[c] = DiscreteMeasure(polytope.grid, polytope.vset, w)
        measures = {int(x): witness[c] for x, c in zip(targets, best)}
    if check_multiplicity:
        # the optimal cycles of a class are the cycles of its arcs tight at
        # rho_S; they are one simple cycle iff those arcs are the policy's
        reduced = W - eta * D + u[take] - u
        tk, ty = np.nonzero(reduced <= 1e-9 * np.maximum(1.0, np.abs(eta)) * D)
        tight = np.bincount(label[ty[cycle_arcs(take[tk, ty], ty, A)[0]]], minlength=S)
        ties = (value <= values + 1e-9 * np.maximum(1.0, np.abs(values))).sum(axis=0)
        mult = {int(x): bool(n >= 2 or tight[c] > len(cycles[c]))
                for x, n, c in zip(targets, ties, best)}
    return SelectionResult(None, values, measures, mult, len(crit), S)


def _face_minimum(polytope: MatherPolytope, cost: np.ndarray) -> float:
    """min over Mather measures mu of the linear functional int cost dmu,
    the beta = 1 case of `_minimize_on_face` with a zero barrier."""
    res = _minimize_on_face(polytope, False, np.ones(polytope.num_vars), cost,
                            np.array([0]), False, False)
    return float(res.per_x_value[0])


def apply_selection_operator(sigma: GridField, phi: GridField,
                             polytope: MatherPolytope,
                             nodes: Optional[Sequence[int]] = None,
                             keep_measures: bool = False,
                             check_multiplicity: bool = False) -> SelectionResult:
    """Evaluate (P^sigma phi) at every node (or a subset) on the Mather face;
    a node that no static class reaches raises DomainError."""
    K = polytope.vset.count
    sig = sigma.values
    if sig.min() <= 0:
        raise DomainError("sigma must be strictly positive nodewise")
    target = None if nodes is None else np.asarray(list(nodes), dtype=int)
    res = _minimize_on_face(polytope, True, _lift(sig, K),
                            _lift(sig * phi.values, K), target, keep_measures,
                            check_multiplicity)
    if nodes is None:
        res.field = GridField(polytope.grid, res.per_x_value)
    return res


def limit_solution_formula(model: ControlModel, V0: GridField,
                           polytope: MatherPolytope) -> SelectionResult:
    """The vanishing-discount limit selected by the potential V0.

    Per node x the numerator weights are h(y, x)*dL/du(y,v,0) + V0(y) and the
    denominator is dL/du(y,v,0); the infimum is attained since the Mather
    subpolytope is compact.  Raises when dL/du(.,.,0) is not strictly
    negative (the monotone-derivative hypothesis fails).
    """
    dl = _dl_flat(model, polytope)
    if dl.max() >= 0:
        raise ConfigurationError(
            "dL/du(x,v,0) must be strictly negative; model violates the "
            "u-derivative hypothesis"
        )
    res = _minimize_on_face(polytope, True, dl,
                            _lift(V0.values, polytope.vset.count), None,
                            False, False)
    res.field = GridField(polytope.grid, res.per_x_value)
    return res


def check_fixed_point(sigma: GridField, u: GridField, polytope: MatherPolytope,
                      tol: float):
    """True iff ||P^sigma u - u||_inf <= tol; returns (flag, sup difference)."""
    res = apply_selection_operator(sigma, u, polytope)
    diff = float(np.max(np.abs(res.field.values - u.values)))
    return diff <= tol, diff


def check_operator_lipschitz(sigma: GridField, phi1: GridField, phi2: GridField,
                             polytope: MatherPolytope, slack: float = 1e-7):
    """Nonexpansiveness in the sup norm: returns (lhs, rhs, pass)."""
    r1 = apply_selection_operator(sigma, phi1, polytope)
    r2 = apply_selection_operator(sigma, phi2, polytope)
    lhs = float(np.max(np.abs(r1.field.values - r2.field.values)))
    rhs = float(np.max(np.abs(phi1.values - phi2.values)))
    return lhs, rhs, lhs <= rhs + slack


@dataclass
class ComparisonVerdict:
    hypothesis: bool
    conclusion: bool
    implication_holds: bool
    min_weighted_gap: float       # min over measures of int sigma (u2 - u1) dmu
    max_pointwise_gap: float      # max over nodes of u1 - u2


def measure_comparison(u1: GridField, u2: GridField, sigma: GridField,
                       polytope: MatherPolytope,
                       tol_conclusion: float = 1e-6) -> ComparisonVerdict:
    """Measure-integral comparison: if int sigma u1 dmu <= int sigma u2 dmu
    for every Mather measure, then u1 <= u2 everywhere (for solutions).

    The hypothesis is decided exactly on the Mather face: min over Mather
    measures of int sigma (u2 - u1) dmu >= -TOL_HYPOTHESIS.  The verdict
    records both sides and whether the implication held.
    """
    K = polytope.vset.count
    gap = _face_minimum(polytope, _lift(sigma.values * (u2.values - u1.values), K))
    hyp = gap >= -TOL_HYPOTHESIS
    maxgap = float(np.max(u1.values - u2.values))
    con = maxgap <= tol_conclusion
    return ComparisonVerdict(hypothesis=hyp, conclusion=con,
                             implication_holds=(not hyp) or con,
                             min_weighted_gap=float(gap),
                             max_pointwise_gap=maxgap)


@dataclass
class SubsolutionEntry:
    index: int
    is_subsolution: bool
    subsolution_defect: float
    member: Optional[bool] = None
    membership_gap: Optional[float] = None
    dominated: Optional[bool] = None
    domination_gap: Optional[float] = None


@dataclass
class SubsolutionReport:
    entries: list
    violations: list = dc_field(default_factory=list)

    @property
    def all_members_dominated(self) -> bool:
        return not self.violations


def check_largest_subsolution(u0: GridField, V0: GridField,
                              polytope: MatherPolytope,
                              candidates: Sequence[GridField],
                              model: ControlModel, sub_tol: float = 1e-6,
                              member_tol: float = 1e-7,
                              dom_tol: float = 1e-6) -> SubsolutionReport:
    """Verify that u0 dominates every critical subsolution w satisfying the
    measure inequality  int w dL/du dmu >= int V0 dmu  for all Mather measures.

    Candidates failing the one-sided subsolution residual are rejected with
    diagnostics (not an error); members that exceed u0 beyond dom_tol are
    recorded as violations.  The residual runs on the polytope's kernel.
    """
    K = polytope.vset.count
    dl = _dl_flat(model, polytope)
    v0 = _lift(V0.values, K)
    entries = []
    violations = []
    for i, w in enumerate(candidates):
        defect = one_sided_subsolution_defect(model, w, polytope.arcs)
        entry = SubsolutionEntry(index=i, is_subsolution=defect <= sub_tol,
                                 subsolution_defect=defect)
        if entry.is_subsolution:
            gap = _face_minimum(polytope, _lift(w.values, K) * dl - v0)
            entry.member = gap >= -member_tol
            entry.membership_gap = float(gap)
            if entry.member:
                dgap = float(np.max(w.values - u0.values))
                entry.dominated = dgap <= dom_tol
                entry.domination_gap = dgap
                if not entry.dominated:
                    violations.append(i)
        entries.append(entry)
    return SubsolutionReport(entries=entries, violations=violations)


def equilibrium_measures(phi: GridField, x: int, polytope: MatherPolytope):
    """A Mather measure attaining (P phi)(x) for sigma = 1, with multiplicity.

    Returns (witness, value, multiplicity); multiplicity is True iff two or
    more vertices of the Mather face (uniform measures on simple critical
    cycles) attain the minimum.
    """
    x = int(x)
    res = apply_selection_operator(GridField.constant(polytope.grid, 1.0), phi, polytope,
                                   nodes=[x], keep_measures=True, check_multiplicity=True)
    return res.per_x_optimizer[x], float(res.per_x_value[0]), res.multiplicity[x]
