"""The Mather face: critical arcs, its static classes, and the selection
operator evaluated class by class, checked against two oracles: the
full-polytope programs and the vertex evaluation on disjoint critical
cycles that the class path replaced (kept here with the restricted-LP
evaluation it fell back to on branched faces)."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

import torushj.selection as selection
from torushj.barrier import critical_value
from torushj.errors import ConfigurationError, DomainError
from torushj.experiments import parse_potential
from torushj.grids import GridField, PeriodicGrid
from torushj.matherlp import (
    _run_lp,
    build_polytope,
    fractional_minimize,
    minimize_linear_over_mather,
    solve_mather_lp,
)
from torushj.models import builtin_model, velocity_set
from torushj.selection import (
    apply_selection_operator,
    check_largest_subsolution,
    equilibrium_measures,
    limit_solution_formula,
    measure_comparison,
)
from torushj.solver import Transition, default_dt

ALPHA = (np.sqrt(5.0) - 1.0) / 2.0
HALF_STEP = velocity_set(3.0, 25).spacing / 2
SINE = lambda x: -np.sin(2 * np.pi * x[..., 0]) - 0.3
MODELS = {
    "cosine_well": lambda: builtin_model(
        "mechanical", U=lambda x: np.cos(2 * np.pi * x[..., 0])),
    "double_well": lambda: builtin_model(
        "mechanical", U=lambda x: np.cos(4 * np.pi * x[..., 0])),
    "rotation": lambda: builtin_model("shifted_quadratic", alpha=ALPHA, potential=SINE),
    # alpha at half a velocity step ties v = 0 and v = one step: one class
    # holding every node, two critical arcs per node
    "half_step": lambda: builtin_model("shifted_quadratic", alpha=HALF_STEP),
    "half_step_potential": lambda: builtin_model("shifted_quadratic", alpha=HALF_STEP,
                                                 potential=SINE),
    # one class per row of the 16 x 16 torus
    "rotation_2d": lambda: builtin_model("shifted_quadratic", d=2,
                                         alpha=[ALPHA, np.sqrt(2.0) - 1.0]),
    "cos_sum_2d": lambda: builtin_model("mechanical", d=2,
                                        U=parse_potential("cos_sum:amp=1,freq=1")),
}
CASES = ([(name, n) for name in ("cosine_well", "double_well", "rotation",
                                 "half_step", "half_step_potential") for n in (16, 32)]
         + [("rotation_2d", 16), ("cos_sum_2d", 8)])
ORACLE_TOL = 1e-6


@lru_cache(maxsize=None)
def setup(name, n):
    model = MODELS[name]()
    grid = PeriodicGrid(model.d, n)
    vset = velocity_set(3.0, 25) if model.d == 1 else velocity_set(2.0, 5, d=2)
    poly = build_polytope(model, Transition(grid, vset))
    model = model.with_c0(poly.c)
    # the oracle programs' minimality row admits action slack tol_min, which
    # lets them move ~tol_min/(reduced cost gap) of mass off the face; keep
    # it small so that they agree with the exact face to ORACLE_TOL
    poly = dataclasses.replace(poly, tol_min=1e-12)
    return model, grid, poly, poly.barrier


def mather_vertices(poly):
    """The retired vertex list: with at most one critical arc per node the
    critical subgraph is disjoint cycles, and the Mather face's vertices
    are the uniform measures on them.  Each cycle is an array of flat arc
    indices; None when a node has two or more critical arcs."""
    N, K = poly.grid.size, poly.vset.count
    head = poly.arcs.heads[0]
    crit = poly.critical
    src = crit // K
    if np.any(np.bincount(src, minlength=N) > 1):
        return None
    nxt, arc_of = np.full(N, -1), np.full(N, -1)
    nxt[src], arc_of[src] = head[crit % K, src], crit
    state = np.zeros(N, dtype=np.int8)        # 0 new, 1 on this walk, 2 done
    cycles = []
    for start in range(N):
        path, x = [], start
        while x >= 0 and state[x] == 0:
            state[x] = 1
            path.append(x)
            x = nxt[x]
        if x >= 0 and state[x] == 1:
            cycles.append(arc_of[path[path.index(x):]])
        state[path] = 2
    return cycles


def vertex_minimize(poly, cycles, h, beta, offset):
    """The retired vertex evaluation: per target column of h, the best
    ratio over the cycles (`mather_vertices`), as one (cycles x N) product
    and a column-wise minimum.  Returns the values, the witness cycle per
    target and the multiplicity (two or more cycles within 1e-9)."""
    K = poly.vset.count
    lengths = np.array([len(cyc) for cyc in cycles])
    on = np.concatenate(cycles)
    row = np.repeat(np.arange(len(cycles)), lengths)
    W = sparse.csr_matrix((beta[on], (row, on // K)), shape=(len(cycles), poly.grid.size))
    ratio = (W @ h + np.bincount(row, offset[on])[:, None]) / np.bincount(row, beta[on])[:, None]
    best = np.argmin(ratio, axis=0)
    values = ratio[best, np.arange(h.shape[1])]
    ties = ratio <= values + 1e-9 * np.maximum(1.0, np.abs(values))
    return values, [cycles[b] for b in best], ties.sum(axis=0) >= 2


def restricted_lp(poly, numerator, denominator, check_multiplicity=False):
    """The retired fallback: the Charnes-Cooper program on the critical
    arcs only, with no minimality row (the closed measures on those arcs are
    the Mather measures), for a denominator > 0.  Returns the value and,
    when asked, whether over 1% of the mass moves off the returned support
    at optimal cost."""
    cols = poly.critical
    obj = numerator[cols]
    A_eq = sparse.vstack([poly.C[:, cols], sparse.csr_matrix(denominator[None, cols])])
    b_eq = np.zeros(poly.grid.size + 1)
    b_eq[-1] = 1.0
    res = _run_lp(obj, A_eq, b_eq)
    if not check_multiplicity:
        return float(res.fun), None
    scale = max(1.0, float(np.max(np.abs(obj))))
    off = (res.x <= 1e-9 * max(res.x.sum(), 1.0)).astype(float)
    res2 = _run_lp(-off, A_eq, b_eq, sparse.csr_matrix(obj[None, :]),
                   np.array([res.fun + 1e-9 * scale]))
    return float(res.fun), bool(-res2.fun / max(res2.x.sum(), 1e-300) > 0.01)


def random_field(grid, seed, scale=0.5, shift=0.0):
    return GridField(grid, shift + scale * np.random.default_rng(seed).normal(size=grid.size))


def oracle_operator(poly, h, sigma, phi, x):
    K = poly.vset.count
    b = np.repeat(sigma.values, K)
    a = np.repeat(sigma.values * (h.values[:, x] + phi.values), K)
    return fractional_minimize(poly, a, b, check_multiplicity=True)


def test_reduced_costs_certify_the_critical_measure():
    for name, n in CASES:
        _, _, poly, _ = setup(name, n)
        scale = max(1.0, float(np.max(np.abs(poly.action))))
        assert poly.reduced_cost.min() >= -1e-9 * scale
        support = np.flatnonzero(poly.critical_measure.flat() > 0)
        assert np.isin(support, poly.critical).all()
        assert float(poly.action @ poly.critical_measure.flat()) == pytest.approx(-poly.c, abs=1e-12)


def test_stored_critical_solution_is_the_lp_solution():
    # the polytope's critical value comes from policy iteration; the
    # arrival-charged LP must give the same number, and its optimizer must
    # live on the polytope's critical arcs.  The "lp" route is that certified
    # policy-iteration optimum
    for name, n in CASES:
        model, grid, poly, _ = setup(name, n)
        mu, opt, _ = solve_mather_lp(model, poly)
        assert poly.c == pytest.approx(-opt, abs=1e-12)
        support = np.flatnonzero(mu.flat() > 1e-12)
        assert np.isin(support, poly.critical).all()
        assert critical_value(model, "lp", Transition(grid, poly.vset)).c == poly.c


def class_nodes(poly):
    aubry, label, reps = poly.static_classes()
    return [list(aubry[label == c]) for c in range(reps.size)]


def test_static_classes_known_models():
    for n in (16, 32):
        assert class_nodes(setup("cosine_well", n)[2]) == [[0]]
        assert class_nodes(setup("double_well", n)[2]) == [[0], [n // 2]]
        # the rotation's critical cycles cover the circle
        assert sorted(sum(class_nodes(setup("rotation", n)[2]), [])) == list(range(n))
        assert class_nodes(setup("half_step", n)[2]) == [list(range(n))]
    rot2 = class_nodes(setup("rotation_2d", 16)[2])
    assert len(rot2) == 16 and sorted(sum(rot2, [])) == list(range(256))
    free = build_polytope(builtin_model("mechanical", U=None),
                          Transition(PeriodicGrid(1, 12), velocity_set(1.5, 7)))
    assert class_nodes(free) == [[x] for x in range(12)]   # every rest measure
    for name, n in CASES:
        poly = setup(name, n)[2]
        aubry, label, reps = poly.static_classes()
        # classes are numbered by their smallest node, the representative;
        # with disjoint critical cycles each class is one of the vertices
        assert list(reps) == [min(nodes) for nodes in class_nodes(poly)]
        assert np.all(np.diff(reps) > 0)
        cycles = mather_vertices(poly)
        if cycles is not None:
            assert sorted(sorted(c // poly.vset.count) for c in cycles) == class_nodes(poly)


@pytest.mark.parametrize("name,n", CASES)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_operator_vertex_path_matches_full_polytope(name, n, seed):
    model, grid, poly, h = setup(name, n)
    rng = np.random.default_rng(seed)
    phi = random_field(grid, seed)
    sigma = GridField(grid, rng.uniform(0.2, 2.0, size=grid.size))
    res = apply_selection_operator(sigma, phi, poly)
    K = poly.vset.count
    beta = np.repeat(sigma.values, K)
    offset = np.repeat(sigma.values * phi.values, K)
    if mather_vertices(poly) is not None:
        want = vertex_minimize(poly, mather_vertices(poly), h.values, beta, offset)[0]
        np.testing.assert_allclose(res.per_x_value, want, rtol=0, atol=1e-12)
    for x in rng.choice(grid.size, size=3, replace=False):
        _, want, _ = oracle_operator(poly, h, sigma, phi, int(x))
        assert res.per_x_value[x] == pytest.approx(want, abs=ORACLE_TOL)
        exact, _ = restricted_lp(poly, beta * np.repeat(h.values[:, x], K) + offset, beta)
        assert res.per_x_value[x] == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("name,n", CASES)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
@example(seed=2247)         # HiGHS gave up on rotation_2d at feasibility tolerance 1e-10
def test_limit_formula_vertex_path_matches_full_polytope(name, n, seed):
    model, grid, poly, h = setup(name, n)
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 1.5, size=2)
    # a velocity-dependent dL/du: the cycle weights then differ per arc
    model = dataclasses.replace(
        model, dLdu0=lambda x, v: -(a[0] + 0.3 * np.cos(2 * np.pi * x[..., 0])
                                     + a[1] * v[..., 0] ** 2))
    V0 = (GridField.from_function(grid, model.V0) if name == "half_step_potential"
          else random_field(grid, seed))
    res = limit_solution_formula(model, V0, poly)
    assert res.classes == poly.static_classes()[2].size
    assert res.critical_arcs == len(poly.critical)
    K = poly.vset.count
    dl = selection._dl_flat(model, poly)
    offset = np.repeat(V0.values, K)
    if mather_vertices(poly) is not None:
        want = vertex_minimize(poly, mather_vertices(poly), h.values, dl, offset)[0]
        np.testing.assert_allclose(res.field.values, want, rtol=0, atol=1e-12)
    for x in rng.choice(grid.size, size=3, replace=False):
        num = np.repeat(h.values[:, x], K) * dl + offset
        _, want, _ = fractional_minimize(poly, num, dl)
        assert res.field.values[x] == pytest.approx(want, abs=ORACLE_TOL)
        exact, _ = restricted_lp(poly, -num, -dl)
        assert res.field.values[x] == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("n", (16, 32))
def test_multiplicity_map_double_well_matches_oracle(n):
    model, grid, poly, h = setup("double_well", n)
    sigma = GridField.constant(grid, 1.0)
    for phi in (GridField.constant(grid, 0.0), random_field(grid, n)):
        res = apply_selection_operator(sigma, phi, poly,
                                       check_multiplicity=True)
        want = {x: oracle_operator(poly, h, sigma, phi, x)[2]
                for x in range(grid.size)}
        assert res.multiplicity == want
    symmetric = apply_selection_operator(sigma, GridField.constant(grid, 0.0), poly,
                                         check_multiplicity=True)
    assert symmetric.multiplicity[n // 4] and symmetric.multiplicity[3 * n // 4]
    assert not symmetric.multiplicity[0]


def test_unreached_targets_are_refused():
    """With doubled dt every hop of the double well at n = 16 is an even
    number of cells, so its classes {0} and {8} reach the even nodes only:
    the barrier is BIG at every odd target, which has no value and is
    refused, while the even targets keep the vertex evaluation's values and
    multiplicity."""
    model = MODELS["double_well"]()
    grid, vset = PeriodicGrid(1, 16), velocity_set(3.0, 25)
    poly = build_polytope(model, Transition(grid, vset, 2 * default_dt(grid, vset)))
    h = poly.barrier
    assert h.aubry.tolist() == [0, 8] and h.warnings
    sigma, phi = GridField.constant(grid, 1.0), random_field(grid, 3)
    with pytest.raises(DomainError, match="no static class reaches"):
        apply_selection_operator(sigma, phi, poly)
    with pytest.raises(DomainError, match="no static class reaches"):
        limit_solution_formula(model, GridField.constant(grid, 0.0), poly)
    with pytest.raises(DomainError, match=r"reaches node\(s\) \[3\]"):
        apply_selection_operator(sigma, phi, poly, nodes=[2, 3])
    even = np.arange(0, 16, 2)
    for phi in (GridField.constant(grid, 0.0), phi):
        res = apply_selection_operator(sigma, phi, poly, nodes=even,
                                       check_multiplicity=True)
        K = poly.vset.count
        values, _, mult = vertex_minimize(poly, mather_vertices(poly), h.values,
                                          np.ones(poly.num_vars), np.repeat(phi.values, K))
        np.testing.assert_allclose(res.per_x_value, values[even], rtol=0, atol=1e-12)
        assert [res.multiplicity[int(x)] for x in even] == list(mult[even])


@pytest.mark.parametrize("name,n", CASES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), flat=st.booleans())
def test_multiplicity_maps_match_the_oracles(name, n, seed, flat):
    """A flat phi ties cycles inside a class (every node of the half-step
    class has barrier 0 to every other) or across symmetric classes; a
    random one breaks the ties."""
    model, grid, poly, h = setup(name, n)
    rng = np.random.default_rng(seed)
    phi = GridField.constant(grid, 0.0) if flat else random_field(grid, seed)
    sigma = GridField.constant(grid, 1.0) if flat else GridField(
        grid, rng.uniform(0.2, 2.0, size=grid.size))
    res = apply_selection_operator(sigma, phi, poly, check_multiplicity=True)
    K = poly.vset.count
    beta = np.repeat(sigma.values, K)
    offset = np.repeat(sigma.values * phi.values, K)
    if mather_vertices(poly) is not None:
        want = vertex_minimize(poly, mather_vertices(poly), h.values, beta, offset)[2]
        assert [res.multiplicity[x] for x in range(grid.size)] == list(want)
    for x in rng.choice(grid.size, size=3, replace=False):
        assert res.multiplicity[int(x)] == oracle_operator(poly, h, sigma, phi, int(x))[2]
        num = beta * np.repeat(h.values[:, x], K) + offset
        assert res.multiplicity[int(x)] == restricted_lp(poly, num, beta, True)[1]


@pytest.mark.parametrize("name,n", CASES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_equilibrium_measures_match_linear_oracle(name, n, seed):
    model, grid, poly, h = setup(name, n)
    phi = random_field(grid, seed)
    x = int(np.random.default_rng(seed).integers(grid.size))
    mu, value, mult = equilibrium_measures(phi, x, poly)
    cost = np.repeat(h.values[:, x] + phi.values, poly.vset.count)
    _, want, want_mult = minimize_linear_over_mather(poly, cost, check_multiplicity=True)
    assert value == pytest.approx(want, abs=ORACLE_TOL)
    # the witness is a Mather measure: a uniform measure on a closed cycle
    # of critical arcs, attaining the value
    support = np.flatnonzero(mu.flat() > 0)
    assert np.isin(support, poly.critical).all()
    np.testing.assert_allclose(poly.C @ mu.flat(), 0.0, atol=1e-12)
    np.testing.assert_allclose(mu.flat()[support], 1.0 / support.size, rtol=1e-14)
    assert float(cost @ mu.flat()) == pytest.approx(value, abs=1e-12)
    assert mult == want_mult
    if mather_vertices(poly) is not None:
        offset = np.repeat(phi.values, poly.vset.count)
        _, cycles, _ = vertex_minimize(poly, mather_vertices(poly), h.values[:, [x]],
                                       np.ones(poly.num_vars), offset)
        if not mult:
            assert np.array_equal(np.sort(cycles[0]), support)


def test_offlattice_polytope_is_refused():
    # off the lattice there is no lattice graph, so no polytope, hence no
    # evaluation on the face; the "lp" route refuses the dt the same way
    for name in ("cosine_well", "rotation"):
        model, grid, vset = MODELS[name](), PeriodicGrid(1, 16), velocity_set(3.0, 25)
        with pytest.raises(ConfigurationError, match="off the node lattice"):
            build_polytope(model, Transition(grid, vset, 0.0101))
        with pytest.raises(ConfigurationError, match="off the node lattice"):
            critical_value(model, "lp", Transition(grid, vset, 0.0101))


def test_comparison_checks_decide_on_the_exact_face():
    """Rotation n = 32 with seeded random costs: the full-polytope LP, with
    its tol_min = 1e-9 action slack, undercuts the exact face minimum (the
    best cycle mean) by ~1e-6, above both checks' tolerances."""
    grid = PeriodicGrid(1, 32)
    vset = velocity_set(3.0, 25)
    model = MODELS["rotation"]()
    poly = build_polytope(model, Transition(grid, vset))
    model = model.with_c0(poly.c)
    oracle = dataclasses.replace(poly, tol_min=1e-12)
    cycles = mather_vertices(poly)
    K = vset.count
    zero = GridField.constant(grid, 0.0)
    for seed in range(5):
        g = np.random.default_rng(seed).normal(size=grid.size)
        means = [float(np.mean(g[cyc // K])) for cyc in cycles]
        # the vertices are the uniform measures on the cycles, so
        # int (g - min(means)) dmu has exact face minimum 0
        u2 = GridField(grid, g - min(means))
        v = measure_comparison(zero, u2, GridField.constant(grid, 1.0), poly)
        assert v.hypothesis
        assert v.min_weighted_gap == pytest.approx(0.0, abs=1e-12)
        want = minimize_linear_over_mather(oracle, np.repeat(u2.values, K))[1]
        assert v.min_weighted_gap == pytest.approx(want, abs=ORACLE_TOL)
        # dL/du = -1: w = -max(means) has membership gap
        # min over mu of int (-w - g) dmu = max(means) - max(means) = 0
        V0 = GridField(grid, g)
        w = GridField.constant(grid, -max(means))
        rep = check_largest_subsolution(w, V0, poly, [w], model)
        entry = rep.entries[0]
        assert entry.is_subsolution and entry.member and entry.dominated
        assert entry.membership_gap == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_comparison_checks_on_a_branched_critical_graph(seed):
    """alpha = half a velocity step ties v = 0 and v = one step, so every node
    has two critical arcs: one class, whose optimal cycle the ratio policy
    iteration finds among n + 1 simple cycles."""
    grid = PeriodicGrid(1, 16)
    vset = velocity_set(3.0, 25)
    model = builtin_model("shifted_quadratic", alpha=vset.spacing / 2)
    poly = build_polytope(model, Transition(grid, vset))
    model = model.with_c0(poly.c)
    assert mather_vertices(poly) is None
    assert len(poly.critical) == 2 * grid.size
    oracle = dataclasses.replace(poly, tol_min=1e-12)
    K = vset.count
    rng = np.random.default_rng(seed)
    u1, u2 = random_field(grid, seed), random_field(grid, seed + 1)
    sigma = GridField(grid, rng.uniform(0.2, 2.0, size=grid.size))
    v = measure_comparison(u1, u2, sigma, poly)
    cost = sigma.values * (u2.values - u1.values)
    want = minimize_linear_over_mather(oracle, np.repeat(cost, K))[1]
    assert v.min_weighted_gap == pytest.approx(want, abs=ORACLE_TOL)
    # every rest measure is a Mather measure here, so the minimum is nodal
    assert v.min_weighted_gap == pytest.approx(cost.min(), abs=1e-12)
    V0 = random_field(grid, seed + 2)
    w = GridField.constant(grid, -float(V0.values.max()) - 0.1)
    rep = check_largest_subsolution(w, V0, poly, [w], model)
    want = minimize_linear_over_mather(oracle, np.repeat(-w.values - V0.values, K))[1]
    assert rep.entries[0].member
    assert rep.entries[0].membership_gap == pytest.approx(want, abs=ORACLE_TOL)
