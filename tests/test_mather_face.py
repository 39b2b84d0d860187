"""The Mather face: critical arcs, its vertices, and the selection operator
evaluated on them, checked against the full-polytope programs as an oracle."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torushj.selection as selection
from torushj.barrier import critical_value, peierls_barrier
from torushj.errors import MatherLPError
from torushj.grids import GridField, build_grid
from torushj.matherlp import (
    build_polytope,
    fractional_minimize,
    mather_vertices,
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

ALPHA = (np.sqrt(5.0) - 1.0) / 2.0
MODELS = {
    "cosine_well": lambda: builtin_model(
        "mechanical", U=lambda x: np.cos(2 * np.pi * x[..., 0])),
    "double_well": lambda: builtin_model(
        "mechanical", U=lambda x: np.cos(4 * np.pi * x[..., 0])),
    "rotation": lambda: builtin_model(
        "shifted_quadratic", alpha=ALPHA,
        potential=lambda x: -np.sin(2 * np.pi * x[..., 0]) - 0.3),
}
CASES = [(name, n) for name in MODELS for n in (16, 32)]
ORACLE_TOL = 1e-6


@lru_cache(maxsize=None)
def setup(name, n, dt=None):
    grid = build_grid(1, n)
    vset = velocity_set(3.0, 25)
    model = MODELS[name]()
    poly = build_polytope(model, grid, vset, dt)
    model = model.with_c0(poly.c)
    # the oracle programs' minimality row admits action slack tol_min, which
    # lets them move ~tol_min/(reduced cost gap) of mass off the face; keep
    # it small so that they agree with the exact face to ORACLE_TOL
    poly.tol_min = 1e-12
    if dt is None:
        h = peierls_barrier(model, poly)
    else:
        # off-lattice hops leave the barrier DP unreachable; any matrix
        # exercises the operator, so borrow the on-lattice barrier
        h = setup(name, n)[3]
    return model, grid, poly, h


def random_field(grid, seed, scale=0.5, shift=0.0):
    return GridField(grid, shift + scale * np.random.default_rng(seed).normal(size=grid.size))


def oracle_operator(poly, h, sigma, phi, x):
    K = poly.vset.count
    b = np.repeat(sigma.values, K)
    a = np.repeat(sigma.values * (h.values[:, x] + phi.values), K)
    return fractional_minimize(poly, a, b, "positive", check_multiplicity=True)


def test_reduced_costs_certify_the_critical_measure():
    for name, n in CASES:
        _, _, poly, _ = setup(name, n)
        scale = max(1.0, float(np.max(np.abs(poly.action))))
        assert poly.reduced_cost.min() >= -1e-9 * scale
        support = np.flatnonzero(poly.critical_measure.flat() > 0)
        assert np.isin(support, poly.critical_arcs()).all()
        assert float(poly.action @ poly.critical_measure.flat()) == pytest.approx(-poly.c, abs=1e-12)


def test_stored_critical_solution_is_the_lp_solution():
    # the polytope's critical value comes from policy iteration; the
    # arrival-charged LP (the "lp" route) must give the same number, and its
    # optimizer must live on the polytope's critical arcs
    for name, n in CASES:
        model, grid, poly, _ = setup(name, n)
        mu, opt, _ = solve_mather_lp(model, poly)
        assert poly.c == pytest.approx(-opt, abs=1e-12)
        support = np.flatnonzero(mu.flat() > 1e-12)
        assert np.isin(support, poly.critical_arcs()).all()
        cd = critical_value(model, "lp", grid, poly.vset)
        assert cd.c == -opt


def test_mather_vertices_known_models():
    for n in (16, 32):
        K = 25
        cos = mather_vertices(setup("cosine_well", n)[2])
        assert [list(c // K) for c in cos] == [[0]]
        dbl = mather_vertices(setup("double_well", n)[2])
        assert [list(c // K) for c in dbl] == [[0], [n // 2]]
        rot = mather_vertices(setup("rotation", n)[2])
        # the rotation's critical cycles (one or several) cover the circle
        assert sorted(np.concatenate(rot) // K) == list(range(n))
    free = build_polytope(builtin_model("mechanical", U=None), build_grid(1, 12),
                          velocity_set(1.5, 7))
    assert len(mather_vertices(free)) == 12          # every rest measure
    assert mather_vertices(setup("cosine_well", 16, dt=0.0101)[2]) is None


@pytest.mark.parametrize("name,n", CASES)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_operator_vertex_path_matches_full_polytope(name, n, seed):
    model, grid, poly, h = setup(name, n)
    rng = np.random.default_rng(seed)
    phi = random_field(grid, seed)
    sigma = GridField(grid, rng.uniform(0.2, 2.0, size=grid.size))
    res = apply_selection_operator(model, sigma, phi, h, poly)
    assert res.path == "vertex"
    for x in rng.choice(grid.size, size=4, replace=False):
        _, want, _ = oracle_operator(poly, h, sigma, phi, int(x))
        assert res.per_x_value[x] == pytest.approx(want, abs=ORACLE_TOL)


@pytest.mark.parametrize("name,n", CASES)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_limit_formula_vertex_path_matches_full_polytope(name, n, seed):
    model, grid, poly, h = setup(name, n)
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 1.5, size=2)
    # a velocity-dependent dL/du: the vertex weights then differ per arc
    model = dataclasses.replace(
        model, dLdu0=lambda x, v: -(a[0] + 0.3 * np.cos(2 * np.pi * x[..., 0])
                                     + a[1] * v[..., 0] ** 2))
    V0 = random_field(grid, seed)
    res = limit_solution_formula(model, V0, h, poly)
    assert res.path == "vertex" and res.vertices >= 1
    K = poly.vset.count
    dl = selection._dl_flat(model, poly)
    for x in rng.choice(grid.size, size=4, replace=False):
        num = np.repeat(h.values[:, x], K) * dl + np.repeat(V0.values, K)
        _, want, _ = fractional_minimize(poly, num, dl, "negative")
        assert res.field.values[x] == pytest.approx(want, abs=ORACLE_TOL)


@pytest.mark.parametrize("n", (16, 32))
def test_multiplicity_map_double_well_matches_oracle(n):
    model, grid, poly, h = setup("double_well", n)
    sigma = GridField.constant(grid, 1.0)
    for phi in (GridField.constant(grid, 0.0), random_field(grid, n)):
        res = apply_selection_operator(model, sigma, phi, h, poly,
                                       check_multiplicity=True)
        want = {x: bool(oracle_operator(poly, h, sigma, phi, x)[2].multiplicity)
                for x in range(grid.size)}
        assert res.multiplicity == want
    symmetric = apply_selection_operator(model, sigma, GridField.constant(grid, 0.0),
                                         h, poly, check_multiplicity=True)
    assert symmetric.multiplicity[n // 4] and symmetric.multiplicity[3 * n // 4]
    assert not symmetric.multiplicity[0]


@pytest.mark.parametrize("name,n", CASES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_equilibrium_measures_match_linear_oracle(name, n, seed):
    model, grid, poly, h = setup(name, n)
    phi = random_field(grid, seed)
    x = int(np.random.default_rng(seed).integers(grid.size))
    mu, value, mult = equilibrium_measures(model, phi, x, h, poly)
    cost = np.repeat(h.values[:, x] + phi.values, poly.vset.count)
    _, want, info = minimize_linear_over_mather(poly, cost, check_multiplicity=True)
    assert value == pytest.approx(want, abs=ORACLE_TOL)
    assert float(cost @ mu.flat()) == pytest.approx(value, abs=1e-12)
    assert mult == info.multiplicity


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_offlattice_fallback_matches_full_polytope(seed):
    model, grid, poly, h = setup("cosine_well", 16, dt=0.0101)
    rng = np.random.default_rng(seed)
    phi = random_field(grid, seed)
    sigma = GridField(grid, rng.uniform(0.2, 2.0, size=grid.size))
    res = apply_selection_operator(model, sigma, phi, h, poly,
                                   check_multiplicity=True)
    assert res.path == "fallback" and res.vertices is None
    V0 = random_field(grid, seed + 1)
    lim = limit_solution_formula(model, V0, h, poly)
    assert lim.path == "fallback"
    K = poly.vset.count
    for x in rng.choice(grid.size, size=4, replace=False):
        _, want, info = oracle_operator(poly, h, sigma, phi, int(x))
        assert res.per_x_value[x] == pytest.approx(want, abs=ORACLE_TOL)
        assert res.multiplicity[int(x)] == info.multiplicity
        _, want_lim, _ = fractional_minimize(
            poly, np.repeat(-h.values[:, x] + V0.values, K), -np.ones(poly.num_vars),
            "negative")
        assert lim.field.values[x] == pytest.approx(want_lim, abs=ORACLE_TOL)


class TwoArgumentError(RuntimeError):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def test_fallback_failure_chains_a_typed_error(monkeypatch):
    model, grid, poly, h = setup("cosine_well", 16, dt=0.0101)

    def broken(*args, **kwargs):
        raise TwoArgumentError(7, "solver gave up")

    monkeypatch.setattr(selection, "fractional_minimize", broken)
    with pytest.raises(MatherLPError, match="node 0") as err:
        apply_selection_operator(model, GridField.constant(grid, 1.0),
                                 GridField.constant(grid, 0.0), h, poly)
    assert isinstance(err.value.__cause__, TwoArgumentError)


def test_comparison_checks_decide_on_the_exact_face():
    """Rotation n = 32 with seeded random costs: the full-polytope LP, with
    its tol_min = 1e-9 action slack, undercuts the exact face minimum (the
    best cycle mean) by ~1e-6, above both checks' tolerances."""
    grid = build_grid(1, 32)
    vset = velocity_set(3.0, 25)
    model = MODELS["rotation"]()
    poly = build_polytope(model, grid, vset)
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
        rep = check_largest_subsolution(w, V0, poly, [w], model, vset, poly.dt)
        entry = rep.entries[0]
        assert entry.is_subsolution and entry.member and entry.dominated
        assert entry.membership_gap == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_comparison_checks_on_a_branched_critical_graph(seed):
    """alpha = half a velocity step ties v = 0 and v = one step, so every node
    has two critical arcs and the checks take the restricted-LP fallback."""
    grid = build_grid(1, 16)
    vset = velocity_set(3.0, 25)
    model = builtin_model("shifted_quadratic", alpha=vset.spacing / 2)
    poly = build_polytope(model, grid, vset)
    model = model.with_c0(poly.c)
    assert mather_vertices(poly) is None
    assert len(poly.critical_arcs()) == 2 * grid.size
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
    rep = check_largest_subsolution(w, V0, poly, [w], model, vset, poly.dt)
    want = minimize_linear_over_mather(oracle, np.repeat(-w.values - V0.values, K))[1]
    assert rep.entries[0].member
    assert rep.entries[0].membership_gap == pytest.approx(want, abs=ORACLE_TOL)
