import numpy as np
import pytest

from torushj.barrier import solution_from_barrier
from torushj.grids import GridField, PeriodicGrid
from torushj.matherlp import build_polytope
from torushj.models import builtin_model, velocity_set
from torushj.selection import (
    apply_selection_operator,
    check_fixed_point,
    check_largest_subsolution,
    check_operator_lipschitz,
    equilibrium_measures,
    limit_solution_formula,
    measure_comparison,
)
from torushj.solver import Transition, default_dt, residual

ALPHA = (np.sqrt(5.0) - 1.0) / 2.0
COS = lambda x: np.cos(2 * np.pi * x[..., 0])


def make_setup(U, n=48, vmax=3.0, m=33):
    grid = PeriodicGrid(1, n)
    vset = velocity_set(vmax, m)
    model = builtin_model("mechanical", U=U)
    poly = build_polytope(model, Transition(grid, vset))
    model = model.with_c0(poly.c)
    return model, grid, vset, poly, poly.barrier


@pytest.fixture(scope="module")
def cos_setup():
    return make_setup(COS)


@pytest.fixture(scope="module")
def free_setup():
    return make_setup(None, vmax=1.5)


def ones(grid):
    return GridField.constant(grid, 1.0)


def test_operator_free_model_is_min(free_setup):
    # Mather subpolytope of the free model holds every rest measure, so the
    # operator image is the min over node Diracs: brute-force oracle.
    model, grid, vset, poly, h = free_setup
    rng = np.random.default_rng(2)
    phi = GridField(grid, rng.normal(size=grid.size))
    res = apply_selection_operator(ones(grid), phi, poly)
    brute = np.min(h.values + phi.values[:, None], axis=0)
    np.testing.assert_allclose(res.field.values, brute, atol=1e-8)


def test_operator_unique_measure_closed_form(cos_setup):
    model, grid, vset, poly, h = cos_setup
    phi = GridField.from_function(grid, lambda X: np.sin(4 * np.pi * X[..., 0]))
    res = apply_selection_operator(ones(grid), phi, poly)
    np.testing.assert_allclose(res.field.values, h.values[0, :] + phi.values[0],
                               atol=1e-8)


def test_operator_constant_equivariance_exact(cos_setup):
    model, grid, vset, poly, h = cos_setup
    phi = GridField.from_function(grid, lambda X: 0.2 * np.cos(2 * np.pi * X[..., 0]))
    r0 = apply_selection_operator(ones(grid), phi, poly)
    r1 = apply_selection_operator(ones(grid), GridField(grid, phi.values + 1.7), poly)
    np.testing.assert_allclose(r1.field.values, r0.field.values + 1.7, atol=1e-9)


def test_operator_monotone(cos_setup):
    model, grid, vset, poly, h = cos_setup
    rng = np.random.default_rng(3)
    f1 = rng.normal(size=grid.size)
    f2 = f1 + rng.uniform(0, 1, size=grid.size)
    r1 = apply_selection_operator(ones(grid), GridField(grid, f1), poly)
    r2 = apply_selection_operator(ones(grid), GridField(grid, f2), poly)
    assert np.all(r1.field.values <= r2.field.values + 1e-9)


def test_operator_lipschitz_cases(cos_setup):
    model, grid, vset, poly, h = cos_setup
    phi = GridField.from_function(grid, lambda X: 0.3 * np.sin(2 * np.pi * X[..., 0]))
    lhs, rhs, ok = check_operator_lipschitz(ones(grid), phi, GridField(grid, phi.values + 0.4), poly)
    assert ok and lhs == pytest.approx(0.4, abs=1e-9) and rhs == pytest.approx(0.4)
    lhs2, rhs2, ok2 = check_operator_lipschitz(ones(grid), phi, phi, poly)
    assert ok2 and lhs2 == 0.0 and rhs2 == 0.0
    rng = np.random.default_rng(7)
    for _ in range(5):
        f1 = GridField(grid, rng.normal(size=grid.size) * 0.3)
        f2 = GridField(grid, rng.normal(size=grid.size) * 0.3)
        _, _, okr = check_operator_lipschitz(ones(grid), f1, f2, poly)
        assert okr


def test_sigma_weighted_operator_matches_dirac_evaluation(cos_setup):
    # nonconstant sigma: on the singleton polytope the ratio is evaluated at
    # the Dirac regardless of the weight
    model, grid, vset, poly, h = cos_setup
    sig = GridField.from_function(grid, lambda X: 1.5 + 0.5 * np.sin(2 * np.pi * X[..., 0]))
    phi = GridField.from_function(grid, lambda X: np.cos(2 * np.pi * X[..., 0]))
    res = apply_selection_operator(sig, phi, poly)
    np.testing.assert_allclose(res.field.values, h.values[0, :] + phi.values[0],
                               atol=1e-8)


def test_operator_multiplicity_map_double_well():
    model, grid, vset, poly, h = make_setup(
        lambda x: np.cos(4 * np.pi * x[..., 0]), n=32)
    phi = GridField.constant(grid, 0.0)
    x_mid = grid.n // 4
    res = apply_selection_operator(ones(grid), phi, poly,
                                   nodes=[0, x_mid], check_multiplicity=True)
    assert res.multiplicity[x_mid] is True      # equidistant from both wells
    assert res.multiplicity[0] is False         # its own well strictly wins


def test_limit_formula_unique_measure(cos_setup):
    model, grid, vset, poly, h = cos_setup
    V0 = GridField.from_function(grid, lambda X: 0.25 * np.cos(2 * np.pi * X[..., 0]) + 0.1)
    res = limit_solution_formula(model, V0, poly)
    np.testing.assert_allclose(res.field.values, h.values[0, :] - V0.values[0],
                               atol=1e-8)


def test_limit_formula_rotation_selects_mean():
    grid = PeriodicGrid(1, 64)
    vset = velocity_set(3.0, 49)
    target = lambda x: np.sin(2 * np.pi * x[..., 0]) + 0.3
    model = builtin_model("shifted_quadratic", alpha=ALPHA,
                          potential=lambda x: -target(x))
    poly = build_polytope(model, Transition(grid, vset))
    model = model.with_c0(poly.c)
    V0 = GridField.from_function(grid, model.V0)
    res = limit_solution_formula(model, V0, poly)
    np.testing.assert_allclose(res.field.values, 0.3, atol=0.05)


def test_limit_formula_zero_potential_is_discount_limit(cos_setup):
    from torushj.solver import compute_bracket, solve_perturbed
    model, grid, vset, poly, h = cos_setup
    V0 = GridField.constant(grid, 0.0)
    res = limit_solution_formula(model, V0, poly)
    br = compute_bracket(model, solution_from_barrier(h, 0))
    fld, rep = solve_perturbed(model, 1e-3, Transition(grid, vset), tol=1e-9, bracket=br)
    assert rep.converged
    assert np.max(np.abs(fld.values - res.field.values)) <= 0.05


def test_limit_formula_requires_negative_derivative(cos_setup):
    import dataclasses
    model, grid, vset, poly, h = cos_setup
    broken = dataclasses.replace(
        model, dLdu0=lambda x, v: np.zeros(np.asarray(x).shape[:-1]))
    from torushj.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        limit_solution_formula(broken, GridField.constant(grid, 0.0), poly)


def test_fixed_point_checks(cos_setup):
    model, grid, vset, poly, h = cos_setup
    grid_err = max(abs(h.values[0, 0]), grid.h)
    col = solution_from_barrier(h, 0)
    ok, _ = check_fixed_point(ones(grid), col, poly, tol=3 * grid_err)
    assert ok
    # strict subsolution (solution plus a bump vanishing on the Aubry set)
    X = grid.axis_coords()
    dist = np.minimum(X, 1 - X)
    bumped = GridField(grid, col.values + 0.5 * dist)
    ok2, diff2 = check_fixed_point(ones(grid), bumped, poly, tol=3 * grid_err)
    assert not ok2 and diff2 >= 0.2


def test_fixed_point_constants_free_model(free_setup):
    model, grid, vset, poly, h = free_setup
    const = GridField.constant(grid, 0.8)
    ok, _ = check_fixed_point(ones(grid), const, poly, tol=3 * 0.02)
    assert ok


def test_idempotence_and_image_residual(cos_setup):
    model, grid, vset, poly, h = cos_setup
    rng = np.random.default_rng(11)
    dt = default_dt(grid, vset)
    grid_err = max(abs(h.values[0, 0]), grid.h)
    for _ in range(3):
        phi = GridField(grid, rng.normal(size=grid.size) * 0.5)
        p1 = apply_selection_operator(ones(grid), phi, poly).field
        p2 = apply_selection_operator(ones(grid), p1, poly).field
        assert np.max(np.abs(p2.values - p1.values)) <= 2 * 3 * grid_err
        assert residual(model, 0.0, p1, Transition(grid, vset, dt)) <= 25.0 * grid.h


def test_measure_comparison_cases(cos_setup):
    model, grid, vset, poly, h = cos_setup
    col = solution_from_barrier(h, 0)
    v_same = measure_comparison(col, col, ones(grid), poly)
    assert v_same.hypothesis and v_same.conclusion and v_same.implication_holds
    v_ord = measure_comparison(col, GridField(grid, col.values + 1.0), ones(grid), poly)
    assert v_ord.hypothesis and v_ord.conclusion
    v_flip = measure_comparison(GridField(grid, col.values + 0.3), col, ones(grid), poly)
    assert not v_flip.hypothesis           # integral at the Dirac now larger
    assert v_flip.implication_holds        # vacuous


def test_theorem_d_randomized_pairs(cos_setup):
    model, grid, vset, poly, h = cos_setup
    rng = np.random.default_rng(13)
    grid_err = max(abs(h.values[0, 0]), grid.h)
    cols = [solution_from_barrier(h, int(y))
            for y in rng.integers(0, grid.size, size=6)]
    for _ in range(10):
        a, b = rng.integers(0, len(cols), size=2)
        u1 = GridField(grid, np.minimum(cols[a].values, cols[b].values) + rng.normal() * 0.3)
        u2 = GridField(grid, cols[rng.integers(0, len(cols))].values + rng.normal() * 0.3)
        v = measure_comparison(u1, u2, ones(grid), poly,
                               tol_conclusion=3 * grid_err)
        assert v.implication_holds


def test_largest_subsolution_report(cos_setup):
    model, grid, vset, poly, h = cos_setup
    dt = default_dt(grid, vset)
    V0 = GridField.from_function(grid, lambda X: 0.25 * np.cos(2 * np.pi * X[..., 0]) + 0.1)
    u0 = limit_solution_formula(model, V0, poly).field
    candidates = [u0, GridField(grid, u0.values - 0.3), GridField(grid, u0.values + 0.3)]
    rep = check_largest_subsolution(u0, V0, poly, candidates, model,
                                    sub_tol=1e-4, member_tol=1e-6, dom_tol=1e-6)
    assert rep.entries[0].is_subsolution and rep.entries[0].member
    assert rep.entries[0].dominated
    assert rep.entries[1].member and rep.entries[1].dominated
    assert rep.entries[2].is_subsolution and not rep.entries[2].member
    assert rep.all_members_dominated


def test_largest_subsolution_rejects_nonsubsolution(cos_setup):
    model, grid, vset, poly, h = cos_setup
    dt = default_dt(grid, vset)
    V0 = GridField.constant(grid, 0.0)
    u0 = limit_solution_formula(model, V0, poly).field
    rng = np.random.default_rng(17)
    noisy = GridField(grid, u0.values + rng.normal(size=grid.size))
    rep = check_largest_subsolution(u0, V0, poly, [noisy], model)
    assert not rep.entries[0].is_subsolution
    assert rep.entries[0].member is None


def test_equilibrium_measures_unique_and_double_well():
    # single well: unique witness, no multiplicity
    model, grid, vset, poly, h = make_setup(COS, n=32)
    phi = GridField.constant(grid, 0.0)
    mu, val, mult = equilibrium_measures(phi, 8, poly)
    assert not mult
    assert mu.projected()[0] >= 0.99
    sel = apply_selection_operator(GridField.constant(grid, 1.0), phi, poly, nodes=[8])
    assert val == pytest.approx(sel.per_x_value[0], abs=1e-8)

    # symmetric double well cos(4 pi x): both maxima optimal at the midpoint
    model2, grid2, vset2, poly2, h2 = make_setup(
        lambda x: np.cos(4 * np.pi * x[..., 0]), n=32)
    x_mid = grid2.n // 4                      # x = 0.25, equidistant
    phi2 = GridField.constant(grid2, 0.0)
    mu2, val2, mult2 = equilibrium_measures(phi2, x_mid, poly2)
    # brute force over the two-vertex polytope: both Diracs give equal cost
    cost_a = h2.values[0, x_mid]
    cost_b = h2.values[grid2.n // 2, x_mid]
    assert cost_a == pytest.approx(cost_b, abs=1e-9)
    assert val2 == pytest.approx(min(cost_a, cost_b), abs=1e-8)
    assert mult2

    # symmetry-breaking bump favors one maximum
    bump = np.zeros(grid2.size)
    bump[0] = -0.1
    mu3, _, mult3 = equilibrium_measures(GridField(grid2, bump), x_mid, poly2)
    assert not mult3
    proj = mu3.projected()
    near0 = np.minimum(np.arange(grid2.size), grid2.size - np.arange(grid2.size)) <= 2
    assert proj[near0].sum() >= 0.9

