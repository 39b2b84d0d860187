import dataclasses

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from torushj.errors import DomainError, MatherLPError
from torushj.experiments import parse_potential
from torushj.grids import PeriodicGrid
from torushj.matherlp import (
    DiscreteMeasure,
    _run_lp,
    build_polytope,
    closedness_operator,
    fractional_minimize,
    graph_check,
    minimize_linear_over_mather,
    solve_mather_lp,
)
from torushj.models import builtin_model, velocity_set
from torushj.solver import Transition, default_dt

ALPHA = (np.sqrt(5.0) - 1.0) / 2.0
COS = lambda x: np.cos(2 * np.pi * x[..., 0])
ORACLE_TOL = 1e-6


def make_measure(grid, vset, pairs):
    W = np.zeros((grid.size, vset.count))
    for (i, k), w in pairs.items():
        W[i, k] = w
    return DiscreteMeasure(grid, vset, W)


@pytest.fixture(scope="module")
def setup32():
    grid = PeriodicGrid(1, 32)
    vset = velocity_set(2.0, 17)
    dt = default_dt(grid, vset)
    return grid, vset, dt, closedness_operator(Transition(grid, vset, dt))


def test_closedness_rows_and_columns_sum_zero(setup32):
    _, _, _, C = setup32
    dense = C.toarray()
    np.testing.assert_allclose(dense.sum(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(dense.sum(axis=1), 0.0, atol=1e-12)


def test_rest_measures_are_closed(setup32):
    grid, vset, _, C = setup32
    z = vset.zero_index
    mu = make_measure(grid, vset, {(3, z): 0.25, (11, z): 0.75})
    np.testing.assert_allclose(np.abs(C @ mu.flat()), 0.0, atol=1e-12)


def test_uniform_constant_velocity_closed(setup32):
    grid, vset, _, C = setup32
    k = vset.count - 2                  # some nonzero lattice velocity
    W = np.zeros((grid.size, vset.count))
    W[:, k] = 1.0 / grid.size
    mu = DiscreteMeasure(grid, vset, W)
    assert np.max(np.abs(C @ mu.flat())) <= 1e-12


def test_moving_dirac_not_closed(setup32):
    grid, vset, _, C = setup32
    k = vset.count - 1                  # fastest velocity
    mu = make_measure(grid, vset, {(5, k): 1.0})
    defect = C @ mu.flat()
    assert defect[5] == pytest.approx(-1.0)
    assert np.max(np.abs(defect)) == pytest.approx(1.0)


def test_mather_lp_mechanical_cos(setup32):
    grid, vset, dt, _ = setup32
    model = builtin_model("mechanical", U=COS)
    poly = build_polytope(model, Transition(grid, vset, dt))
    mu, val, _ = solve_mather_lp(model, poly)
    # brute-force oracle: among rest measures the best is the Dirac at the
    # maximum of U, value -max(U) = -1; no closed measure does better since
    # L0 >= -1 pointwise
    assert val == pytest.approx(-1.0, abs=1e-9)
    assert mu.mass == pytest.approx(1.0, abs=1e-9)
    proj = mu.projected()
    assert proj[0] >= 0.99


def test_mather_lp_free_trivial(setup32):
    grid, vset, dt, _ = setup32
    model = builtin_model("mechanical", U=None)
    poly = build_polytope(model, Transition(grid, vset, dt))
    _, val, _ = solve_mather_lp(model, poly)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_mather_lp_shifted_quadratic_uniform():
    grid = PeriodicGrid(1, 64)
    vset = velocity_set(3.0, 49)
    model = builtin_model("shifted_quadratic", alpha=ALPHA)
    poly = build_polytope(model, Transition(grid, vset))
    mu, val, _ = solve_mather_lp(model, poly)
    assert val == pytest.approx(-0.5 * ALPHA**2, abs=0.02)
    tv = 0.5 * np.abs(mu.projected() - 1.0 / grid.size).sum()
    assert tv <= 0.1


def test_lp_optimizer_feasibility(setup32):
    grid, vset, dt, C = setup32
    model = builtin_model("mechanical", U=COS)
    poly = build_polytope(model, Transition(grid, vset, dt))
    mu, _, _ = solve_mather_lp(model, poly)
    assert abs(mu.mass - 1.0) <= 1e-9
    assert np.max(np.abs(C @ mu.flat())) <= 1e-9


def test_minimize_linear_examples(setup32):
    grid, vset, dt, _ = setup32
    model = builtin_model("mechanical", U=COS)
    poly = build_polytope(model, Transition(grid, vset, dt))
    _, v_action, _ = minimize_linear_over_mather(poly, poly.action)
    assert v_action == pytest.approx(-1.0, abs=1e-8)
    _, v_one, _ = minimize_linear_over_mather(poly, np.ones(poly.num_vars))
    assert v_one == pytest.approx(1.0, abs=1e-9)
    # arbitrary node function: the unique minimizing Dirac sits at x = 0
    phi = np.cos(4 * np.pi * grid.node_coords()[:, 0]) + 0.5
    cost = np.repeat(phi, vset.count)
    _, v_phi, _ = minimize_linear_over_mather(poly, cost)
    assert v_phi == pytest.approx(phi[0], abs=1e-8)


def test_minimize_linear_monotone_under_constraints(setup32):
    grid, vset, dt, C = setup32
    model = builtin_model("mechanical", U=COS)
    poly = build_polytope(model, Transition(grid, vset, dt))
    rng = np.random.default_rng(5)
    cost = rng.normal(size=poly.num_vars)
    _, with_min, _ = minimize_linear_over_mather(poly, cost)
    # unconstrained-over-closed-measures LP with the same cost
    A_eq = sparse.vstack([C, sparse.csr_matrix(np.ones((1, poly.num_vars)))])
    b_eq = np.concatenate([np.zeros(grid.size), [1.0]])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
    assert with_min >= res.fun - 1e-9


def linear_oracle(poly, cost, check_multiplicity=False):
    """The linear program over the Mather face in its own form, not as a
    Charnes-Cooper program: mass row sum w = 1, action row
    L0 . w <= -c + tol_min, and for the flag a second LP that maximizes the
    mass movable off the returned support at optimal cost."""
    n = poly.num_vars
    A_eq = sparse.vstack([poly.C, sparse.csr_matrix(np.ones((1, n)))])
    b_eq = np.concatenate([np.zeros(poly.grid.size), [1.0]])
    A_ub = sparse.csr_matrix(poly.action[None, :])
    b_ub = np.array([-poly.c + poly.tol_min])
    res = _run_lp(cost, A_eq, b_eq, A_ub, b_ub)
    if not check_multiplicity:
        return float(res.fun), None
    face_tol = 1e-9 * max(1.0, float(np.max(np.abs(cost))))
    off = (res.x <= 1e-9).astype(float)
    res2 = _run_lp(-off, A_eq, b_eq, sparse.vstack([A_ub, sparse.csr_matrix(cost[None, :])]),
                   np.append(b_ub, res.fun + face_tol))
    return float(res.fun), bool(-res2.fun > 0.01)


@pytest.mark.parametrize("U, alpha, n", [
    (COS, None, 32),
    (lambda x: np.cos(4 * np.pi * x[..., 0]), None, 16),      # two static classes
    (lambda x: -np.sin(2 * np.pi * x[..., 0]) - 0.3, ALPHA, 16),
    (None, velocity_set(3.0, 25).spacing / 2, 16),           # a branched face
])
def test_minimize_linear_matches_the_linear_oracle(U, alpha, n):
    grid = PeriodicGrid(1, n)
    vset = velocity_set(3.0, 25)
    model = (builtin_model("mechanical", U=U) if alpha is None else
             builtin_model("shifted_quadratic", alpha=alpha, potential=U))
    # the action row's slack tol_min lets a vertex of the full polytope
    # undercut the face minimum by up to about 1e3 * tol_min (the rotation
    # case at 1e-9: the oracle's form by 1.2e-6, while the Charnes-Cooper
    # form keeps to the face); at 1e-12 both forms stay within 1e-9 of it
    poly = dataclasses.replace(build_polytope(model, Transition(grid, vset)), tol_min=1e-12)
    rng = np.random.default_rng(n)
    nodal = np.repeat(np.cos(4 * np.pi * grid.node_coords()[:, 0]), vset.count)
    costs = [rng.normal(size=poly.num_vars) for _ in range(6)]
    for cost in costs + [np.ones(poly.num_vars), nodal]:
        _, val, mult = minimize_linear_over_mather(poly, cost, check_multiplicity=True)
        want, want_mult = linear_oracle(poly, cost, check_multiplicity=True)
        assert val == pytest.approx(want, abs=ORACLE_TOL)
        assert mult == want_mult


def test_minimize_linear_weights_stay_above_the_measure_floor():
    # the linear program in `linear_oracle`'s form, at HiGHS's default
    # feasibility tolerance, returned a vertex weight of -1.8e-9 here, which
    # DiscreteMeasure refuses
    model = builtin_model("mechanical", U=parse_potential("cos:amp=1,freq=2"))
    poly = build_polytope(model, Transition(PeriodicGrid(1, 16), velocity_set(3.0, 49)))
    cost = np.random.default_rng(14).normal(size=poly.num_vars)
    mu, val, _ = minimize_linear_over_mather(poly, cost)
    assert mu.mass == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(poly.C @ mu.flat())) <= 1e-9
    assert float(cost @ mu.flat()) == pytest.approx(val, abs=1e-9)
    assert val == pytest.approx(linear_oracle(poly, cost)[0], abs=ORACLE_TOL)


def test_fractional_constant_ratio_random_polytopes():
    # numerator = k * denominator gives k on any polytope
    rng = np.random.default_rng(42)
    grid = PeriodicGrid(1, 16)
    vset = velocity_set(2.0, 9)
    for trial in range(10):
        U = lambda x, a=rng.normal(size=3): (
            a[0] * np.cos(2 * np.pi * x[..., 0])
            + a[1] * np.sin(2 * np.pi * x[..., 0]) + a[2])
        model = builtin_model("mechanical", U=U)
        poly = build_polytope(model, Transition(grid, vset))
        b = np.repeat(1.0 + 0.5 * rng.uniform(size=grid.size), vset.count)
        k = rng.normal()
        _, val, _ = fractional_minimize(poly, k * b, b)
        assert val == pytest.approx(k, abs=1e-8)


def test_fractional_singleton_and_cc_roundtrip(setup32):
    grid, vset, dt, C = setup32
    model = builtin_model("mechanical", U=COS)
    poly = build_polytope(model, Transition(grid, vset, dt))
    X = grid.node_coords()[:, 0]
    a_node = np.sin(2 * np.pi * X) + 2.0
    b_node = 1.0 + 0.25 * np.cos(2 * np.pi * X)
    a = np.repeat(a_node, vset.count)
    b = np.repeat(b_node, vset.count)
    mu, val, _ = fractional_minimize(poly, a, b)
    # singleton Mather polytope: ratio evaluated at the Dirac at node 0
    assert val == pytest.approx(a_node[0] / b_node[0], abs=1e-8)
    # de-homogenized optimizer is itself feasible for the subpolytope
    assert abs(mu.mass - 1.0) <= 1e-8
    assert np.max(np.abs(C @ mu.flat())) <= 1e-8
    assert float(poly.action @ mu.flat()) <= -poly.c + poly.tol_min + 1e-8


def test_fractional_negative_denominator(setup32):
    grid, vset, dt, _ = setup32
    model = builtin_model("mechanical", U=COS)
    poly = build_polytope(model, Transition(grid, vset, dt))
    b = -np.ones(poly.num_vars)
    a = np.repeat(np.cos(2 * np.pi * grid.node_coords()[:, 0]), vset.count)
    _, val, _ = fractional_minimize(poly, a, b)
    # ratio = (int a dmu)/(-1): minimized by MAXIMIZING int a dmu; the
    # singleton polytope pins it at a(0)/-1 = -1
    assert val == pytest.approx(-1.0, abs=1e-8)


def test_fractional_sign_is_read_from_the_denominator():
    # (a, b) and (-a, -b) are one ratio, so one program: the same value and
    # measure bit for bit; a denominator that is not strictly one-signed has
    # no Charnes-Cooper program and is refused
    grid = PeriodicGrid(1, 16)
    vset = velocity_set(3.0, 25)
    model = builtin_model("mechanical", U=lambda x: np.cos(4 * np.pi * x[..., 0]))
    poly = build_polytope(model, Transition(grid, vset))
    rng = np.random.default_rng(3)
    for _ in range(3):
        a = rng.normal(size=poly.num_vars)
        b = rng.uniform(0.2, 2.0, size=poly.num_vars)
        mu, val, mult = fractional_minimize(poly, a, b, check_multiplicity=True)
        mu_neg, val_neg, mult_neg = fractional_minimize(poly, -a, -b, check_multiplicity=True)
        assert val_neg == val and mult_neg == mult
        np.testing.assert_array_equal(mu_neg.weights, mu.weights)
        assert val == pytest.approx(float(a @ mu.flat()) / float(b @ mu.flat()), abs=1e-9)
        for bad in (np.where(np.arange(b.size) % 2, b, -b), np.append(0.0, b[1:])):
            with pytest.raises(DomainError, match="one-signed"):
                fractional_minimize(poly, a, bad)


def test_fractional_infeasible_tol_min():
    grid = PeriodicGrid(1, 16)
    vset = velocity_set(2.0, 9)
    model = builtin_model("mechanical", U=COS)
    poly = build_polytope(model, Transition(grid, vset))
    poly.c = poly.c + 1.0          # impossible minimality level
    with pytest.raises(MatherLPError):
        minimize_linear_over_mather(poly, poly.action)


def test_projected_measure_examples(setup32):
    grid, vset, _, _ = setup32
    mu = make_measure(grid, vset, {(7, 3): 1.0})
    proj = mu.projected()
    assert proj[7] == 1.0 and proj.sum() == 1.0
    W = np.full((grid.size, vset.count), 1.0 / (grid.size * vset.count))
    uni = DiscreteMeasure(grid, vset, W)
    np.testing.assert_allclose(uni.projected(), 1.0 / grid.size)


def test_projected_concentration_mechanical():
    grid = PeriodicGrid(1, 64)
    vset = velocity_set(3.0, 33)
    model = builtin_model("mechanical", U=COS)
    poly = build_polytope(model, Transition(grid, vset))
    mu, _, _ = solve_mather_lp(model, poly)
    proj = mu.projected()
    near = np.minimum(np.arange(grid.size), grid.size - np.arange(grid.size)) <= 2
    assert proj[near].sum() >= 0.9


def test_lp_agrees_with_discount_route_all_builtins():
    from torushj.barrier import critical_value
    grid = PeriodicGrid(1, 64)
    vset = velocity_set(3.0, 33)
    sig = lambda x: 1.25 + 0.25 * np.cos(2 * np.pi * x[..., 0])
    cases = [
        builtin_model("mechanical", U=COS),
        builtin_model("shifted_quadratic", alpha=ALPHA),
        builtin_model("arctan_discount"),
        builtin_model("sigma_discounted", U=COS, sigma=sig,
                      phi=lambda x: np.sin(2 * np.pi * x[..., 0])),
    ]
    for model in cases:
        cd = critical_value(model, ("lp", "discount"), Transition(grid, vset))
        assert cd.spread <= 0.05, model.name


def test_graph_check(setup32):
    grid, vset, dt, _ = setup32
    model = builtin_model("mechanical", U=COS)
    poly = build_polytope(model, Transition(grid, vset, dt))
    mu, _, _ = solve_mather_lp(model, poly)
    assert graph_check(mu).passed

    sq = builtin_model("shifted_quadratic", alpha=ALPHA)
    grid64 = PeriodicGrid(1, 64)
    vs = velocity_set(3.0, 49)
    poly2 = build_polytope(sq, Transition(grid64, vs))
    mu2, _, _ = solve_mather_lp(sq, poly2)
    assert graph_check(mu2).passed

    # hand-built two-velocity measure at one node fails
    bad = make_measure(grid, vset, {(4, 0): 0.5, (4, vset.count - 1): 0.5})
    assert not graph_check(bad).passed
