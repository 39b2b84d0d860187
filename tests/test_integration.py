"""Cross-module consistency checks: numeric conjugate vs analytic
Lagrangians, the sigma-weighted discounted family against the selection
operator, and a two-dimensional end-to-end smoke."""

import numpy as np
import pytest

from torushj.barrier import critical_value, peierls_barrier
from torushj.curves import backward_calibrated_curve, occupation_measure
from torushj.grids import GridField, PeriodicGrid
from torushj.matherlp import build_polytope, solve_mather_lp
from torushj.models import builtin_model, fenchel_lagrangian, velocity_set
from torushj.selection import apply_selection_operator
from torushj.solver import Transition, compute_bracket, default_dt, lambda_sweep, solve_perturbed

COS = lambda x: np.cos(2 * np.pi * x[..., 0])


def test_fenchel_cross_checks_analytic_lagrangians():
    rng = np.random.default_rng(9)
    cases = [
        ("mechanical", {"U": COS}),
        ("shifted_quadratic", {"alpha": 0.61}),
        ("arctan_discount", {}),
    ]
    for name, params in cases:
        model = builtin_model(name, **params)
        for _ in range(5):
            x = rng.uniform(0, 1, size=1)
            v = rng.uniform(-1.5, 1.5, size=1)
            u = rng.uniform(-0.5, 0.5)
            numeric = fenchel_lagrangian(model, x, v, u, m=257)
            exact = float(model.L(x[None, :], v[None, :], u)[0])
            assert numeric == pytest.approx(exact, abs=1e-3)


def test_sigma_discounted_family_converges_to_operator_value():
    # Theorem-C wiring: solutions of sigma(x)*lam*u + G(x,du) - lam*sigma*phi
    # = c(G) approach (P^sigma phi); with a single minimizing measure the
    # value is h(x*, .) + phi(x*).
    grid = PeriodicGrid(1, 64)
    vset = velocity_set(3.0, 33)
    dt = default_dt(grid, vset)
    sig = lambda x: 1.5 + 0.5 * np.sin(2 * np.pi * x[..., 0])
    phi = lambda x: 0.4 * np.cos(2 * np.pi * x[..., 0]) + 0.2
    model = builtin_model("sigma_discounted", U=COS, sigma=sig, phi=phi)
    poly = build_polytope(model, Transition(grid, vset, dt))
    model = model.with_c0(poly.c)
    h = poly.barrier
    sel = apply_selection_operator(GridField.from_function(grid, sig),
                                   GridField.from_function(grid, phi), poly)

    bracket = compute_bracket(model, GridField(grid, h.values[0, :].copy()))
    entries = lambda_sweep(model, (0.1, 0.03, 0.01, 0.003), Transition(grid, vset, dt),
                           tol=1e-8, bracket=bracket)
    assert all(e.report.converged for e in entries)
    final = entries[-1].field
    assert np.max(np.abs(final.values - sel.field.values)) <= 0.05
    phi0 = phi(grid.node_coords())[0]
    np.testing.assert_allclose(sel.field.values, h.values[0, :] + phi0, atol=1e-8)


@pytest.fixture(scope="module")
def setup_2d():
    grid = PeriodicGrid(2, 12)
    vset = velocity_set(2.0, 9, d=2)
    dt = default_dt(grid, vset)
    U = lambda x: np.cos(2 * np.pi * x[..., 0]) + np.cos(2 * np.pi * x[..., 1])
    model = builtin_model("mechanical", d=2, U=U)
    poly = build_polytope(model, Transition(grid, vset, dt))
    model = model.with_c0(poly.c)
    return model, grid, vset, dt, poly


def test_2d_critical_value_and_measure(setup_2d):
    model, grid, vset, dt, poly = setup_2d
    assert model.c0 == pytest.approx(2.0, abs=1e-9)   # c = max U at the origin
    mu, val, _ = solve_mather_lp(model, poly)
    assert val == pytest.approx(-2.0, abs=1e-9)
    assert mu.projected()[0] >= 0.99


def test_2d_solve_and_trace(setup_2d):
    model, grid, vset, dt, poly = setup_2d
    h = peierls_barrier(poly)
    bracket = compute_bracket(model, GridField(grid, h.values[0, :].copy()))
    lam = 0.05
    fld, rep = solve_perturbed(model, lam, Transition(grid, vset, dt), tol=1e-9,
                               bracket=bracket)
    assert rep.converged and rep.bracket_violations == 0
    x0 = grid.node_coords()[grid.flat_index(np.array([5, 8]))]
    tr = backward_calibrated_curve(model, lam, fld, x0, Tmax=10.0 / lam,
                                   arcs=Transition(grid, vset, dt), solver_tol=1e-9)
    assert tr.on_lattice
    end = tr.points[-1]
    dist = np.sqrt(np.sum(np.minimum(end, 1 - end) ** 2))
    assert dist <= 2 * grid.h
    mu = occupation_measure(tr)
    assert mu.projected()[0] >= 0.5


def test_2d_barrier_column(setup_2d):
    model, grid, vset, dt, poly = setup_2d
    h = peierls_barrier(poly)
    assert abs(h.values[0, 0]) <= 0.05
    col = h.values[0, :]
    assert int(np.argmin(col)) == 0
    cd = critical_value(model, "longtime", Transition(grid, vset))
    assert cd.c == pytest.approx(2.0, abs=0.05)
