"""Howard policy iteration in `solve_perturbed` against the accelerated value
iteration it replaced, kept here as its oracle: the same fields within the
two solves' tolerance bands, and an exact finish (residual <= 1e-12) for
every coupling affine in u."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_peierls_exact import smooth_potential
from torushj.grids import GridField, PeriodicGrid
from torushj.models import builtin_model, velocity_set
from torushj.solver import (Transition, _Kernel, compute_bracket, default_dt, lambda_sweep,
                            residual, solve_perturbed)

ALPHA = (np.sqrt(5.0) - 1.0) / 2.0
AFFINE = ("mechanical", "shifted_quadratic", "sigma_discounted")


def accelerated_value_iteration(model, lam, grid, vset, dt, tol, max_iter=200000,
                                bracket=None, init=None, stall_window=3000):
    """The retired solver loop: Bellman sweeps with the constant-mode
    extrapolation u <- T[u] + g/(1-g) * mid(T[u] - u), g = 1 - lam*dt*min(sigma),
    capped by the bracket headroom, and a stall window.  Returns the field
    values and the final residual."""
    kernel = _Kernel(model, lam, Transition(grid, vset, dt))
    lo = hi = None
    if bracket is not None:
        lo, hi = bracket.lower.values, bracket.upper.values
    if init is not None:
        u = init.values.copy()
    elif bracket is not None:
        u = 0.5 * (lo + hi)
    else:
        u = np.zeros(grid.size)
    sigma = -np.asarray(model.dLdu0(kernel.X, np.zeros_like(kernel.X)), dtype=float)
    gfac = 1.0 - lam * dt * float(sigma.min())
    accelerate = 0.0 < gfac < 1.0
    checkpoint = res = np.inf
    for it in range(1, max_iter + 1):
        Tu = kernel.apply(u)
        dvec = Tu - u
        res = float(np.max(np.abs(dvec)) / dt)
        if res <= tol:
            break
        if it % stall_window == 0:
            if res > 0.995 * checkpoint:
                break
            checkpoint = res
        if accelerate:
            shift = (gfac / (1.0 - gfac)) * 0.5 * (dvec.min() + dvec.max())
            if lo is not None:
                up = float(np.min(hi - Tu))
                dn = float(np.max(lo - Tu))
                shift = min(max(shift, dn), up) if dn <= up else 0.0
            u = Tu + shift
        else:
            u = Tu
        if lo is not None:
            np.clip(u, lo, hi, out=u)
    return u, res


def random_model(name, d, seed):
    """A built-in model with seeded smooth data: potential U, weight
    sigma(x) in (0.8, 1.2), discount-scale potential and shift alpha."""
    U = smooth_potential(seed, d)
    W = smooth_potential(seed + 1, d)
    sigma = lambda x: 1.0 + 0.2 * np.tanh(W(x))
    if name == "mechanical":
        model = builtin_model(name, d=d, U=U, sigma=sigma, potential=W)
    elif name == "sigma_discounted":
        model = builtin_model(name, d=d, U=U, sigma=sigma, phi=W)
    elif name == "shifted_quadratic":
        alpha = np.random.default_rng(seed).uniform(-1.0, 1.0, size=d)
        model = builtin_model(name, d=d, alpha=alpha, potential=U)
    else:
        return builtin_model(name, d=d).with_c0(0.0)
    return model.with_c0(1.0)


def setting(d, n, dt_kind):
    grid = PeriodicGrid(d, n)
    vset = velocity_set(2.0, 9 if d == 1 else 5, d)
    dt = default_dt(grid, vset)
    return grid, vset, {"default": dt, "double": 2.0 * dt, "off": 0.77 * dt}[dt_kind]


def effective_sigma_min(model, lam, u, X):
    """Smallest -d/du L(x, v, lam*u)/lam over the solution's range: sigma for
    affine couplings, 1/(1 + (lam*u)^2) for arctan_discount."""
    if model.name == "arctan_discount":
        return 1.0 / (1.0 + (lam * float(np.max(np.abs(u))))**2)
    return float(np.min(-model.dLdu0(X, np.zeros_like(X))))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("dt_kind", ["default", "double", "off"])
@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(AFFINE + ("arctan_discount",)),
       seed=st.integers(0, 2**31 - 1), lam=st.floats(0.1, 0.8),
       n_extra=st.integers(0, 8))
def test_policy_iteration_matches_value_iteration(d, dt_kind, name, seed, lam, n_extra):
    n = 12 + n_extra if d == 1 else 6 + n_extra // 2
    grid, vset, dt = setting(d, n, dt_kind)
    model = random_model(name, d, seed)
    tol = 1e-9
    affine = name in AFFINE
    fld, rep = solve_perturbed(model, lam, Transition(grid, vset, dt),
                               tol=1e-12 if affine else tol, max_iter=5000)
    assert rep.converged and not rep.stalled
    if affine:
        # Howard ends after a few exact evaluations (at most 6 seen on these
        # grids); a step with the wrong decay only contracts geometrically.
        assert rep.iterations <= 12
        assert rep.final_residual <= 1e-12
        assert residual(model, lam, fld, Transition(grid, vset, dt)) <= 1e-12
    want, res = accelerated_value_iteration(model, lam, grid, vset, dt, tol)
    assert res <= tol
    sig = effective_sigma_min(model, lam, want, grid.node_coords())
    bound = 2.0 * tol / (lam * sig)
    np.testing.assert_allclose(fld.values, want, rtol=0, atol=bound)


def test_bracketed_warm_sweep_matches_value_iteration():
    # The example_6_1 rotation with its bracket and warm starts, down to
    # lam = 0.01, where value iteration needs thousands of sweeps.
    grid = PeriodicGrid(1, 32)
    vset = velocity_set(3.0, 25)
    dt = default_dt(grid, vset)
    target = lambda x: np.sin(2 * np.pi * x[..., 0]) + 0.3
    model = builtin_model("shifted_quadratic", alpha=ALPHA, potential=lambda x: -target(x))
    model = model.with_c0(-float(np.min(model.L(np.zeros((vset.count, 1)), vset.velocities, 0.0))))
    bracket = compute_bracket(model, GridField.constant(grid, 0.0))
    tol = 1e-8
    entries = lambda_sweep(model, [0.1, 0.03, 0.01], Transition(grid, vset, dt), tol=tol,
                           bracket=bracket)
    warm = None
    for e in entries:
        assert e.report.converged and e.report.bracket_violations == 0
        assert e.report.iterations <= 10
        want, res = accelerated_value_iteration(model, e.lam, grid, vset, dt, tol,
                                                bracket=bracket, init=warm)
        assert res <= tol
        np.testing.assert_allclose(e.field.values, want, rtol=0, atol=2.0 * tol / e.lam)
        warm = GridField(grid, want)
