import dataclasses

import numpy as np
import pytest

from torushj.errors import ConfigurationError, DomainError
from torushj.grids import GridField, PeriodicGrid, product_lattice
from torushj.models import builtin_model, velocity_set
from torushj.solver import (
    BRACKET_BLOCK,
    LAMBDA_PROBES,
    Transition,
    bellman_apply,
    compute_bracket,
    default_dt,
    lambda_sweep,
    nonexistence_certificate,
    residual,
    solve_perturbed,
)

ALPHA = (np.sqrt(5.0) - 1.0) / 2.0
COS = lambda x: np.cos(2 * np.pi * x[..., 0])


def lattice_c0(model, vset, grid):
    """Discrete critical value for x-independent L0: minus the lattice minimum."""
    X = np.zeros((vset.count, grid.d))
    return -float(np.min(model.L(X, vset.velocities, 0.0)))


@pytest.fixture(scope="module")
def small_setup():
    grid = PeriodicGrid(1, 32)
    vset = velocity_set(2.0, 17)
    return grid, vset, default_dt(grid, vset)


def test_update_monotone_exactly(small_setup):
    grid, vset, dt = small_setup
    model = builtin_model("mechanical", U=COS).with_c0(1.0)
    rng = np.random.default_rng(7)
    lam = 0.3
    for _ in range(20):
        f = rng.normal(size=grid.size)
        g = f + rng.uniform(0, 1, size=grid.size)
        Tf = bellman_apply(model, lam, GridField(grid, f), Transition(grid, vset, dt))
        Tg = bellman_apply(model, lam, GridField(grid, g), Transition(grid, vset, dt))
        assert np.all(Tf.values <= Tg.values + 1e-12)


def test_update_monotone_nonlinear_u(small_setup):
    grid, vset, dt = small_setup
    model = builtin_model("arctan_discount").with_c0(0.0)
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = rng.normal(size=grid.size)
        g = f + rng.uniform(0, 2, size=grid.size)
        Tf = bellman_apply(model, 0.8, GridField(grid, f), Transition(grid, vset, dt))
        Tg = bellman_apply(model, 0.8, GridField(grid, g), Transition(grid, vset, dt))
        assert np.all(Tf.values <= Tg.values + 1e-12)


def test_bracket_mechanical_cos():
    grid = PeriodicGrid(1, 64)
    model = builtin_model("mechanical", U=COS).with_c0(1.0)
    # critical solution: any barrier column; a coarse stand-in is fine for the
    # bracket arithmetic being checked here (delta, kappa, shift size)
    uhat = GridField.from_function(grid, lambda X: (2 / np.pi) * (1 - np.cos(np.pi * X[..., 0])))
    br = compute_bracket(model, uhat)
    assert br.delta == pytest.approx(1.0)
    assert br.kappa == pytest.approx(1.0)
    assert np.all(uhat.values - br.lower.values >= 1.0 - 1e-12)   # shift >= kappa/delta = 1
    assert np.all(br.upper.values - uhat.values >= 1.0 - 1e-12)
    assert np.all(br.lower.values <= br.upper.values)
    assert br.lambda0 > 0


def test_bracket_shifted_quadratic_kappa():
    grid = PeriodicGrid(1, 32)
    model = builtin_model(
        "shifted_quadratic", alpha=ALPHA,
        potential=lambda x: np.sin(2 * np.pi * x[..., 0]) + 0.3,
    ).with_c0(0.5 * ALPHA**2)
    br = compute_bracket(model, GridField.constant(grid, 0.0))
    assert br.kappa == pytest.approx(2.3, abs=1e-6)
    assert br.delta == pytest.approx(1.0)
    assert br.T == pytest.approx(br.K0 * 0.5 + 2.3, abs=1e-9)


def test_bracket_zero_potential_kappa_one():
    grid = PeriodicGrid(1, 32)
    model = builtin_model("arctan_discount").with_c0(0.0)
    br = compute_bracket(model, GridField.constant(grid, 0.0))
    assert br.kappa == pytest.approx(1.0 + np.pi / 2)
    model2 = builtin_model("mechanical", U=None).with_c0(0.0)
    br2 = compute_bracket(model2, GridField.constant(grid, 0.0))
    assert br2.kappa == pytest.approx(1.0)


def test_solve_constant_fixed_points(small_setup):
    grid, vset, dt = small_setup
    sq = builtin_model("shifted_quadratic", alpha=ALPHA)
    sq = sq.with_c0(lattice_c0(sq, vset, grid))
    fld, rep = solve_perturbed(sq, 0.05, Transition(grid, vset, dt), tol=1e-10)
    assert rep.converged
    np.testing.assert_allclose(fld.values, 0.0, atol=1e-9)

    mech = builtin_model("mechanical", U=None).with_c0(0.0)
    fld2, rep2 = solve_perturbed(mech, 0.1, Transition(grid, vset, dt), tol=1e-10)
    assert rep2.converged
    np.testing.assert_allclose(fld2.values, 0.0, atol=1e-9)


def test_solve_selected_constant_target_mean():
    # Rotation model with the selection target sin(2 pi x) + 0.3 inserted with
    # a negative sign: the discounted solutions approach +0.3.
    grid = PeriodicGrid(1, 64)
    vset = velocity_set(3.0, 49)
    dt = default_dt(grid, vset)
    target = lambda x: np.sin(2 * np.pi * x[..., 0]) + 0.3
    model = builtin_model("shifted_quadratic", alpha=ALPHA,
                          potential=lambda x: -target(x))
    model = model.with_c0(lattice_c0(model, vset, grid))
    br = compute_bracket(model, GridField.constant(grid, 0.0))
    fld, rep = solve_perturbed(model, 0.01, Transition(grid, vset, dt), tol=1e-8, bracket=br)
    assert rep.converged
    assert np.max(np.abs(fld.values - 0.3)) <= 0.05


def test_residual_examples(small_setup):
    grid, vset, dt = small_setup
    model = builtin_model("mechanical", U=COS)
    from torushj.matherlp import build_polytope
    poly = build_polytope(model, Transition(grid, vset, dt))
    model = model.with_c0(poly.c)
    br = compute_bracket(model, GridField.constant(grid, 0.0))
    lam = 0.2
    fld, rep = solve_perturbed(model, lam, Transition(grid, vset, dt), tol=1e-10, bracket=br)
    assert residual(model, lam, fld, Transition(grid, vset, dt)) <= 1e-10
    # constant shift of a solved field: defect per unit time ~ lam * eps
    eps = 0.25
    shifted = GridField(grid, fld.values + eps)
    assert (residual(model, lam, shifted, Transition(grid, vset, dt))
            == pytest.approx(lam * eps, rel=1e-6))
    # random bounded field: residual bounded by 2/dt plus the running-cost scale
    rng = np.random.default_rng(0)
    noisy = GridField(grid, rng.uniform(-1, 1, size=grid.size))
    bound = 2.0 / dt + float(np.max(np.abs(poly.action))) + abs(model.c0) + lam
    assert residual(model, lam, noisy, Transition(grid, vset, dt)) <= bound


def test_bracketing_and_clamp_inactive(small_setup):
    grid, vset, dt = small_setup
    model = builtin_model("mechanical", U=COS)
    from torushj.matherlp import build_polytope
    model = model.with_c0(build_polytope(model, Transition(grid, vset, dt)).c)
    uhat = GridField.from_function(grid, lambda X: (2 / np.pi) * (1 - np.cos(np.pi * X[..., 0])))
    br = compute_bracket(model, uhat)
    fld, rep = solve_perturbed(model, 0.05, Transition(grid, vset, dt), tol=1e-9, bracket=br)
    assert rep.converged
    assert rep.bracket_violations == 0
    assert np.all(fld.values >= br.lower.values - 1e-9)
    assert np.all(fld.values <= br.upper.values + 1e-9)


def test_equi_lipschitz_over_sweep(small_setup):
    grid, vset, dt = small_setup
    model = builtin_model("mechanical", U=COS)
    from torushj.matherlp import build_polytope
    model = model.with_c0(build_polytope(model, Transition(grid, vset, dt)).c)
    uhat = GridField.from_function(grid, lambda X: (2 / np.pi) * (1 - np.cos(np.pi * X[..., 0])))
    br = compute_bracket(model, uhat)
    entries = lambda_sweep(model, [0.1, 0.05, 0.02, 0.01], Transition(grid, vset, dt),
                           tol=1e-9, bracket=br)
    lips = [e.field.lipschitz_constant() for e in entries]
    assert max(lips) <= 2.0 * lips[0]


def test_clamped_nonexistence_stalls_within_ten_steps(small_setup):
    # No solution exists at lam = 2 (criterion 5): the bracket clamp pins the
    # iterate, so a step leaves it bit-unchanged and the solve stops stalled.
    grid, vset, dt = small_setup
    model = builtin_model("arctan_discount").with_c0(0.0)
    br = compute_bracket(model, GridField.constant(grid, 0.0))
    fld, rep = solve_perturbed(model, 2.0, Transition(grid, vset, dt), tol=1e-8, bracket=br)
    assert rep.stalled and not rep.converged
    assert rep.iterations <= 10
    assert rep.bracket_violations > 0
    assert np.all(fld.values >= br.lower.values) and np.all(fld.values <= br.upper.values)


def test_sweep_warm_start_and_edge_cases(small_setup):
    grid, vset, dt = small_setup
    model = builtin_model("mechanical", U=COS)
    from torushj.matherlp import build_polytope
    model = model.with_c0(build_polytope(model, Transition(grid, vset, dt)).c)
    br = compute_bracket(model, GridField.constant(grid, 0.0))
    entries = lambda_sweep(model, [0.1, 0.05], Transition(grid, vset, dt), tol=1e-9, bracket=br)
    cold, _ = solve_perturbed(model, 0.05, Transition(grid, vset, dt), tol=1e-9, bracket=br)
    _, cold_rep = solve_perturbed(model, 0.05, Transition(grid, vset, dt), tol=1e-9, bracket=br)
    assert entries[1].report.iterations <= cold_rep.iterations
    np.testing.assert_allclose(entries[1].field.values, cold.values, atol=1e-7)

    single = lambda_sweep(model, [0.05], Transition(grid, vset, dt), tol=1e-9, bracket=br)
    np.testing.assert_allclose(single[0].field.values, cold.values, atol=1e-7)
    assert lambda_sweep(model, [], Transition(grid, vset)) == []
    with pytest.raises(ConfigurationError):
        lambda_sweep(model, [0.05, 0.1], Transition(grid, vset))


def test_sweep_records_typed_failures_and_raises_others(small_setup):
    import dataclasses
    grid, vset, dt = small_setup
    model = builtin_model("mechanical", U=COS).with_c0(1.0)
    # dt*lam*sigma >= 1 at lam = 10 is a ConfigurationError of that entry only
    entries = lambda_sweep(model, [10.0, 0.5], Transition(grid, vset, dt), tol=1e-6)
    assert entries[0].field is None and isinstance(entries[0].error, ConfigurationError)
    assert "monotonicity" in str(entries[0].error)
    assert entries[1].field is not None and entries[1].report.converged
    # a non-finite field is a DomainError of that entry
    nan_V = dataclasses.replace(model, V=lambda x, lam: np.full(x.shape[:-1], np.nan))
    entries = lambda_sweep(nan_V, [0.5], Transition(grid, vset, dt), max_iter=3)
    assert entries[0].field is None and isinstance(entries[0].error, DomainError)
    assert "finite" in str(entries[0].error)

    def broken_L(x, v, u):
        raise TypeError("programming error")

    with pytest.raises(TypeError, match="programming error"):
        lambda_sweep(dataclasses.replace(model, L=broken_L), [0.5], Transition(grid, vset, dt))


def test_generic_model_without_separable_coupling(small_setup):
    # user-style model lacking the L_u_part shortcut must match the builtin
    import dataclasses
    grid, vset, dt = small_setup
    fast = builtin_model("mechanical", U=COS)
    from torushj.matherlp import build_polytope
    fast = fast.with_c0(build_polytope(fast, Transition(grid, vset, dt)).c)
    slow = dataclasses.replace(fast, L_u_part=None)
    br = compute_bracket(fast, GridField.constant(grid, 0.0))
    lam = 0.3
    f_fast, r_fast = solve_perturbed(fast, lam, Transition(grid, vset, dt), tol=1e-10, bracket=br)
    f_slow, r_slow = solve_perturbed(slow, lam, Transition(grid, vset, dt), tol=1e-10, bracket=br)
    assert r_fast.converged and r_slow.converged
    np.testing.assert_allclose(f_slow.values, f_fast.values, atol=1e-9)


def test_nonexistence_certificate_examples():
    grid = PeriodicGrid(1, 32)
    arctan = builtin_model("arctan_discount").with_c0(0.0)
    assert nonexistence_certificate(arctan, 2.0, grid) is True
    assert nonexistence_certificate(arctan, 1.5, grid) is True
    assert nonexistence_certificate(arctan, 1.0, grid) is False
    assert nonexistence_certificate(arctan, 0.5, grid) is False
    mech = builtin_model("mechanical", U=None).with_c0(0.0)
    assert nonexistence_certificate(mech, 3.0, grid) is False
    with pytest.raises(ConfigurationError, match="H_inf_u"):
        nonexistence_certificate(dataclasses.replace(arctan, H_inf_u=None), 2.0, grid)


def test_nonconvergence_reported_not_raised():
    grid = PeriodicGrid(1, 32)
    vset = velocity_set(2.0, 17)
    dt = default_dt(grid, vset)
    model = builtin_model("arctan_discount").with_c0(0.0)
    br = compute_bracket(model, GridField.constant(grid, 0.0))
    fld, rep = solve_perturbed(model, 2.0, Transition(grid, vset, dt), tol=1e-8,
                               bracket=br, max_iter=20000)
    assert rep.lambda_above_lambda0
    assert not rep.converged
    assert fld is not None and np.all(np.isfinite(fld.values))


def test_arctan_converges_below_threshold():
    grid = PeriodicGrid(1, 32)
    vset = velocity_set(2.0, 17)
    dt = default_dt(grid, vset)
    model = builtin_model("arctan_discount").with_c0(0.0)
    br = compute_bracket(model, GridField.constant(grid, 0.0))
    fld, rep = solve_perturbed(model, 0.5, Transition(grid, vset, dt), tol=1e-9, bracket=br)
    assert rep.converged
    # constant solution u = tan(-lam*pi/2)/lam = -2 at lam = 1/2
    np.testing.assert_allclose(fld.values, -2.0, atol=1e-6)


def full_product_bracket(model, critical_solution):
    """compute_bracket as it was, on the whole (momenta x nodes) product."""
    grid = critical_solution.grid
    X, d = grid.node_coords(), grid.d
    paxis = np.linspace(-model.p_box, model.p_box, 513 if d == 1 else 65)
    P = product_lattice(paxis, d)
    Hv = model.H(X[None, :, :], P[:, None, :], 0.0)
    sub = np.any(Hv <= model.c0 + 1e-9, axis=1)
    pnorm = np.sqrt(np.sum(P**2, axis=1))
    K0 = float(pnorm[sub].max()) if np.any(sub) else 0.0
    K0 += paxis[1] - paxis[0]
    keep = pnorm <= K0 + 1e-12
    Psub = P[keep] if np.any(keep) else P[:1]
    delta = float(np.asarray(model.dHdu0(X[None, :, :], Psub[:, None, :]), dtype=float).min())
    kappa = 1.0
    for lam in LAMBDA_PROBES:
        kappa = max(kappa, 1.0 + float(np.max(np.abs(model.V(X, lam)))))
    uhat = critical_solution.values
    return {"K0": K0, "delta": delta, "kappa": kappa,
            "T": K0 * 0.5 * np.sqrt(d) + kappa / delta,
            "lower": uhat - uhat.max() - kappa / delta,
            "upper": uhat - uhat.min() + kappa / delta}


@pytest.mark.parametrize("d, n", [(1, 256), (2, 16)])
def test_bracket_in_blocks_matches_the_full_product(d, n):
    # a mechanical model whose H depends on x, with an x-dependent sigma
    U = lambda x: np.cos(2 * np.pi * x[..., 0]) + 0.5 * np.sin(2 * np.pi * x[..., -1])
    model = builtin_model("mechanical", d, U=U, potential=U,
                          sigma=lambda x: 1.5 + 0.5 * np.cos(2 * np.pi * x[..., -1]))
    model = model.with_c0(1.5)
    grid = PeriodicGrid(d, n)
    u = GridField(grid, np.sin(2 * np.pi * grid.node_coords()).sum(axis=1))
    sizes = []

    def counted(fn):
        def wrapped(x, p, *rest):
            sizes.append(np.broadcast_shapes(np.shape(x)[:-1], np.shape(p)[:-1]))
            return fn(x, p, *rest)
        return wrapped

    blocked = dataclasses.replace(model, H=counted(model.H), dHdu0=counted(model.dHdu0))
    new = compute_bracket(blocked, u)
    ref = full_product_bracket(model, u)
    for name in ("K0", "delta", "kappa", "T"):
        assert getattr(new, name) == ref[name], name
    np.testing.assert_array_equal(new.lower.values, ref["lower"])
    np.testing.assert_array_equal(new.upper.values, ref["upper"])
    # no evaluation formed the (momenta x nodes) product: every block holds
    # at most BRACKET_BLOCK entries, and more than one block was needed
    products = [int(np.prod(s)) for s in sizes if len(s) == 2]
    assert max(products) <= BRACKET_BLOCK and len(products) > 2
