import numpy as np
import pytest

from torushj.artifacts import read_barrier_binary, write_barrier_binary
from torushj.barrier import (
    BIG,
    aubry_set,
    critical_value,
    evolve_action,
    initial_action_matrix,
    min_action_step,
    peierls_barrier,
    solution_from_barrier,
)
import torushj.barrier as barrier
from torushj.errors import ConfigurationError, SolveError
from torushj.grids import PeriodicGrid
from torushj.matherlp import build_polytope
from torushj.models import builtin_model, discounted_wrapper, velocity_set
from torushj.solver import Transition, default_dt, lambda_sweep, residual, solve_perturbed

ALPHA = (np.sqrt(5.0) - 1.0) / 2.0
COS = lambda x: np.cos(2 * np.pi * x[..., 0])


@pytest.fixture(scope="module")
def mech_cos():
    return builtin_model("mechanical", U=COS)


def test_one_step_reachability(mech_cos):
    grid = PeriodicGrid(1, 16)
    vset = velocity_set(2.0, 9)
    dt = default_dt(grid, vset)
    h0 = initial_action_matrix(grid)
    h1 = min_action_step(mech_cos, h0, Transition(grid, vset, dt))
    reach = np.rint(vset.velocities[:, 0] * dt / grid.h).astype(int)
    finite = h1[0] < BIG / 2
    expected = np.zeros(grid.size, dtype=bool)
    expected[np.mod(reach, grid.n)] = True
    np.testing.assert_array_equal(finite, expected)


def test_free_particle_action_derived():
    # Oracle: the minimal action of the free particle on the torus is
    # dist(x,y)^2 / (2t); the lattice adds a chord excess <= t*dv^2/8.
    grid = PeriodicGrid(1, 64)
    vset = velocity_set(1.5, 97)
    model = builtin_model("mechanical", U=None)
    t = 4.0
    h = evolve_action(model, Transition(grid, vset), T=t)
    y = grid.axis_coords()
    dist = np.minimum(y, 1 - y)
    expected = dist**2 / (2 * t)
    excess = t * vset.spacing**2 / 8
    got = h[0]
    assert np.all(got >= expected - 1e-9)
    assert np.max(got - expected) <= excess + 1e-6


def test_lower_bound_by_constant_lagrangian():
    # L0 = |v|^2/2 + 1 >= 1 pointwise forces h_t >= t
    grid = PeriodicGrid(1, 16)
    vset = velocity_set(2.0, 9)
    model = builtin_model("mechanical", U=-1.0)
    h = evolve_action(model, Transition(grid, vset), T=2.0)
    finite = h < BIG / 2
    assert np.all(h[finite] >= 2.0 - 1e-9)


def test_semigroup_consistency(mech_cos):
    # min-plus associativity on the lattice: h_{t1+t2} = h_t1 (x) h_t2
    grid = PeriodicGrid(1, 16)
    vset = velocity_set(2.0, 9)
    dt = default_dt(grid, vset)
    h_a = evolve_action(mech_cos, Transition(grid, vset, dt), T=8 * dt)
    h_b = evolve_action(mech_cos, Transition(grid, vset, dt), T=16 * dt)
    comp = np.min(h_a[:, :, None] + h_a[None, :, :], axis=1)
    np.testing.assert_allclose(comp, h_b, atol=1e-9)


def test_stepwise_equals_evolve(mech_cos):
    grid = PeriodicGrid(1, 16)
    vset = velocity_set(2.0, 9)
    dt = default_dt(grid, vset)
    A = initial_action_matrix(grid)
    for _ in range(12):
        A = min_action_step(mech_cos, A, Transition(grid, vset, dt))
    B = evolve_action(mech_cos, Transition(grid, vset, dt), T=12 * dt)
    np.testing.assert_array_equal(A, B)


def test_critical_value_three_routes(mech_cos):
    grid = PeriodicGrid(1, 64)
    vset = velocity_set(3.0, 33)
    cd = critical_value(mech_cos, ("lp", "discount", "longtime"), Transition(grid, vset))
    assert cd.spread <= 0.05
    for v in cd.per_method.values():
        assert v == pytest.approx(1.0, abs=0.05)   # analytic c = max U


def retired_discount_route(model, grid, vset):
    """The retired "discount" route: a warm-started sweep of the discounted
    family down to lam = 0.01, read off at its last entry."""
    last = lambda_sweep(discounted_wrapper(model), (0.1, 0.05, 0.02, 0.01),
                        Transition(grid, vset), tol=1e-9)[-1]
    return -last.lam * float(np.mean(last.field.values))


def _seeded_discount_case(seed, d):
    rng = np.random.default_rng(seed)
    k, phase, amp = int(rng.integers(1, 3)), rng.uniform(0, 1), rng.uniform(0.3, 1.5)
    U = lambda x: amp * np.cos(2 * np.pi * (k * x.sum(axis=-1) + phase))
    if seed % 3 == 0:
        model = builtin_model("shifted_quadratic", d=d, alpha=rng.uniform(-0.8, 0.8, size=d),
                              potential=U)
    elif seed % 3 == 1:
        model = builtin_model("mechanical", d=d, U=U)
    else:
        model = builtin_model("mechanical", d=d,
                              U=lambda x: U(x) + 0.4 * np.sin(2 * np.pi * x[..., 0]))
    if d == 1:
        return model, PeriodicGrid(1, int(rng.choice([32, 64, 128]))), velocity_set(3.0, 33)
    return model, PeriodicGrid(2, int(rng.choice([12, 16]))), velocity_set(2.0, 9, d=2)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_discount_route_is_the_retired_sweep(seed, d):
    model, grid, vset = _seeded_discount_case(seed, d)
    new = critical_value(model, "discount", Transition(grid, vset)).c
    assert abs(new - retired_discount_route(model, grid, vset)) <= 1e-12


def test_discount_route_refuses_an_unconverged_solve(mech_cos, monkeypatch):
    monkeypatch.setattr(barrier, "solve_perturbed",
                        lambda *args, **kw: solve_perturbed(*args, max_iter=0, **kw))
    with pytest.raises(SolveError, match="discount route"):
        critical_value(mech_cos, "discount",
                       Transition(PeriodicGrid(1, 32), velocity_set(3.0, 33)))


def test_critical_value_free_lp_exact():
    grid = PeriodicGrid(1, 32)
    vset = velocity_set(2.0, 17)
    model = builtin_model("mechanical", U=None)
    cd = critical_value(model, "lp", Transition(grid, vset))
    assert cd.c == pytest.approx(0.0, abs=1e-6)
    assert cd.spread == 0.0


def test_critical_value_shifted_quadratic():
    grid = PeriodicGrid(1, 64)
    vset = velocity_set(3.0, 49)
    model = builtin_model("shifted_quadratic", alpha=ALPHA)
    cd = critical_value(model, ("lp", "longtime"), Transition(grid, vset))
    for v in cd.per_method.values():
        assert v == pytest.approx(0.5 * ALPHA**2, abs=0.02)


def test_unknown_method_rejected(mech_cos):
    grid = PeriodicGrid(1, 16)
    with pytest.raises(ConfigurationError):
        critical_value(mech_cos, "galerkin", Transition(grid, velocity_set(2.0, 9)))


@pytest.fixture(scope="module")
def peierls_cos(mech_cos):
    grid = PeriodicGrid(1, 64)
    vset = velocity_set(3.0, 49)
    model = mech_cos.with_c0(critical_value(mech_cos, "lp", Transition(grid, vset)).c)
    h = peierls_barrier(build_polytope(model, Transition(grid, vset)))
    return model, grid, vset, h


def test_peierls_examples(peierls_cos):
    model, grid, vset, h = peierls_cos
    assert abs(h.values[0, 0]) <= 0.02            # Aubry point at the max of U
    assert not h.warnings

    free = builtin_model("mechanical", U=None).with_c0(0.0)
    hfree = peierls_barrier(build_polytope(free, Transition(grid, velocity_set(1.5, 49))))
    assert np.max(np.abs(hfree.values)) <= 0.02

    sq = builtin_model("shifted_quadratic", alpha=ALPHA)
    sq = sq.with_c0(critical_value(sq, "lp", Transition(grid, vset)).c)
    hsq = peierls_barrier(build_polytope(sq, Transition(grid, vset)))
    assert np.max(np.abs(hsq.values)) <= 0.05


def test_polytope_barrier_is_the_peierls_barrier_computed_once(mech_cos):
    """`MatherPolytope.barrier` is `peierls_barrier` of the polytope, bit
    for bit, cached per instance and read-only; a replaced polytope starts
    with an empty cache."""
    import dataclasses
    for model, m in ((mech_cos, 49), (builtin_model("shifted_quadratic", alpha=ALPHA), 25)):
        poly = build_polytope(model, Transition(PeriodicGrid(1, 32), velocity_set(3.0, m)))
        h, want = poly.barrier, peierls_barrier(poly)
        assert poly.barrier is h
        assert np.array_equal(h.values, want.values)
        assert np.array_equal(h.aubry, want.aubry) and h.warnings == want.warnings
        assert not h.values.flags.writeable and not want.values.flags.writeable
        with pytest.raises(ValueError):
            h.values[0, 0] = 1.0
        fresh = dataclasses.replace(poly, tol_min=1e-12)
        assert fresh.barrier is not h
        assert np.array_equal(fresh.barrier.values, h.values)


def test_peierls_triangle_inequality(peierls_cos):
    _, grid, _, h = peierls_cos
    rng = np.random.default_rng(1)
    trips = rng.integers(0, grid.size, size=(1000, 3))
    tol_tri = 5e-3
    for x, y, z in trips:
        assert h.values[x, z] <= h.values[x, y] + h.values[y, z] + 3 * tol_tri


def test_aubry_sets(peierls_cos, tmp_path):
    # the barrier's own exact set: the nodes on zero-weight cycles
    model, grid, vset, h = peierls_cos
    np.testing.assert_array_equal(aubry_set(h), [0])      # the max of U

    free = builtin_model("mechanical", U=None).with_c0(0.0)
    hfree = peierls_barrier(build_polytope(free, Transition(grid, velocity_set(1.5, 49))))
    np.testing.assert_array_equal(aubry_set(hfree), np.arange(grid.size))

    sq = builtin_model("shifted_quadratic", alpha=ALPHA)
    sq = sq.with_c0(critical_value(sq, "lp", Transition(grid, vset)).c)
    hsq = peierls_barrier(build_polytope(sq, Transition(grid, vset)))
    np.testing.assert_array_equal(aubry_set(hsq), np.arange(grid.size))

    # h(z, z) is exactly 0 on the set and positive off it
    diag = h.diagonal()
    assert np.all(diag[aubry_set(h)] == 0.0) and np.all(np.delete(diag, 0) > 0)

    # a matrix read back from disk carries no set
    write_barrier_binary(h, str(tmp_path / "h.pbar"))
    with pytest.raises(ConfigurationError):
        aubry_set(read_barrier_binary(str(tmp_path / "h.pbar")))


def test_solution_from_barrier(peierls_cos):
    model, grid, vset, h = peierls_cos
    col = solution_from_barrier(h, 0)
    assert int(np.argmin(col.values)) == 0
    assert col.values[0] == pytest.approx(0.0, abs=0.02)
    # discrete critical residual bounded by a grid-spacing multiple
    dt = default_dt(grid, vset)
    assert residual(model, 0.0, col, Transition(grid, vset, dt)) <= 25.0 * grid.h

    free = builtin_model("mechanical", U=None).with_c0(0.0)
    hfree = peierls_barrier(build_polytope(free, Transition(grid, velocity_set(1.5, 49))))
    colf = solution_from_barrier(hfree, 5)
    np.testing.assert_allclose(colf.values, 0.0, atol=0.02)


def test_subsolution_domination(peierls_cos):
    # w(x) - w(y) <= h(y, x) for barrier columns (triangle inequality restated)
    _, grid, _, h = peierls_cos
    tol_tri = 5e-3
    for z in (0, 17, 40):
        w = h.values[z, :]
        gap = w[None, :] - w[:, None] - h.values     # (y, x)
        assert gap.max() <= 2 * tol_tri


def test_offlattice_dt_warns_unreachable(mech_cos):
    # generic dt moves the hops off the node lattice, where the BIG sentinel
    # of the action DP would never leave the diagonal and there is no lattice
    # graph for the critical problem: the polytope, and with it the barrier
    # and the lp route, the action DP and the longtime route all refuse it
    grid = PeriodicGrid(1, 16)
    vset = velocity_set(2.0, 9)
    with pytest.raises(ConfigurationError, match="off the node lattice"):
        build_polytope(mech_cos, Transition(grid, vset, 0.0101))
    with pytest.raises(ConfigurationError, match="off the node lattice"):
        critical_value(mech_cos, "lp", Transition(grid, vset, 0.0101))
    with pytest.raises(ConfigurationError, match="off the node lattice"):
        evolve_action(mech_cos, Transition(grid, vset, 0.0101), T=1.0)
    with pytest.raises(ConfigurationError, match="off the node lattice"):
        critical_value(mech_cos, "longtime", Transition(grid, vset, 0.03))


def test_evolve_action_refuses_a_negative_horizon(mech_cos):
    # round(T / dt) < 0 would return h_0 as if it were h_T
    grid, vset = PeriodicGrid(1, 16), velocity_set(2.0, 9)
    with pytest.raises(ConfigurationError, match="negative horizon"):
        evolve_action(mech_cos, Transition(grid, vset), T=-5.0)
    np.testing.assert_array_equal(evolve_action(mech_cos, Transition(grid, vset), T=0.0),
                                  initial_action_matrix(grid))
