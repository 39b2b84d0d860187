"""The min-plus powers of the one-step action matrix against the stepwise DP
of `evolve_action`, their oracle: the same finite entries up to roundoff, the
same unreachable (BIG) pairs, and the same long-time critical value.  The
retired column-gather step and right-to-left powering are kept here as
oracles of the row-gather step (bit for bit) and of the left-to-right
powering and its diagonal (`closed_walks`, within 1e-12)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from test_peierls_exact import magnetic_well, smooth_potential
from torushj.barrier import (
    BIG,
    _ActionKernel,
    _min_plus,
    critical_value,
    evolve_action,
    initial_action_matrix,
)
from torushj.grids import build_grid
from torushj.models import builtin_model, velocity_set
from torushj.solver import default_dt

STEPS = st.one_of(st.sampled_from([1, 2, 3, 4, 8, 16, 32, 64]), st.integers(1, 80))


def column_gather_step(kern, A):
    """The retired `_ActionKernel.step`: one gather of columns of A per arc."""
    out = np.full_like(A, BIG)
    for take, cost in zip(kern.take, kern.cost):
        np.minimum(out, A[:, take] + cost[None, :], out=out)
    return np.minimum(out, BIG)


def right_to_left_power(kern, steps):
    """The retired `_ActionKernel.power`: right-to-left binary powering of
    h_dt, itself one step of the diagonal seed (steps >= 1)."""
    base = column_gather_step(kern, initial_action_matrix(kern.grid).values)
    out = None
    while True:
        if steps & 1:
            out = base if out is None else _min_plus(out, base)
        steps >>= 1
        if not steps:
            return out
        base = _min_plus(base, base)


def assert_same_action(got, want):
    """Same unreachable pattern, finite entries within 1e-12, nothing above BIG."""
    assert got.max() <= BIG
    unreachable = want >= BIG / 2
    np.testing.assert_array_equal(got >= BIG / 2, unreachable)
    np.testing.assert_allclose(got[~unreachable], want[~unreachable], rtol=0, atol=1e-12)
    return unreachable


def assert_power_matches_dp(model, grid, vset, dt, steps):
    kern = _ActionKernel(model, grid, vset, dt)
    want = evolve_action(model, grid, vset, T=steps * dt, dt=dt).values
    unreachable = assert_same_action(kern.power(steps), want)
    assert_same_action(right_to_left_power(kern, steps), want)
    assert_same_action(kern.closed_walks(steps), np.diag(want))
    c = critical_value(model, "longtime", grid, vset, dt=dt, Tmax=steps * dt).c
    assert c == pytest.approx(-np.min(np.diag(want)) / (steps * dt), rel=0, abs=1e-12)
    return unreachable


def model_1d(seed, magnetic):
    U = smooth_potential(seed, 1)
    return magnetic_well(U, [0.3]) if magnetic else builtin_model("mechanical", U=U)


def model_2d(seed, magnetic):
    U = smooth_potential(seed, 2)
    return (magnetic_well(U, [0.3, -0.2]) if magnetic
            else builtin_model("mechanical", d=2, U=U))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(8, 32),
       m=st.sampled_from([9, 17, 25]), magnetic=st.booleans(),
       doubled=st.booleans(), steps=STEPS)
@example(seed=1, n=16, m=9, magnetic=False, doubled=False, steps=1)
@example(seed=4, n=16, m=9, magnetic=False, doubled=True, steps=3)
@example(seed=2, n=12, m=17, magnetic=True, doubled=True, steps=64)
@example(seed=3, n=31, m=25, magnetic=True, doubled=False, steps=79)
def test_power_matches_stepwise_dp_1d(seed, n, m, magnetic, doubled, steps):
    grid, vset = build_grid(1, n), velocity_set(3.0, m)
    dt = default_dt(grid, vset) * (2 if doubled else 1)
    assert_power_matches_dp(model_1d(seed, magnetic), grid, vset, dt, steps)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 8),
       m=st.sampled_from([3, 5, 9]), magnetic=st.booleans(),
       doubled=st.booleans(), steps=STEPS)
@example(seed=5, n=6, m=5, magnetic=True, doubled=True, steps=2)
def test_power_matches_stepwise_dp_2d(seed, n, m, magnetic, doubled, steps):
    grid, vset = build_grid(2, n), velocity_set(2.0, m, d=2)
    dt = default_dt(grid, vset) * (2 if doubled else 1)
    assert_power_matches_dp(model_2d(seed, magnetic), grid, vset, dt, steps)


@pytest.mark.parametrize("d,n,m,doubled", [(1, 16, 9, False), (1, 16, 17, True),
                                           (1, 15, 9, True), (2, 6, 5, True)])
def test_closed_walks_match_every_horizon_of_the_dp(d, n, m, doubled):
    # one stepwise run gives diag h_s for every s up to 80, odd and even
    grid = build_grid(d, n)
    vset = velocity_set(3.0, m) if d == 1 else velocity_set(2.0, m, d=2)
    dt = default_dt(grid, vset) * (2 if doubled else 1)
    model = model_1d(7, True) if d == 1 else model_2d(7, True)
    kern = _ActionKernel(model, grid, vset, dt)
    A = initial_action_matrix(grid).values
    for s in range(1, 81):
        A = kern.step(A)
        assert_same_action(kern.closed_walks(s), np.diag(A))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.sampled_from([1, 2]),
       m=st.sampled_from([3, 5, 9]), doubled=st.booleans(),
       fortran=st.booleans(), steps=st.integers(0, 12))
def test_row_gather_step_is_the_column_gather_step(seed, d, m, doubled, fortran, steps):
    # bit for bit on a perturbed power of h_dt with scattered BIG entries,
    # whatever the memory order of the input; the output is C-contiguous
    grid = build_grid(d, 8 if d == 1 else 5)
    vset = velocity_set(3.0, m) if d == 1 else velocity_set(2.0, m, d=2)
    dt = default_dt(grid, vset) * (2 if doubled else 1)
    kern = _ActionKernel(model_1d(seed, True) if d == 1 else model_2d(seed, True),
                         grid, vset, dt)
    rng = np.random.default_rng(seed)
    A = kern.power(steps) + rng.normal(scale=0.1, size=(grid.size,) * 2)
    A[rng.random(A.shape) < 0.2] = BIG
    A = np.minimum(A, BIG)
    if fortran:
        A = np.asfortranarray(A)
    got = kern.step(A)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, column_gather_step(kern, A))


@pytest.mark.parametrize("doubled", [False, True])
def test_one_step_matrix_is_one_step_of_the_seed(doubled):
    grid, vset = build_grid(1, 16), velocity_set(3.0, 17)
    dt = default_dt(grid, vset) * (2 if doubled else 1)
    kern = _ActionKernel(model_1d(9, True), grid, vset, dt)
    np.testing.assert_array_equal(
        kern.one_step(), column_gather_step(kern, initial_action_matrix(grid).values))
    np.testing.assert_array_equal(kern.power(0), initial_action_matrix(grid).values)


@pytest.mark.parametrize("steps", [1, 33, 64, 80])
def test_doubled_dt_keeps_odd_offsets_unreachable(steps):
    # every hop is an even number of cells, so on an even n a node reaches
    # only the nodes an even offset away, however long the horizon.  L0 >= 6
    # lifts the 64-step power (dt = 1/3) above 64, half the spacing of doubles
    # near BIG, so that BIG + h_T rounds above BIG unless the product clamps it
    grid, vset = build_grid(1, 16), velocity_set(3.0, 17)
    U = smooth_potential(5, 1)
    model = magnetic_well(lambda x: U(x) - 8.0, [0.3])
    unreachable = assert_power_matches_dp(model, grid, vset,
                                          2 * default_dt(grid, vset), steps)
    odd = np.add.outer(np.arange(16), np.arange(16)) % 2 == 1
    assert np.all(unreachable[odd])
