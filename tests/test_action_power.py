"""The min-plus power of the one-step action matrix against the stepwise DP
of `evolve_action`, its oracle: the same finite entries up to roundoff, the
same unreachable (BIG) pairs, and the same long-time critical value."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from test_peierls_exact import magnetic_well, smooth_potential
from torushj.barrier import BIG, _ActionKernel, critical_value, evolve_action
from torushj.grids import build_grid
from torushj.models import builtin_model, velocity_set
from torushj.solver import default_dt

STEPS = st.one_of(st.sampled_from([1, 2, 4, 8, 16, 32, 64]), st.integers(1, 80))


def assert_power_matches_dp(model, grid, vset, dt, steps):
    got = _ActionKernel(model, grid, vset, dt).power(steps)
    want = evolve_action(model, grid, vset, T=steps * dt, dt=dt).values
    assert got.max() <= BIG
    unreachable = want >= BIG / 2
    np.testing.assert_array_equal(got >= BIG / 2, unreachable)
    np.testing.assert_allclose(got[~unreachable], want[~unreachable], rtol=0, atol=1e-12)
    c = critical_value(model, "longtime", grid, vset, dt=dt, Tmax=steps * dt).c
    assert c == pytest.approx(-np.min(np.diag(want)) / (steps * dt), rel=0, abs=1e-12)
    return unreachable


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(8, 32),
       m=st.sampled_from([9, 17, 25]), magnetic=st.booleans(),
       doubled=st.booleans(), steps=STEPS)
@example(seed=1, n=16, m=9, magnetic=False, doubled=False, steps=1)
@example(seed=2, n=12, m=17, magnetic=True, doubled=True, steps=64)
@example(seed=3, n=31, m=25, magnetic=True, doubled=False, steps=79)
def test_power_matches_stepwise_dp_1d(seed, n, m, magnetic, doubled, steps):
    U = smooth_potential(seed, 1)
    model = magnetic_well(U, [0.3]) if magnetic else builtin_model("mechanical", U=U)
    grid, vset = build_grid(1, n), velocity_set(3.0, m)
    dt = default_dt(grid, vset) * (2 if doubled else 1)
    assert_power_matches_dp(model, grid, vset, dt, steps)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 8),
       m=st.sampled_from([3, 5, 9]), magnetic=st.booleans(),
       doubled=st.booleans(), steps=STEPS)
def test_power_matches_stepwise_dp_2d(seed, n, m, magnetic, doubled, steps):
    U = smooth_potential(seed, 2)
    model = (magnetic_well(U, [0.3, -0.2]) if magnetic
             else builtin_model("mechanical", d=2, U=U))
    grid, vset = build_grid(2, n), velocity_set(2.0, m, d=2)
    dt = default_dt(grid, vset) * (2 if doubled else 1)
    assert_power_matches_dp(model, grid, vset, dt, steps)


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
