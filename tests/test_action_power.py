"""The retired long-time route, min-plus powers of the one-step action
matrix, kept here as oracles: against the stepwise DP of `evolve_action`,
the same finite entries up to roundoff and the same unreachable (BIG)
pairs; and the cheapest closed walks of T/dt steps within their gap of the
exact T -> infinity limit, Howard's c.  The retired column-gather step and
right-to-left powering are oracles of the row-gather step (bit for bit) and
of the left-to-right powering and its diagonal (`closed_walks`, within
1e-12)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from test_critical_howard import KINDS, lattice_case, smooth_lagrangian, table_lagrangian
from test_peierls_exact import magnetic_well, smooth_potential
from torushj.barrier import BIG, _ActionKernel, evolve_action, initial_action_matrix
from torushj.matherlp import build_polytope
from torushj.models import builtin_model

STEPS = st.one_of(st.sampled_from([1, 2, 3, 4, 8, 16, 32, 64]), st.integers(1, 80))


def diagonal_seed(kern):
    """h_0: zero on the diagonal, unreachable (BIG) elsewhere."""
    N = kern.take.shape[1]
    A = np.full((N, N), BIG)
    np.fill_diagonal(A, 0.0)
    return A


def min_plus(A, B):
    """C[i, j] = min_k A[i, k] + B[k, j], clamped at BIG like the step.
    Rows go in blocks whose (rows, N, N) temporary stays near 1 MB."""
    N = A.shape[0]
    C = np.empty_like(A)
    rows = max(1, (1 << 17) // (N * N))
    for i in range(0, N, rows):
        np.min(A[i:i + rows, :, None] + B[None], axis=1, out=C[i:i + rows])
    return np.minimum(C, BIG, out=C)


def one_step(kern):
    """h_dt: entry (foot, head) is the cheapest arc between the two, BIG
    where no arc joins them."""
    N = kern.take.shape[1]
    h = np.full((N, N), BIG)
    np.minimum.at(h, (kern.take, np.broadcast_to(np.arange(N), kern.take.shape)),
                  kern.cost)
    return h


def power(kern, steps):
    """h_{steps*dt} by left-to-right square-and-multiply: one dense squaring
    per bit of steps after the leading one, then one `step` per set bit."""
    if steps == 0:
        return diagonal_seed(kern)
    out = one_step(kern)
    for bit in bin(steps)[3:]:
        out = min_plus(out, out)
        if bit == "1":
            out = kern.step(out)
    return out


def closed_walks(kern, steps):
    """diag h_{steps*dt} (steps >= 1): min_j P[i, j] + Q[j, i] with P the
    power steps // 2 and Q = P for even steps, one `step` of P for odd."""
    P = power(kern, steps // 2)
    Q = kern.step(P) if steps & 1 else P
    return np.minimum(np.min(P + Q.T, axis=1), BIG)


def column_gather_step(kern, A):
    """The retired `_ActionKernel.step`: one gather of columns of A per arc."""
    out = np.full_like(A, BIG)
    for take, cost in zip(kern.take, kern.cost):
        np.minimum(out, A[:, take] + cost[None, :], out=out)
    return np.minimum(out, BIG)


def right_to_left_power(kern, steps):
    """The retired right-to-left binary powering of h_dt, itself one step of
    the diagonal seed (steps >= 1)."""
    base = column_gather_step(kern, diagonal_seed(kern))
    out = None
    while True:
        if steps & 1:
            out = base if out is None else min_plus(out, base)
        steps >>= 1
        if not steps:
            return out
        base = min_plus(base, base)


def assert_same_action(got, want):
    """Same unreachable pattern, finite entries within 1e-12, nothing above BIG."""
    assert got.max() <= BIG
    unreachable = want >= BIG / 2
    np.testing.assert_array_equal(got >= BIG / 2, unreachable)
    np.testing.assert_allclose(got[~unreachable], want[~unreachable], rtol=0, atol=1e-12)
    return unreachable


def assert_power_matches_dp(model, arcs, steps):
    kern = _ActionKernel(model, arcs)
    want = evolve_action(model, arcs, T=steps * arcs.dt)
    unreachable = assert_same_action(power(kern, steps), want)
    assert_same_action(right_to_left_power(kern, steps), want)
    assert_same_action(closed_walks(kern, steps), np.diag(want))
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
    assert_power_matches_dp(model_1d(seed, magnetic), lattice_case(1, n, m, doubled), steps)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 8),
       m=st.sampled_from([3, 5, 9]), magnetic=st.booleans(),
       doubled=st.booleans(), steps=STEPS)
@example(seed=5, n=6, m=5, magnetic=True, doubled=True, steps=2)
def test_power_matches_stepwise_dp_2d(seed, n, m, magnetic, doubled, steps):
    assert_power_matches_dp(model_2d(seed, magnetic), lattice_case(2, n, m, doubled), steps)


@pytest.mark.parametrize("d,n,m,doubled", [(1, 16, 9, False), (1, 16, 17, True),
                                           (1, 15, 9, True), (2, 6, 5, True)])
def test_closed_walks_match_every_horizon_of_the_dp(d, n, m, doubled):
    # one stepwise run gives diag h_s for every s up to 80, odd and even
    arcs = lattice_case(d, n, m, doubled)
    model = model_1d(7, True) if d == 1 else model_2d(7, True)
    kern = _ActionKernel(model, arcs)
    A = initial_action_matrix(arcs.grid)
    for s in range(1, 81):
        A = kern.step(A)
        assert_same_action(closed_walks(kern, s), np.diag(A))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.sampled_from([1, 2]),
       m=st.sampled_from([3, 5, 9]), doubled=st.booleans(),
       fortran=st.booleans(), steps=st.integers(0, 12))
def test_row_gather_step_is_the_column_gather_step(seed, d, m, doubled, fortran, steps):
    # bit for bit on a perturbed power of h_dt with scattered BIG entries,
    # whatever the memory order of the input; the output is C-contiguous
    arcs = lattice_case(d, 8 if d == 1 else 5, m, doubled)
    kern = _ActionKernel(model_1d(seed, True) if d == 1 else model_2d(seed, True), arcs)
    rng = np.random.default_rng(seed)
    A = power(kern, steps) + rng.normal(scale=0.1, size=(arcs.grid.size,) * 2)
    A[rng.random(A.shape) < 0.2] = BIG
    A = np.minimum(A, BIG)
    if fortran:
        A = np.asfortranarray(A)
    got = kern.step(A)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, column_gather_step(kern, A))


@pytest.mark.parametrize("doubled", [False, True])
def test_one_step_matrix_is_one_step_of_the_seed(doubled):
    arcs = lattice_case(1, 16, 17, doubled)
    kern = _ActionKernel(model_1d(9, True), arcs)
    np.testing.assert_array_equal(
        one_step(kern), column_gather_step(kern, initial_action_matrix(arcs.grid)))
    np.testing.assert_array_equal(power(kern, 0), initial_action_matrix(arcs.grid))


@pytest.mark.parametrize("steps", [1, 33, 64, 80])
def test_doubled_dt_keeps_odd_offsets_unreachable(steps):
    # every hop is an even number of cells, so on an even n a node reaches
    # only the nodes an even offset away, however long the horizon.  L0 >= 6
    # lifts the 64-step power (dt = 1/3) above 64, half the spacing of doubles
    # near BIG, so that BIG + h_T rounds above BIG unless the product clamps it
    U = smooth_potential(5, 1)
    model = magnetic_well(lambda x: U(x) - 8.0, [0.3])
    unreachable = assert_power_matches_dp(model, lattice_case(1, 16, 17, True), steps)
    odd = np.add.outer(np.arange(16), np.arange(16)) % 2 == 1
    assert np.all(unreachable[odd])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.sampled_from([1, 2]),
       kind=st.sampled_from(KINDS + ["table"]), doubled=st.booleans(),
       Tmax=st.sampled_from([6.0, 12.0]))
def test_longtime_powering_within_its_gap(seed, d, kind, doubled, Tmax):
    # closed walks of s arcs cost >= s * eta (the reduced weights are >= 0),
    # and s arcs around a min-mean cycle of length l plus (s mod l) rest
    # arcs cost <= s * eta + (l - 1) * dt * (max L0 + c): so
    # 0 <= c - c_T <= (N - 1) * dt * (max L0 + c) / T
    arcs = lattice_case(d, 16 if d == 1 else 5, 9 if d == 1 else 3, doubled)
    grid, vset, dt = arcs.grid, arcs.vset, arcs.dt
    if kind == "table":
        rng = np.random.default_rng(seed)
        model = table_lagrangian(grid, vset, rng.uniform(-1, 1, (grid.size, vset.count)))
    else:
        model = smooth_lagrangian(seed, d, kind)
    poly = build_polytope(model, arcs)
    steps = round(Tmax / dt)
    T = steps * dt
    c_T = -float(np.min(closed_walks(_ActionKernel(model, arcs), steps))) / T
    gap = (grid.size - 1) * dt * (float(np.max(poly.action)) + poly.c) / T
    assert -1e-12 <= poly.c - c_T <= gap + 1e-12
