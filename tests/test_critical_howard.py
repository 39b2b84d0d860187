"""The critical value, potential and Mather face from Howard's min-plus policy
iteration (`build_polytope` with integer hops) against two references: the
arrival-charged critical LP and Karp's minimum-mean-cycle algorithm, which
is also the long-time route of `critical_value`.  Lagrangians include non-separable ones and random
(node, velocity) tables, at d = 1 and 2 and at default and doubled dt.
The ratio form that the selection layer runs (per-arc denominators, absent
arcs) is checked against an enumeration of simple cycles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torushj.barrier import critical_value, karp_min_mean
from torushj.grids import PeriodicGrid
from torushj.matherlp import _howard, build_polytope, solve_mather_lp
from torushj.models import builtin_model, velocity_set
from torushj.solver import Transition, default_dt, on_arcs


def with_lagrangian(L0, d=1):
    """A model whose u = 0 Lagrangian is L0(x, v)."""
    return dataclasses.replace(builtin_model("mechanical", d=d),
                               L=lambda x, v, u: L0(x, v) - np.asarray(u))


def trig(rng, d):
    """Seeded random trigonometric polynomial on the d-torus, modes 1..3
    with 1/k^2 decay."""
    coef = rng.normal(size=(3, d, 2))
    k = np.arange(1, 4)[:, None]

    def f(x):
        ang = 2 * np.pi * k * np.asarray(x)[..., None, :]          # (..., 3, d)
        return np.sum((coef[..., 0] * np.cos(ang) + coef[..., 1] * np.sin(ang))
                      / k**2, axis=(-2, -1))
    return f


def smooth_lagrangian(seed, d, kind):
    """Convex, superlinear L0 of four kinds; only "mechanical" is K(v) + W(x)."""
    rng = np.random.default_rng(seed)
    U = trig(rng, d)
    kinetic = lambda v: 0.5 * np.sum(v * v, axis=-1)
    if kind == "mechanical":
        return with_lagrangian(lambda x, v: kinetic(v) - U(x), d)
    if kind == "magnetic":
        A = [trig(rng, d) for _ in range(d)]
        return with_lagrangian(lambda x, v: kinetic(v) - U(x) - sum(
            A[a](x) * v[..., a] for a in range(d)), d)
    if kind == "cos_drift":          # v^2/2 - 0.3 cos(2 pi x) v on every axis
        return with_lagrangian(lambda x, v: kinetic(v) - 0.3 * np.sum(
            np.cos(2 * np.pi * np.asarray(x)) * v, axis=-1), d)
    mass = trig(rng, d)              # "mass": a position-dependent kinetic factor
    return with_lagrangian(lambda x, v: (1.0 + 0.2 * np.tanh(mass(x))) * kinetic(v)
                           - U(x), d)


def table_lagrangian(grid, vset, table):
    """L0(x, v) = table[node of x, index of v], for on-node x and lattice v."""
    m = vset.m_per_axis

    def L0(x, v):
        per_axis = np.rint((np.asarray(v) + vset.vmax) / vset.spacing).astype(int)
        k = np.ravel_multi_index(tuple(np.moveaxis(per_axis, -1, 0)), (m,) * grid.d)
        return table[grid.nearest_node(x), k]
    return with_lagrangian(L0, grid.d)


def lattice_case(d, n, m, doubled):
    """The kernel at the lattice dt, or at twice it."""
    grid = PeriodicGrid(d, n)
    vset = velocity_set(2.0 if d == 2 else 3.0, m, d)
    return Transition(grid, vset, default_dt(grid, vset) * (2 if doubled else 1))


def check_against_lp(model, arcs):
    """Howard's polytope against the arrival-charged LP and its own
    certificate; returns the polytope."""
    poly = build_polytope(model, arcs)
    mu, opt, _ = solve_mather_lp(model, poly)
    assert poly.c == pytest.approx(-opt, abs=1e-12)
    crit = poly.critical
    assert np.isin(np.flatnonzero(mu.flat() > 1e-9), crit).all()
    # the potential certifies c: reduced costs >= -zero_tol, zero on the face
    assert poly.reduced_cost.min() >= -poly.zero_tol
    assert np.all(poly.reduced_cost[crit] <= poly.zero_tol)
    # the stored Mather measure is a uniform measure on a critical cycle
    w = poly.critical_measure.flat()
    on = np.flatnonzero(w)
    assert np.isin(on, crit).all()
    np.testing.assert_allclose(w[on], 1.0 / on.size, rtol=0, atol=1e-15)
    assert np.max(np.abs(poly.C @ w)) <= 1e-15
    assert float(poly.action @ w) == pytest.approx(-poly.c, abs=1e-12)
    return poly


KINDS = ["mechanical", "magnetic", "cos_drift", "mass"]


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(6, 32),
       m=st.sampled_from([5, 9, 17]), kind=st.sampled_from(KINDS),
       doubled=st.booleans())
def test_smooth_lagrangians_1d(seed, n, m, kind, doubled):
    check_against_lp(smooth_lagrangian(seed, 1, kind), lattice_case(1, n, m, doubled))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 7),
       m=st.sampled_from([3, 5]), kind=st.sampled_from(KINDS),
       doubled=st.booleans())
def test_smooth_lagrangians_2d(seed, n, m, kind, doubled):
    check_against_lp(smooth_lagrangian(seed, 2, kind), lattice_case(2, n, m, doubled))


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.sampled_from([1, 2]),
       doubled=st.booleans(), data=st.data())
def test_random_tables_against_lp_and_karp(seed, d, doubled, data):
    n = data.draw(st.integers(4, 24) if d == 1 else st.integers(4, 6), label="n")
    m = data.draw(st.sampled_from([3, 5, 9] if d == 1 else [3, 5]), label="m")
    arcs = lattice_case(d, n, m, doubled)
    grid, vset, dt = arcs.grid, arcs.vset, arcs.dt
    table = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(grid.size, vset.count))
    model = table_lagrangian(grid, vset, table)
    L0 = on_arcs(arcs, model.L, 0.0)
    np.testing.assert_array_equal(L0, table.T)
    poly = check_against_lp(model, arcs)
    eta = karp_min_mean(arcs.take, dt * L0)
    assert poly.c == pytest.approx(-eta / dt, abs=1e-12)
    # a random table has one min-mean cycle: the face is one vertex, one
    # class whose critical arcs are a simple cycle (one arc per node)
    aubry, _, reps = poly.static_classes()
    assert reps.size == 1 and len(poly.critical) == aubry.size


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.sampled_from([1, 2]),
       kind=st.sampled_from(KINDS + ["table"]), doubled=st.booleans(), data=st.data())
def test_longtime_route_is_howards_c(seed, d, kind, doubled, data):
    # Karp's D_N - D_k sums N - k arc weights, so its roundoff grows with
    # N max|dt L0|; 400 random cases of these sizes stayed below 0.4 of
    # eps N max|dt L0| / dt, and the bound is 4 of it
    n = data.draw(st.integers(4, 32) if d == 1 else st.integers(4, 8), label="n")
    m = data.draw(st.sampled_from([5, 9, 17] if d == 1 else [3, 5]), label="m")
    arcs = lattice_case(d, n, m, doubled)
    grid, vset, dt = arcs.grid, arcs.vset, arcs.dt
    if kind == "table":
        rng = np.random.default_rng(seed)
        model = table_lagrangian(grid, vset, rng.uniform(-1, 1, (grid.size, vset.count)))
    else:
        model = smooth_lagrangian(seed, d, kind)
    poly = build_polytope(model, arcs)
    cd = critical_value(model, "longtime", arcs)
    bound = 4 * np.finfo(float).eps * grid.size * np.max(np.abs(dt * poly.action)) / dt
    assert abs(cd.c - poly.c) <= bound


def test_longtime_route_reads_every_walk_length():
    # the k = N - 1 term of Karp's max decides eta only where the cheapest
    # N-arc walk holds a single cycle, one rest arc after a Hamiltonian
    # path; random tables on a ring of four nodes give that now and then
    arcs = lattice_case(1, 4, 3, False)
    for seed in range(64):
        table = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(4, 3))
        model = table_lagrangian(arcs.grid, arcs.vset, table)
        cd = critical_value(model, "longtime", arcs)
        assert cd.c == pytest.approx(build_polytope(model, arcs).c, abs=1e-14)


def test_rest_ties_and_branches_settle():
    # every node's rest arc is a min-mean cycle (free particle), and a
    # branched face (alpha at half a velocity step) ties two arcs per node
    arcs = Transition(PeriodicGrid(1, 16), velocity_set(3.0, 25))
    free = build_polytope(builtin_model("mechanical", U=None), arcs)
    assert free.c == 0.0 and len(free.critical) == arcs.grid.size
    half = builtin_model("shifted_quadratic", alpha=arcs.vset.spacing / 2)
    poly = check_against_lp(half, arcs)
    assert len(poly.critical) == 2 * arcs.grid.size


def brute_min_ratio(take, W, D):
    """min of sum W / sum D over the simple cycles of the graph whose arc
    (k, y) runs from take[k, y] to y (absent where W is inf), enumerated
    backwards from each cycle's smallest node."""
    K, N = W.shape
    into = [[(take[k, y], k) for k in range(K) if np.isfinite(W[k, y])] for y in range(N)]
    best = np.inf

    def extend(y, s, seen, w, d):
        nonlocal best
        for x, k in into[y]:
            if x == s:
                best = min(best, (w + W[k, y]) / (d + D[k, y]))
            elif x > s and x not in seen:
                extend(x, s, seen | {x}, w + W[k, y], d + D[k, y])

    for s in range(N):
        extend(s, s, {s}, 0.0, 0.0)
    return best


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), N=st.integers(1, 6), K=st.integers(1, 3))
def test_ratio_form_matches_cycle_enumeration(seed, N, K):
    # arc 0 of node y comes from y - 1, so the graph is strongly connected
    # and eta is one number; the other arcs are random, a third absent
    rng = np.random.default_rng(seed)
    take = rng.integers(0, N, size=(K, N))
    take[0] = (np.arange(N) - 1) % N
    W = rng.uniform(-1.0, 1.0, size=(K, N))
    W[1:][rng.random(size=(K - 1, N)) < 1 / 3] = np.inf
    D = rng.uniform(0.1, 2.0, size=(K, N))
    eta, u, pol, _ = _howard(take, W, D)
    np.testing.assert_allclose(eta, brute_min_ratio(take, W, D), rtol=0, atol=1e-12)
    # the bias certifies it, and the policy uses present arcs only
    reduced = W - eta * D + u[take] - u
    assert reduced.min() >= -1e-12 and np.isfinite(W[pol, np.arange(N)]).all()
