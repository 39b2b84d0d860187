"""The exact Peierls barrier (reweighted Dijkstra from one representative
per static class) against three oracles: Floyd-Warshall on the raw
arrival-point arc weights, the Dijkstra loop from every Aubry node that it
replaced, and the windowed minimum of the action DP before that."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from torushj.barrier import (
    BIG,
    _ActionKernel,
    aubry_set,
    evolve_action,
    peierls_barrier,
)
from torushj.errors import ConfigurationError
from torushj.grids import PeriodicGrid
from torushj.matherlp import build_polytope, cycle_arcs
from torushj.models import builtin_model, velocity_set
from torushj.solver import Transition, on_arcs

ALPHA = (np.sqrt(5.0) - 1.0) / 2.0


def with_lagrangian(L0, d=1):
    """A model whose u = 0 Lagrangian is L0(x, v)."""
    return dataclasses.replace(builtin_model("mechanical", d=d),
                               L=lambda x, v, u: L0(x, v) - np.asarray(u))


def magnetic_well(U, b):
    """L0 = |v|^2/2 - b.v - U(x): of the form K(v) + W(x), K not even."""
    b = np.asarray(b, dtype=float)
    return with_lagrangian(lambda x, v: 0.5 * np.sum(v * v, axis=-1) - v @ b - U(x),
                           d=b.size)


def smooth_potential(seed, d):
    """Seeded random trigonometric polynomial, modes 1..3 with 1/k^2 decay."""
    coef = np.random.default_rng(seed).normal(size=(3, d, 2))

    def U(x):
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1])
        for k in range(1, 4):
            ang = 2 * np.pi * k * x
            out += np.sum(coef[k - 1, :, 0] * np.cos(ang)
                          + coef[k - 1, :, 1] * np.sin(ang), axis=-1) / k**2
        return out
    return U


def floyd_warshall_barrier(model, poly):
    """Peierls barrier from all-pairs shortest walks on the raw weights
    dt * (L0(y, v) + c) of the arcs foot -> y; no dual, no Dijkstra.  A node
    z is an Aubry node when its cheapest nonempty closed walk costs 0."""
    arcs = Transition(poly.grid, poly.vset, poly.dt)      # its own kernel
    N, dt = arcs.grid.size, arcs.dt
    cost = dt * (on_arcs(arcs, model.L, 0.0) + poly.c)
    W = np.full((N, N), np.inf)
    np.minimum.at(W, (arcs.take.ravel(), np.tile(np.arange(N), arcs.vset.count)),
                  cost.ravel())
    D = np.minimum(W, np.where(np.eye(N, dtype=bool), 0.0, np.inf))
    for k in range(N):
        np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
    closed = np.min(W + D.T, axis=1)          # cheapest nonempty walk z -> z
    A = np.flatnonzero(np.abs(closed) <= 1e-9)
    h = np.min(D[:, A, None] + D[None, A, :], axis=1)
    return np.where(np.isfinite(h), h, BIG), A


def all_sources_barrier(model, poly):
    """The retired barrier loop: its own kernel and L0, the Aubry set from
    the zero-weight cycles of the reweighted graph, and Dijkstra forward and
    backward from every Aubry node."""
    arcs = Transition(poly.grid, poly.vset, poly.dt)
    N, dt = arcs.grid.size, arcs.dt
    foot = arcs.take.ravel()
    head = np.tile(np.arange(N), arcs.vset.count)
    psi = dt * poly.potential
    reduced = np.maximum(dt * on_arcs(arcs, model.L, 0.0).ravel()
                         + dt * poly.c + psi[foot] - psi[head], 0.0)
    key = foot * N + head
    order = np.lexsort((reduced, key))
    arc = order[np.r_[True, np.diff(key[order]) != 0]]
    G = sparse.csr_matrix((reduced[arc], (foot[arc], head[arc])), shape=(N, N))
    zero = arc[reduced[arc] <= dt * poly.zero_tol]
    aubry = np.unique(foot[zero[cycle_arcs(foot[zero], head[zero], N)[0]]])
    h = np.full((N, N), np.inf)
    for to_z, from_z in zip(csgraph.dijkstra(G.T, indices=aubry),
                            csgraph.dijkstra(G, indices=aubry)):
        np.minimum(h, to_z[:, None] + from_z[None, :], out=h)
    h = h - psi[:, None] + psi[None, :]
    return np.where(np.isfinite(h), h, BIG), aubry


def assert_matches_oracle(model, poly):
    h = peierls_barrier(poly)
    want, A = floyd_warshall_barrier(model, poly)
    np.testing.assert_array_equal(aubry_set(h), A)
    np.testing.assert_allclose(h.values, want, rtol=0, atol=1e-12)
    want, A = all_sources_barrier(model, poly)
    np.testing.assert_array_equal(aubry_set(h), A)
    np.testing.assert_allclose(h.values, want, rtol=0, atol=1e-12)
    return h


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(8, 32),
       m=st.sampled_from([9, 17, 25]), magnetic=st.booleans())
def test_matches_floyd_warshall_1d(seed, n, m, magnetic):
    U = smooth_potential(seed, 1)
    model = magnetic_well(U, [0.3]) if magnetic else builtin_model("mechanical", U=U)
    grid, vset = PeriodicGrid(1, n), velocity_set(3.0, m)
    assert_matches_oracle(model, build_polytope(model, Transition(grid, vset)))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 8),
       m=st.sampled_from([3, 5, 9]), magnetic=st.booleans())
def test_matches_floyd_warshall_2d(seed, n, m, magnetic):
    U = smooth_potential(seed, 2)
    model = (magnetic_well(U, [0.3, -0.2]) if magnetic
             else builtin_model("mechanical", d=2, U=U))
    grid, vset = PeriodicGrid(2, n), velocity_set(2.0, m, d=2)
    assert_matches_oracle(model, build_polytope(model, Transition(grid, vset)))


@pytest.mark.parametrize("d,n", [(1, 32), (2, 8), (2, 16)])
def test_rotation_classes_match_the_oracles(d, n):
    # the rotation's critical cycles fall into several static classes (n of
    # them at d = 2), each searched from one representative
    alpha = [ALPHA, np.sqrt(2.0) - 1.0][:d]
    model = builtin_model("shifted_quadratic", d=d, alpha=alpha)
    vset = velocity_set(3.0, 25) if d == 1 else velocity_set(2.0, 5, d=2)
    poly = build_polytope(model, Transition(PeriodicGrid(d, n), vset))
    assert poly.static_classes()[2].size == (2 if d == 1 else n)
    assert not assert_matches_oracle(model, poly).warnings


def test_duplicate_arcs_keep_the_cheaper():
    # n = 32, m = 49: hops reach 24 cells, and +24 cells is -8 cells, so
    # distinct velocities join the same node pairs with different costs
    grid, vset = PeriodicGrid(1, 32), velocity_set(3.0, 49)
    model = magnetic_well(lambda x: 0.5 * np.cos(2 * np.pi * x[..., 0]), [0.3])
    poly = build_polytope(model, Transition(grid, vset))
    foot = poly.arcs.take
    pairs = foot.ravel() * grid.size + np.tile(np.arange(grid.size), vset.count)
    assert np.unique(pairs).size < pairs.size
    assert_matches_oracle(model, poly)


def window_dp_barrier(model, poly, Tmax=24.0):
    """min over t in [Tmax/2, Tmax] of h_t + c t, by the action DP."""
    dt = poly.dt
    kern = _ActionKernel(model, poly.arcs)
    A = evolve_action(model, poly.arcs, Tmax / 2)
    t = int(round(Tmax / 2 / dt)) * dt
    runmin = A + poly.c * t
    for _ in range(int(round(Tmax / 2 / dt))):
        A, t = kern.step(A), t + dt
        np.minimum(runmin, A + poly.c * t, out=runmin)
    return runmin


@pytest.mark.parametrize("model", [
    builtin_model("mechanical", U=lambda x: np.cos(2 * np.pi * x[..., 0])),
    builtin_model("mechanical", U=lambda x: np.cos(4 * np.pi * x[..., 0])),
    builtin_model("shifted_quadratic", alpha=ALPHA,
                  potential=lambda x: -np.sin(2 * np.pi * x[..., 0]) - 0.3),
], ids=["cosine_well", "double_well", "rotation"])
def test_matches_window_dp(model):
    poly = build_polytope(model, Transition(PeriodicGrid(1, 32), velocity_set(3.0, 25)))
    h = peierls_barrier(poly)
    np.testing.assert_allclose(h.values, window_dp_barrier(model, poly),
                               rtol=0, atol=1e-12)


def test_stored_potential_certifies_the_magnetic_well():
    # the polytope's potential is already in the arrival-point convention of
    # the lattice graph: psi = dt * potential reweights every arc of the
    # magnetic well to >= 0 with no shift, and the check in the barrier has
    # teeth (psi without the dt factor is refused)
    arcs = Transition(PeriodicGrid(1, 128), velocity_set(3.0, 49))
    model = magnetic_well(lambda x: 0.5 * np.cos(2 * np.pi * x[..., 0]), [0.3])
    poly = build_polytope(model, arcs)
    assert not assert_matches_oracle(model, poly).warnings
    dt = arcs.dt
    psi = dt * poly.potential
    weight = dt * (on_arcs(arcs, model.L, 0.0) + poly.c)
    foot = arcs.take
    reduced = weight + psi[foot] - psi[None, :]
    assert reduced.min() >= -dt * poly.zero_tol
    wrong = dataclasses.replace(poly, potential=poly.potential / dt)
    with pytest.raises(ConfigurationError, match="reduced arc weight"):
        peierls_barrier(wrong)


@pytest.mark.parametrize("m", [17, 49])
def test_lagrangian_outside_the_separable_form_matches_the_oracle(m):
    # L0 = |v|^2/2 - 0.3 cos(2 pi x) v is not K(v) + W(x)
    model = with_lagrangian(lambda x, v: 0.5 * v[..., 0] ** 2
                            - 0.3 * np.cos(2 * np.pi * x[..., 0]) * v[..., 0])
    arcs = Transition(PeriodicGrid(1, 32), velocity_set(3.0, m))
    h = assert_matches_oracle(model, build_polytope(model, arcs))
    assert not h.warnings


def test_unreachable_pairs_keep_the_sentinel():
    # doubled dt on even n: every hop is an even number of cells, so the
    # odd nodes never meet the Aubry set at node 0
    grid, vset = PeriodicGrid(1, 16), velocity_set(2.0, 9)
    model = builtin_model("mechanical", U=lambda x: np.cos(2 * np.pi * x[..., 0]))
    poly = build_polytope(model, Transition(grid, vset, 2 * grid.h / vset.spacing))
    h = peierls_barrier(poly)
    assert any("unreachable" in w for w in h.warnings)
    even = np.arange(grid.size) % 2 == 0
    assert np.all(h.values[np.ix_(even, even)] < BIG / 2)
    assert np.all(h.values[~even, :] == BIG) and np.all(h.values[:, ~even] == BIG)
