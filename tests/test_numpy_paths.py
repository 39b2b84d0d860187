"""The numpy paths that a lattice run takes instead of scipy.sparse, checked
against scipy as the oracle on seeded random cases at d = 1 and d = 2, on
the node lattice and off it:

- the solver's policy evaluation (a walk over the policy's functional graph
  with integer hops, a dense solve otherwise) against `spsolve` on the same
  policy matrix;
- the barrier's dense multi-source Dijkstra against `csgraph.dijkstra`, and
  `peierls_barrier` against the csgraph barrier it replaced, bit for bit;
- `cycle_arcs`' Tarjan components against `csgraph.connected_components`;
- `closedness_defect` on the `Transition` against the sparse closedness
  operator applied to the measure."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import spsolve

from torushj.barrier import BIG, _dijkstra, peierls_barrier
from torushj.curves import closedness_defect
from torushj.experiments import parse_potential
from torushj.grids import PeriodicGrid
from torushj.matherlp import DiscreteMeasure, build_polytope, closedness_operator, cycle_arcs
from torushj.models import builtin_model, velocity_set
from torushj.solver import Transition, _discounted_walk, default_dt, solve_perturbed

# (d, n, vmax, m, dt): dt None for the lattice dt h / (velocity step)
KERNELS = [
    (1, 16, 2.0, 9, None),
    (1, 32, 3.0, 13, None),
    (1, 16, 2.0, 9, "double"),          # two cells per velocity step
    (1, 16, 2.0, 9, 0.0101),
    (2, 6, 1.0, 5, None),
    (2, 6, 1.0, 5, 0.0101),
]
SEEDS = [0, 1, 2]


def make(d, n, vmax, m, dt):
    grid, vset = PeriodicGrid(d, n), velocity_set(vmax, m, d)
    base = default_dt(grid, vset)
    return Transition(grid, vset, base if dt is None else 2.0 * base
                      if dt == "double" else dt)


def sparse_policy_matrix(arcs, pol):
    """The CSR policy matrix the solver used to build."""
    rows = np.arange(arcs.grid.size)
    cols = arcs.take[pol, rows].reshape(rows.size, -1)
    vals = np.ones(cols.shape) if arcs.w is None else arcs.w[pol, rows]
    return sparse.csr_matrix((vals.ravel(), cols.ravel(),
                              np.arange(0, cols.size + 1, cols.shape[1])),
                             shape=(rows.size, rows.size))


def spsolve_evaluation(arcs, pol, decay, rhs):
    """(I - diag(decay) P_pi)^-1 rhs by the sparse solve it replaced."""
    A = sparse.identity(pol.size, format="csr") - sparse.diags(decay) @ sparse_policy_matrix(arcs, pol)
    return spsolve(A.tocsc(), rhs)


@pytest.mark.parametrize("case", KERNELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_policy_evaluation_matches_spsolve(case, seed):
    arcs = make(*case)
    rng = np.random.default_rng(seed)
    N = arcs.grid.size
    pol = rng.integers(0, arcs.vset.count, size=N)
    decay = 1.0 - rng.uniform(1e-3, 0.1, size=N)
    rhs = rng.normal(size=N)
    z = arcs.evaluate_policy(pol, decay, rhs)
    ref = spsolve_evaluation(arcs, pol, decay, rhs)
    assert np.max(np.abs(z - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))
    # and z solves the system itself
    P = arcs.policy_matrix(pol)
    np.testing.assert_array_equal(P, sparse_policy_matrix(arcs, pol).toarray())
    assert np.max(np.abs(z - decay * (P @ z) - rhs)) <= 1e-12 * max(1.0, float(np.max(np.abs(z))))


def test_walk_closes_each_cycle():
    # two one-node cycles and a two-node cycle with a tree hanging from it:
    # z(y) = r(y) + a(y) z(pred(y))
    pred = np.array([0, 2, 1, 3, 1])
    a = np.array([0.5, 0.5, 0.25, 0.9, 0.5])
    r = np.array([1.0, 1.0, 2.0, 1.0, 1.0])
    z = _discounted_walk(pred, a, r)
    # z1 = 1 + z2/2, z2 = 2 + z1/4  ->  z1 = 2 / (1 - 1/8) = 16/7
    np.testing.assert_allclose(z, [2.0, 16 / 7, 2.0 + 4 / 7, 10.0, 1.0 + 8 / 7],
                               rtol=1e-15, atol=0)
    # a cycle without discount has no solution
    assert np.isnan(_discounted_walk(np.array([1, 0]), np.ones(2), np.ones(2))).all()


@pytest.mark.parametrize("case", [(1, 32, 2.0, 17, None), (1, 32, 2.0, 17, 0.0101),
                                  (2, 8, 1.0, 5, None), (2, 8, 1.0, 5, 0.0101)])
@pytest.mark.parametrize("lam", [0.5, 0.02])
def test_solve_matches_the_spsolve_solve(case, lam, monkeypatch):
    arcs = make(*case)
    grid, vset = arcs.grid, arcs.vset
    U = parse_potential("cos_sum:amp=1,freq=1" if grid.d == 2 else "cos:amp=1,freq=1")
    model = builtin_model("mechanical", d=grid.d, U=U)
    model = model.with_c0(build_polytope(model, Transition(grid, vset)).c)
    fld, rep = solve_perturbed(model, lam, Transition(grid, vset, arcs.dt), tol=1e-10)
    monkeypatch.setattr(Transition, "evaluate_policy", spsolve_evaluation)
    ref, ref_rep = solve_perturbed(model, lam, Transition(grid, vset, arcs.dt), tol=1e-10)
    assert rep.converged and ref_rep.converged
    assert rep.iterations == ref_rep.iterations
    assert np.max(np.abs(fld.values - ref.values)) <= 1e-12


def csgraph_matrix(G):
    """G as CSR, with its zero-weight arcs kept as explicit entries."""
    i, j = np.nonzero(np.isfinite(G))
    C = sparse.csr_matrix((G[i, j], (i, j)), shape=G.shape)
    assert C.nnz == i.size
    return C


@pytest.mark.parametrize("seed", range(12))
def test_dijkstra_matches_csgraph_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 40))
    kind = seed % 3
    if kind == 0:        # random floats
        G = rng.uniform(0.0, 1.0, size=(N, N))
    elif kind == 1:      # few values: many ties and zero-weight arcs
        G = rng.integers(0, 3, size=(N, N)) * 0.1
    else:                # floats of wide range with many zeros
        G = np.where(rng.random((N, N)) < 0.3, 0.0,
                     rng.uniform(0.0, 1.0, size=(N, N)) * 10.0 ** rng.integers(-8, 3, (N, N)))
    G[rng.random((N, N)) < rng.uniform(0.5, 0.95)] = np.inf      # absent arcs
    if N > 4:
        G[:, N // 2] = np.inf       # a node nothing reaches
    sources = rng.choice(N, size=int(rng.integers(1, N + 1)), replace=False)
    C = csgraph_matrix(G)
    to, fro = _dijkstra(G, sources)
    assert np.array_equal(to, csgraph.dijkstra(C.T, indices=sources))
    assert np.array_equal(fro, csgraph.dijkstra(C, indices=sources))
    if N > 4:
        assert np.isinf(fro).any()


def csgraph_barrier(poly):
    """The Peierls barrier as `peierls_barrier` computed it with csgraph."""
    aubry, _, reps = poly.static_classes()
    dt, N, K = poly.dt, poly.grid.size, poly.vset.count
    foot, head = poly.arcs.take.ravel(), np.tile(np.arange(N), K)
    psi = dt * poly.potential
    cost = dt * poly.action[foot * K + np.repeat(np.arange(K), N)]
    reduced = np.maximum(cost + dt * poly.c + psi[foot] - psi[head], 0.0)
    key = foot * N + head
    order = np.lexsort((reduced, key))
    arc = order[np.r_[True, np.diff(key[order]) != 0]]
    G = sparse.csr_matrix((reduced[arc], (foot[arc], head[arc])), shape=(N, N))
    h = np.full((N, N), np.inf)
    for to_z, from_z in zip(csgraph.dijkstra(G.T, indices=reps),
                            csgraph.dijkstra(G, indices=reps)):
        np.minimum(h, to_z[:, None] + from_z[None, :], out=h)
    h = h - psi[:, None] + psi[None, :]
    h[~np.isfinite(h)] = BIG
    return h


ALPHA = (np.sqrt(5.0) - 1.0) / 2.0
BARRIER_CASES = [
    ("mechanical", 1, 32, 9, {"U": parse_potential("cos:amp=1,freq=1")}),
    ("mechanical", 1, 32, 17, {"U": parse_potential("cos:amp=1,freq=2")}),   # two wells
    ("shifted_quadratic", 1, 32, 17, {"alpha": ALPHA}),
    ("mechanical", 2, 8, 5, {"U": parse_potential("cos_sum:amp=1,freq=1")}),
    ("shifted_quadratic", 2, 8, 9, {"alpha": (ALPHA, np.sqrt(2.0) - 1.0)}),
]


@pytest.mark.parametrize("name, d, n, m, params", BARRIER_CASES)
def test_peierls_barrier_matches_the_csgraph_barrier(name, d, n, m, params):
    model = builtin_model(name, d=d, **params)
    poly = build_polytope(model, Transition(PeriodicGrid(d, n), velocity_set(2.0, m, d)))
    assert np.array_equal(peierls_barrier(poly).values, csgraph_barrier(poly))


def same_partition(a, b):
    return len(set(zip(a.tolist(), b.tolist()))) == len(set(a.tolist())) == len(set(b.tolist()))


@pytest.mark.parametrize("seed", range(20))
def test_tarjan_components_match_csgraph(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 50))
    arcs = int(rng.integers(0, 3 * N + 1))
    foot, head = rng.integers(0, N, arcs), rng.integers(0, N, arcs)
    on, label = cycle_arcs(foot, head, N)
    G = sparse.csr_matrix((np.ones(arcs), (foot, head)), shape=(N, N))
    ref = csgraph.connected_components(G, connection="strong")[1]
    assert label.shape == (N,) and same_partition(label, ref)
    np.testing.assert_array_equal(on, ref[foot] == ref[head])


def test_tarjan_on_a_long_cycle_with_a_tail():
    # a deep walk: the iterative form needs no recursion
    N = 5000
    foot = np.r_[np.arange(N - 1), N - 1, np.arange(10)]
    head = np.r_[np.arange(1, N), 100, np.arange(10) + 1]
    on, label = cycle_arcs(foot, head, N)
    assert len(set(label[100:].tolist())) == 1 and len(set(label[:100].tolist())) == 100
    assert on.sum() == N - 100


@pytest.mark.parametrize("case", KERNELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_closedness_defect_matches_the_operator(case, seed):
    arcs = make(*case)
    rng = np.random.default_rng(seed)
    N, K = arcs.grid.size, arcs.vset.count
    W = rng.random((N, K)) * (rng.random((N, K)) < 0.3)
    W[0, 0] += 1.0
    mu = DiscreteMeasure(arcs.grid, arcs.vset, W / W.sum())
    ref = float(np.max(np.abs(closedness_operator(arcs) @ mu.flat())))
    assert abs(closedness_defect(mu, arcs) - ref) <= 1e-15
