"""The one transition kernel, `solver.Transition`, checked against
`grids.interpolate` as an oracle, and the closedness operator built on it."""

import numpy as np
import pytest
from scipy import sparse

from torushj.barrier import critical_value, evolve_action
from torushj.curves import backward_calibrated_curve, closedness_defect, occupation_measure
from torushj.errors import ConfigurationError
from torushj.grids import GridField, PeriodicGrid, interpolate, interpolation_stencil
import torushj.solver as solver
from torushj.experiments import parse_potential
from torushj.matherlp import build_polytope, closedness_operator
from torushj.models import builtin_model, velocity_set
from torushj.solver import Transition, default_dt, on_arcs

# (d, n, vmax, m, dt) with dt None for the default h / (velocity step)
GRIDS = [
    (1, 16, 2.0, 9, None),
    (1, 32, 2.0, 17, None),
    (1, 64, 3.0, 33, None),
    (1, 64, 3.0, 49, None),
    (1, 32, 2.0, 17, 0.0101),
    (2, 8, 1.0, 5, None),
]
KERNELS = GRIDS + [
    (1, 16, 2.0, 9, "double"),          # two cells per velocity step
    (2, 8, 1.0, 5, 0.0101),
]


def make(d, n, vmax, m, dt):
    grid = PeriodicGrid(d, n)
    vset = velocity_set(vmax, m, d)
    base = default_dt(grid, vset)
    dt = base if dt is None else 2.0 * base if dt == "double" else dt
    return grid, vset, dt


def random_field(grid, seed):
    return GridField(grid, np.random.default_rng(seed).normal(size=grid.size))


def arc_points(grid, vset, dt, sign):
    """x + sign*v*dt for every arc, shape (K, N, d)."""
    return grid.node_coords()[None, :, :] + sign * vset.velocities[:, None, :] * dt


@pytest.mark.parametrize("case", KERNELS)
def test_integer_hops_decided_from_dt(case):
    grid, vset, dt = make(*case)
    assert Transition(grid, vset, dt).integer_hops == (case[4] != 0.0101)


@pytest.mark.parametrize("case", KERNELS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_foot_values_match_interpolation(case, seed):
    grid, vset, dt = make(*case)
    arcs = Transition(grid, vset, dt)
    u = random_field(grid, seed)
    fv = arcs.foot_values(u.values)
    assert fv.shape == (vset.count, grid.size)
    np.testing.assert_allclose(fv, interpolate(u, arc_points(grid, vset, dt, -1)),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("d, n, m", [(1, 64, 49), (2, 12, 7)])
def test_off_lattice_foot_values_are_the_stencil_sum_bit_for_bit(d, n, m):
    """The left-to-right accumulation over the stencil axis against the
    np.sum form it replaced, on random fields of several scales."""
    arcs = Transition(PeriodicGrid(d, n), velocity_set(3.0, m, d), 1e-3)
    assert not arcs.integer_hops
    rng = np.random.default_rng(d)
    for _ in range(50):
        values = rng.normal(size=arcs.grid.size) * 10.0 ** rng.integers(-3, 4)
        summed = np.sum(values[arcs.take] * arcs.w, axis=-1)
        assert arcs.foot_values(values).tobytes() == summed.tobytes()


@pytest.mark.parametrize("case", KERNELS)
@pytest.mark.parametrize("seed", [0, 1])
def test_heads_bin_the_forward_points(case, seed):
    grid, vset, dt = make(*case)
    arcs = Transition(grid, vset, dt)
    idx, w = arcs.heads
    ref_idx, ref_w = arcs.stencil(+1)
    assert np.array_equal(idx, ref_idx) and (w is None) == (ref_w is None)
    assert w is None or np.array_equal(w, ref_w)
    u = random_field(grid, seed)
    if arcs.integer_hops:
        assert w is None and idx.shape == (vset.count, grid.size)
        heads = u.values[idx]
    else:
        assert idx.shape == w.shape == (vset.count, grid.size, 2**grid.d)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        heads = np.sum(u.values[idx] * w, axis=-1)
    np.testing.assert_allclose(heads, interpolate(u, arc_points(grid, vset, dt, +1)),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", KERNELS)
def test_lazy_foot_stencil_is_the_eager_one(case):
    """`take`, `w` and `heads`, built on first read, are bit for bit the
    stencils built at once: the foot stencil, and with integer hops the
    inverse of each foot map, else the head stencil."""
    grid, vset, dt = make(*case)
    arcs = Transition(grid, vset, dt)
    heads_idx, heads_w = arcs.heads
    take, w = arcs.stencil(-1)
    if w is None:
        K, N = take.shape
        eager_heads = np.empty_like(take)
        eager_heads[np.arange(K)[:, None], take] = np.arange(N)
    else:
        eager_heads = arcs.stencil(+1)[0]
    for got, want in ((arcs.take, take), (arcs.w, w), (heads_idx, eager_heads)):
        assert (got is None) == (want is None)
        assert got is None or (got.dtype == want.dtype and got.shape == want.shape
                               and got.tobytes() == want.tobytes())
    assert heads_w is None or heads_w.tobytes() == arcs.stencil(+1)[1].tobytes()


def test_off_lattice_trace_and_defect_build_no_foot_stencil(monkeypatch):
    """An off-lattice backward trace samples feet with `foot_sampler` and the
    closedness defect pushes mass to `heads`, so neither builds the foot
    stencil, `stencil(-1)`."""
    grid, vset = PeriodicGrid(1, 32), velocity_set(2.0, 17)
    model = builtin_model("mechanical", U=parse_potential("cos:amp=1,freq=1"))
    model = model.with_c0(build_polytope(model, Transition(grid, vset)).c)
    fld, rep = solver.solve_perturbed(model, 0.5, Transition(grid, vset, 0.02), tol=1e-10)
    assert rep.converged
    arcs = Transition(grid, vset, 0.02)     # the solve's kernel has its foot stencil
    stencil, signs = Transition.stencil, []

    def counted(self, sign):
        signs.append(sign)
        return stencil(self, sign)

    monkeypatch.setattr(Transition, "stencil", counted)
    tr = backward_calibrated_curve(model, 0.5, fld, grid.node_coords()[4], Tmax=30.0,
                                   arcs=arcs, solver_tol=1e-10)
    assert not tr.on_lattice and signs == []
    assert not arcs.integer_hops
    closedness_defect(occupation_measure(tr), tr.arcs)
    assert signs == [+1]


@pytest.mark.parametrize("case", KERNELS + [(2, 8, 1.0, 5, "double")])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_policy_matrix_is_the_chosen_foot_stencil(case, seed):
    grid, vset, dt = make(*case)
    arcs = Transition(grid, vset, dt)
    rng = np.random.default_rng(seed)
    pol = rng.integers(0, vset.count, size=grid.size)
    P = arcs.policy_matrix(pol)
    assert P.shape == (grid.size, grid.size)
    np.testing.assert_allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0, rtol=0, atol=1e-12)
    v = rng.normal(size=grid.size)
    np.testing.assert_allclose(P @ v, arcs.foot_values(v)[pol, np.arange(grid.size)],
                               rtol=0, atol=1e-12)


def test_dimension_mismatch_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        Transition(PeriodicGrid(2, 8), velocity_set(1.0, 5, 1), 0.1)


@pytest.mark.parametrize("d", [1, 2])
def test_on_arcs_evaluates_every_arc(d):
    grid, vset, _ = make(d, 8, 1.0, 5, None)
    X = grid.node_coords()

    def fn(x, v, scale):
        return scale * (np.sum(x * v, axis=-1) + np.sum(v**2, axis=-1))

    got = on_arcs(Transition(grid, vset), fn, 3.0)
    want = np.array([[fn(X[i], vset.velocities[k], 3.0) for i in range(grid.size)]
                     for k in range(vset.count)])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def reference_closedness(grid, vset, dt):
    """The closedness operator assembled independently of `Transition`:
    integer hops from lattice successors, otherwise from the multilinear
    stencil of x + v*dt, in the flat (node, velocity) column order."""
    N, K = grid.size, vset.count
    cols = np.arange(N * K)
    hops = vset.velocities * (dt / grid.h)
    rounded = np.rint(hops)
    if np.max(np.abs(hops - rounded)) < 1e-9:
        multi = np.stack(
            np.meshgrid(*[np.arange(grid.n)] * grid.d, indexing="ij"), axis=-1
        ).reshape(-1, grid.d)
        succ = grid.flat_index(multi[:, None, :] + rounded.astype(np.int64)[None, :, :])
        rows, vals = succ.ravel(), np.ones(N * K)
    else:
        idx, w = interpolation_stencil(grid, arc_points(grid, vset, dt, +1))
        S = idx.shape[2]
        rows = idx.transpose(1, 0, 2).ravel()
        vals = w.transpose(1, 0, 2).ravel()
        cols = np.repeat(cols, S)
    C = sparse.coo_matrix(
        (np.concatenate([vals, -np.ones(N * K)]),
         (np.concatenate([rows, np.repeat(np.arange(N), K)]),
          np.concatenate([cols, np.arange(N * K)]))),
        shape=(N, N * K),
    ).tocsr()
    C.sum_duplicates()
    return C


@pytest.mark.parametrize("case", GRIDS)
def test_closedness_operator_matches_reference(case):
    grid, vset, dt = make(*case)
    C = closedness_operator(Transition(grid, vset, dt))
    dense = C.toarray()
    np.testing.assert_allclose(dense.sum(axis=0), 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dense.sum(axis=1), 0.0, rtol=0, atol=1e-12)
    ref = reference_closedness(grid, vset, dt)
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(C, attr), getattr(ref, attr))


def reference_classes(poly):
    """The static classes as sets of nodes: strongly connected components
    of the critical arcs, walked with a kernel of its own."""
    arcs = Transition(poly.grid, poly.vset, poly.dt)
    N, K = poly.grid.size, poly.vset.count
    head = np.empty_like(arcs.take)
    head[np.arange(K)[:, None], arcs.take] = np.arange(N)
    crit = poly.critical
    succ = {x: set() for x in range(N)}
    for a in crit:
        succ[a // K].add(int(head[a % K, a // K]))

    def reach(x):
        seen, todo = set(), [x]
        while todo:
            for y in succ[todo.pop()] - seen:
                seen.add(y)
                todo.append(y)
        return seen

    reached = {x: reach(x) for x in range(N)}
    classes = []
    for x in range(N):
        if x in reached[x] and not any(x in c for c in classes):
            classes.append(sorted(y for y in reached[x] if x in reached[y]))
    return classes


@pytest.mark.parametrize("case", [(1, 32, 3.0, 25, None, "cos:amp=1,freq=1"),
                                  (1, 32, 3.0, 25, "double", "cos:amp=1,freq=2"),
                                  (1, 16, 2.0, 9, 0.0101, "cos:amp=1,freq=1"),
                                  (2, 8, 1.0, 5, None, "cos_sum:amp=1,freq=1")])
def test_build_polytope_uses_one_transition(monkeypatch, case):
    """One kernel per polytope, the one it is given: it builds none.  Its
    closedness operator has the CSR arrays of the independent reference and
    its static classes those of a walk with a kernel of its own.  Off the
    node lattice no polytope is built, and the operator's stencil branch
    still meets the reference."""
    grid, vset, dt = make(*case[:5])
    model = builtin_model("mechanical", d=grid.d, U=parse_potential(case[5]))
    ref = reference_closedness(grid, vset, dt)
    arcs = Transition(grid, vset, dt)
    if case[4] == 0.0101:
        with pytest.raises(ConfigurationError, match="off the node lattice"):
            build_polytope(model, arcs)
        C = closedness_operator(arcs)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(C, attr), getattr(ref, attr))
        return
    built = []

    class Counted(Transition):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(solver, "Transition", Counted)
    poly = build_polytope(model, arcs)
    monkeypatch.undo()
    assert not built and poly.arcs is arcs
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(poly.C, attr), getattr(ref, attr))
    want = reference_classes(poly)
    aubry, label, reps = poly.static_classes()
    assert len(want) == reps.size >= 1
    assert [list(aubry[label == c]) for c in range(reps.size)] == want


@pytest.mark.parametrize("d, n, vmax, m", [(1, 16, 2.0, 9), (1, 50, 3.0, 25), (1, 128, 3.0, 49),
                                           (2, 8, 1.0, 5), (2, 12, 2.0, 7)])
@pytest.mark.parametrize("cells", [1, 2, 3])
def test_integer_arcs_match_the_float_round_trip(d, n, vmax, m, cells):
    """On the lattice, `take` and `heads` come from index arithmetic; they
    equal, dtype and bits included, the float path they replace:
    `nearest_node` of x -+ v*dt, at 1, 2 and 3 lattice steps per velocity
    step, on the nodes and on seeded sub-grids of nodes."""
    grid, vset = PeriodicGrid(d, n), velocity_set(vmax, m, d)
    arcs = Transition(grid, vset, cells * default_dt(grid, vset))
    assert arcs.integer_hops
    X = grid.node_coords()
    take = grid.nearest_node(X[None, :, :] - vset.velocities[:, None, :] * arcs.dt)
    heads = grid.nearest_node(X[None, :, :] + vset.velocities[:, None, :] * arcs.dt)
    for got, want in ((arcs.take, take), (arcs.heads[0], heads)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert arcs.w is None and arcs.heads[1] is None
    rng = np.random.default_rng(100 * n + cells)
    nodes = rng.integers(0, grid.size, size=7)
    np.testing.assert_array_equal(
        arcs.take[:, nodes],
        grid.nearest_node(X[None, nodes, :] - vset.velocities[:, None, :] * arcs.dt))


@pytest.mark.parametrize("case", KERNELS)
def test_missing_dt_is_the_default_dt(case):
    grid, vset, _ = make(*case)
    given, resolved = Transition(grid, vset, default_dt(grid, vset)), Transition(grid, vset)
    assert resolved.dt == given.dt and resolved.integer_hops == given.integer_hops
    for got, want in ((resolved.take, given.take), (resolved.heads[0], given.heads[0])):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


BAD_DT = [0.0, "-h", float("nan"), float("inf")]


def _entries():
    """Each public entry that takes a dt, as a function of (grid, vset, dt)."""
    model = builtin_model("mechanical", U=parse_potential("cos:amp=1,freq=1"))
    ready = model.with_c0(1.0)
    u0 = lambda grid: GridField.constant(grid, 0.0)
    return {
        "Transition": lambda g, v, dt: Transition(g, v, dt),
        "solve_perturbed": lambda g, v, dt: solver.solve_perturbed(
            ready, 0.5, Transition(g, v, dt)),
        "build_polytope": lambda g, v, dt: build_polytope(model, Transition(g, v, dt)),
        "critical_value_lp": lambda g, v, dt: critical_value(
            model, "lp", Transition(g, v, dt)),
        "critical_value_discount": lambda g, v, dt: critical_value(
            model, "discount", Transition(g, v, dt)),
        "critical_value_longtime": lambda g, v, dt: critical_value(
            model, "longtime", Transition(g, v, dt)),
        "evolve_action": lambda g, v, dt: evolve_action(model, Transition(g, v, dt), T=1.0),
        "backward_calibrated_curve": lambda g, v, dt: backward_calibrated_curve(
            ready, 0.5, u0(g), [0.25], Tmax=1.0, arcs=Transition(g, v, dt)),
    }


@pytest.mark.parametrize("entry", sorted(_entries()))
@pytest.mark.parametrize("dt", BAD_DT, ids=["zero", "minus_h", "nan", "inf"])
def test_a_dt_not_positive_and_finite_is_refused_by_the_kernel(entry, dt):
    """Every route to a kernel refuses the dt in `Transition`, before any
    division by it (a zero dt ended as ZeroDivisionError)."""
    grid, vset = PeriodicGrid(1, 16), velocity_set(2.0, 9)
    dt = -grid.h if dt == "-h" else dt
    with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
        _entries()[entry](grid, vset, dt)
