"""One path for every dimension: the grid, stencil, lattice and random-field
code that runs over the d axes, checked bit for bit against the separate
d = 1 and d = 2 branches it replaced, which are kept here as oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torushj.solver as solver
from torushj.curves import _kink_scale
from torushj.experiments import _smooth_random_fields
from torushj.grids import (
    GridField,
    PeriodicGrid,
    interpolation_stencil,
    product_lattice,
    wrap_points,
)
from torushj.models import builtin_model, fenchel_lagrangian, velocity_set


# ---------------------------------------------------------------------------
# the retired per-dimension code
# ---------------------------------------------------------------------------

def retired_lattice(axis, d):
    if d == 1:
        return axis[:, None]
    aa, bb = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([aa.ravel(), bb.ravel()])


def retired_flat_index(grid, multi):
    m = np.mod(np.asarray(multi, dtype=np.int64), grid.n)
    if grid.d == 1:
        return m[..., 0]
    return m[..., 0] * grid.n + m[..., 1]


def retired_stencil(grid, points):
    p = wrap_points(points, grid.d)
    scaled = p * grid.n
    base = np.floor(scaled).astype(np.int64)
    frac = scaled - base
    over = base >= grid.n
    base[over] -= 1
    frac[over] = 1.0
    if grid.d == 1:
        i0 = np.mod(base[..., 0], grid.n)
        i1 = np.mod(i0 + 1, grid.n)
        t = frac[..., 0]
        return np.stack([i0, i1], axis=-1), np.stack([1.0 - t, t], axis=-1)
    i0 = np.mod(base[..., 0], grid.n)
    j0 = np.mod(base[..., 1], grid.n)
    i1 = np.mod(i0 + 1, grid.n)
    j1 = np.mod(j0 + 1, grid.n)
    s = frac[..., 0]
    t = frac[..., 1]
    idx = np.stack([i0 * grid.n + j0, i0 * grid.n + j1,
                    i1 * grid.n + j0, i1 * grid.n + j1], axis=-1)
    w = np.stack([(1 - s) * (1 - t), (1 - s) * t, s * (1 - t), s * t], axis=-1)
    return idx, w


def retired_lipschitz(field):
    g = field.grid
    if g.d == 1:
        diffs = np.abs(np.roll(field.values, -1) - field.values)
        return float(diffs.max() / g.h)
    a = field.values.reshape(g.n, g.n)
    di = np.abs(np.roll(a, -1, axis=0) - a)
    dj = np.abs(np.roll(a, -1, axis=1) - a)
    return float(max(di.max(), dj.max()) / g.h)


def retired_kink_scale(u):
    g = u.grid
    if g.d == 1:
        v = u.values
        dd = np.abs(np.roll(v, -1) - 2 * v + np.roll(v, 1))
        return float(dd.max()) / 4.0
    a = u.values.reshape(g.n, g.n)
    ddi = np.abs(np.roll(a, -1, 0) - 2 * a + np.roll(a, 1, 0))
    ddj = np.abs(np.roll(a, -1, 1) - 2 * a + np.roll(a, 1, 1))
    return float(max(ddi.max(), ddj.max())) / 4.0


def retired_smooth_random_fields_1d(grid, rng, count, scale=0.5):
    X = grid.node_coords()[:, 0]
    fields = []
    for _ in range(count):
        vals = np.zeros(grid.size)
        for k in range(1, 5):
            a, b = rng.normal(size=2) * scale / k**2
            vals += a * np.cos(2 * np.pi * k * X) + b * np.sin(2 * np.pi * k * X)
        fields.append(GridField(grid, vals))
    return fields


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [4, 5, 16])
def test_node_coords_and_lattices_match_the_retired_builders(d, n):
    grid = PeriodicGrid(d, n)
    assert_same_bits(grid.node_coords(), retired_lattice(grid.axis_coords(), d))
    for axis in (np.linspace(-3.0, 3.0, 13), np.linspace(-6.0, 6.0, 65)):
        assert_same_bits(product_lattice(axis, d), retired_lattice(axis, d))
    vset = velocity_set(2.5, 7, d)
    assert_same_bits(vset.velocities, retired_lattice(np.linspace(-2.5, 2.5, 7), d))


# coordinates on nodes and cell edges of every tested n, just inside the
# unit interval, negative zero, and points below 0 and above 1
SPECIAL = [0.0, -0.0, 1.0, 1.0 - 2.0**-53, -2.0**-53, 2.0**-53, 0.5, -1.0, 2.0,
           -1e-300, 1.0 + 2.0**-52, 0.25 - 2.0**-55, 0.2 + 2.0**-54]
coord = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-80, 80).map(lambda m: m / 16.0),
    st.integers(-50, 50).map(lambda m: m / 5.0),
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([1, 2]), n=st.sampled_from([4, 5, 16]), data=st.data())
def test_stencil_matches_the_retired_branches(d, n, data):
    grid = PeriodicGrid(d, n)
    rows = data.draw(st.integers(0, 6))
    shape = (d,) if rows == 0 else (rows, d)
    pts = np.array(data.draw(st.lists(coord, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))).reshape(shape)
    idx, w = interpolation_stencil(grid, pts)
    ref_idx, ref_w = retired_stencil(grid, pts)
    assert_same_bits(idx, ref_idx)
    assert_same_bits(w, ref_w)


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([1, 2]), n=st.sampled_from([4, 5, 16]),
       multi=st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=12))
def test_flat_index_matches_the_retired_branches(d, n, multi):
    grid = PeriodicGrid(d, n)
    m = np.array(multi[: len(multi) // d * d]).reshape(-1, d)
    assert_same_bits(grid.flat_index(m), retired_flat_index(grid, m))
    assert_same_bits(grid.flat_index(m[0]), retired_flat_index(grid, m[0]))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2]), n=st.sampled_from([4, 5, 16]),
       seed=st.integers(0, 2**31), scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_field_constants_match_the_retired_branches(d, n, seed, scale):
    grid = PeriodicGrid(d, n)
    u = GridField(grid, scale * np.random.default_rng(seed).standard_normal(grid.size))
    assert u.as_array().shape == (n,) * d
    assert u.lipschitz_constant() == retired_lipschitz(u)
    assert _kink_scale(u) == retired_kink_scale(u)


# ---------------------------------------------------------------------------
# lattices in models and solver
# ---------------------------------------------------------------------------

def builtin_models(d):
    cos = lambda x: np.cos(2 * np.pi * x[..., 0]) + 0.3 * np.sin(2 * np.pi * x[..., -1])
    alpha = np.array([0.618, 0.3][:d])
    return [builtin_model("mechanical", d, U=cos, potential=cos),
            builtin_model("shifted_quadratic", d, alpha=alpha, potential=cos),
            builtin_model("arctan_discount", d),
            builtin_model("sigma_discounted", d, U=cos, phi=cos,
                          sigma=lambda x: 1.5 + 0.5 * np.sin(2 * np.pi * x[..., 0]))]


@pytest.mark.parametrize("d", [1, 2])
def test_compute_bracket_matches_the_retired_lattices(d, monkeypatch):
    grid = PeriodicGrid(d, 8)
    u = GridField(grid, np.cos(2 * np.pi * grid.node_coords()).sum(axis=1))
    for model in builtin_models(d):
        model = model.with_c0(1.0)
        new = solver.compute_bracket(model, u)
        monkeypatch.setattr(solver, "product_lattice", retired_lattice)
        ref = solver.compute_bracket(model, u)
        monkeypatch.undo()
        assert_same_bits(new.lower.values, ref.lower.values)
        assert_same_bits(new.upper.values, ref.upper.values)
        for name in ("lambda0", "K0", "delta", "kappa", "T", "C2"):
            assert getattr(new, name) == getattr(ref, name), (model.name, name)


@pytest.mark.parametrize("d", [1, 2])
def test_fenchel_lagrangian_matches_the_retired_lattice(d, monkeypatch):
    import torushj.models as models

    model = builtin_model("mechanical", d, U=lambda x: np.cos(2 * np.pi * x[..., 0]))
    x, v = np.full(d, 0.3), np.linspace(-0.7, 0.4, d)
    new = fenchel_lagrangian(model, x, v, 0.2, m=65)
    monkeypatch.setattr(models, "product_lattice", retired_lattice)
    assert new == fenchel_lagrangian(model, x, v, 0.2, m=65)


# ---------------------------------------------------------------------------
# random fields and policy cycles
# ---------------------------------------------------------------------------

def test_random_fields_keep_the_1d_draws_and_vary_along_every_axis_in_2d():
    grid = PeriodicGrid(1, 32)
    new = _smooth_random_fields(grid, np.random.default_rng(5), 3)
    ref = retired_smooth_random_fields_1d(grid, np.random.default_rng(5), 3)
    for a, b in zip(new, ref):
        assert_same_bits(a.values, b.values)
    for f in _smooth_random_fields(PeriodicGrid(2, 16), np.random.default_rng(5), 3):
        a = f.as_array()
        assert np.ptp(a, axis=0).max() > 1e-3 and np.ptp(a, axis=1).max() > 1e-3


def test_policy_walk_walks_the_tail_then_lists_the_cycle():
    # 0 -> 1 -> 2 -> 3 -> 4 -> 2 along pred; node 5 feeds node 0
    pred = np.array([1, 2, 3, 4, 2, 0])
    assert list(solver.policy_walk(pred, (5,))) == [([2, 3, 4], [1, 0, 5])]
    assert list(solver.policy_walk(pred, (2, 5))) == [([2, 3, 4], []), ([], [1, 0, 5])]
    assert list(solver.policy_walk(pred)) == [([2, 3, 4], [1, 0]), ([], [5])]
    assert list(solver.policy_walk(np.array([0]), (0, 0))) == [([0], [])]
