import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_trace_oracle import mod_wrap, point_sampler
from torushj.errors import ConfigurationError, DomainError
from torushj.grids import (
    GridField,
    PeriodicGrid,
    interpolate,
    wrap_points,
    wrap_unit,
)
from torushj.models import velocity_set
from torushj.solver import Transition

finite_coords = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
# the whole finite range, subnormals and -0.0 included
any_finite = st.floats(allow_nan=False, allow_infinity=False)
# where x - floor(x) and np.mod(x, 1.0) are likeliest to part: signed zeros,
# subnormals, the tiny negatives whose x + 1 rounds to 1.0, the floats next
# to 1 and -1, halves, and whole numbers past 2**53
WRAP_EDGES = ([0.0, -0.0, 5e-324, -5e-324, -2.0**-60, 1.0 - 2.0**-53,
               -1.0 - 2.0**-52, 3.5, -3.5]
              + [sign * (1e16 + k) for sign in (1.0, -1.0) for k in range(4)])


def bits(x):
    """The float64 bit patterns of x, so that -0.0 and +0.0 differ."""
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def test_wrap_basic_examples():
    assert wrap_points([1.25])[0] == pytest.approx(0.25)
    assert wrap_points([-0.1])[0] == pytest.approx(0.9)
    np.testing.assert_allclose(wrap_points([0.0, 2.0]), [0.0, 0.0])


def test_wrap_rejects_nonfinite():
    with pytest.raises(DomainError):
        wrap_points([np.nan])
    with pytest.raises(DomainError):
        wrap_points([np.inf, 0.0])


@given(st.lists(finite_coords, min_size=1, max_size=2))
def test_wrap_idempotent(coords):
    once = wrap_points(coords)
    twice = wrap_points(once)
    np.testing.assert_array_equal(once, twice)
    assert np.all((once >= 0) & (once < 1))


def test_wrap_edges_are_np_mod_bit_for_bit():
    x = np.array(WRAP_EDGES)
    want = bits(mod_wrap(x.copy()))
    assert bits(wrap_points(x)) == want
    assert bits(wrap_unit(x)) == want
    assert bits(x) == bits(WRAP_EDGES)           # neither writes into x
    assert bits(wrap_unit(x, out=x)) == want and bits(x) == want


@given(st.lists(any_finite, min_size=2, max_size=64))
def test_wrap_points_is_np_mod_bit_for_bit(coords):
    for d in (1, 2):
        x = np.array(coords[:len(coords) // d * d]).reshape(-1, d)
        before = bits(x)
        assert bits(wrap_points(x, d)) == bits(mod_wrap(x.copy()))
        assert bits(x) == before


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("snap", [False, True])
@settings(max_examples=40, deadline=None)
@given(coords=st.lists(any_finite, min_size=2, max_size=24))
def test_foot_sampler_wraps_as_np_mod(d, snap, coords):
    """`Transition.foot_sampler`'s feet and values, row by row, against the
    lean loop's point sampler, which wraps with np.mod."""
    coords = coords + WRAP_EDGES
    Y = np.array(coords[:len(coords) // d * d]).reshape(-1, d)
    grid = PeriodicGrid(d, 8)
    arcs = Transition(grid, velocity_set(1.0, 5, d), 0.0123)
    values = np.random.default_rng(d).normal(size=grid.size)
    feet, fv = arcs.foot_sampler(values, snap)(Y)
    one = point_sampler(arcs, values, snap)
    for y, row_feet, row_fv in zip(Y, feet, fv):
        want_feet, want_fv = one(y)
        assert bits(row_feet) == bits(want_feet)
        assert bits(row_fv) == bits(want_fv)


def test_periodic_grid_examples():
    g = PeriodicGrid(1, 8)
    np.testing.assert_allclose(g.axis_coords(), np.arange(8) / 8)
    assert PeriodicGrid(2, 4).size == 16
    with pytest.raises(ConfigurationError):
        PeriodicGrid(3, 8)
    with pytest.raises(ConfigurationError):
        PeriodicGrid(1, 3)


def test_lexicographic_indexing_2d():
    g = PeriodicGrid(2, 4)
    coords = g.node_coords()
    # row-major: index i*n + j -> (i*h, j*h)
    np.testing.assert_allclose(coords[1], [0.0, 0.25])
    np.testing.assert_allclose(coords[4], [0.25, 0.0])
    assert g.flat_index(np.array([1, 2])) == 6


def test_interpolate_constant_and_midpoint():
    g = PeriodicGrid(1, 4)
    const = GridField.constant(g, 3.7)
    for x in (0.0, 0.1, 0.49, 0.9999):
        assert interpolate(const, [x]) == pytest.approx(3.7)
    f = GridField(g, [0.0, 1.0, 0.0, 1.0])
    assert interpolate(f, [0.125]) == pytest.approx(0.5)


def test_interpolate_exact_at_nodes():
    g = PeriodicGrid(2, 5)
    rng = np.random.default_rng(0)
    f = GridField(g, rng.normal(size=g.size))
    vals = interpolate(f, g.node_coords())
    np.testing.assert_array_equal(vals, f.values)


def test_interpolate_sine_derived():
    # Independent oracle: analytic sin(2 pi x) at x = 0.3.
    g = PeriodicGrid(1, 256)
    f = GridField.from_function(g, lambda X: np.sin(2 * np.pi * X[..., 0]))
    expected = np.sin(0.6 * np.pi)  # = 0.95105651629515353
    assert interpolate(f, [0.3]) == pytest.approx(expected, abs=1e-3)


def test_interpolate_affine_in_cell_exact():
    g = PeriodicGrid(1, 8)
    f = GridField.from_function(g, lambda X: 2.0 * X[..., 0])
    # affine within a single cell is reproduced exactly
    assert interpolate(f, [0.1 + 1e-3]) == pytest.approx(2 * (0.1 + 1e-3), abs=1e-14)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=0, max_value=1e-3))
def test_interpolate_sup_lipschitz(seed, eps):
    g = PeriodicGrid(1, 8)
    rng = np.random.default_rng(seed)
    base = rng.normal(size=g.size)
    bump = rng.uniform(-eps, eps, size=g.size)
    pts = rng.uniform(0, 1, size=(20, 1))
    a = interpolate(GridField(g, base), pts)
    b = interpolate(GridField(g, base + bump), pts)
    assert np.max(np.abs(a - b)) <= eps + 1e-15


def test_bilinear_2d_matches_separable_product():
    g = PeriodicGrid(2, 8)
    f = GridField.from_function(
        g, lambda X: np.sin(2 * np.pi * X[..., 0]) * np.cos(2 * np.pi * X[..., 1]))
    val = interpolate(f, [0.31, 0.77])
    exact = np.sin(2 * np.pi * 0.31) * np.cos(2 * np.pi * 0.77)
    assert val == pytest.approx(exact, abs=5e-2)


def test_field_validation():
    g = PeriodicGrid(1, 4)
    with pytest.raises(DomainError):
        GridField(g, [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        GridField(g, [1.0, np.inf, 0.0, 0.0])
    f = GridField(g, [0.0, 1.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0  # immutable after construction
