import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torushj.errors import ConfigurationError, DomainError
from torushj.grids import (
    GridField,
    build_grid,
    interpolate,
    wrap_points,
)

finite_coords = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


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


def test_build_grid_examples():
    g = build_grid(1, 8)
    np.testing.assert_allclose(g.axis_coords(), np.arange(8) / 8)
    assert build_grid(2, 4).size == 16
    with pytest.raises(ConfigurationError):
        build_grid(3, 8)
    with pytest.raises(ConfigurationError):
        build_grid(1, 3)


def test_lexicographic_indexing_2d():
    g = build_grid(2, 4)
    coords = g.node_coords()
    # row-major: index i*n + j -> (i*h, j*h)
    np.testing.assert_allclose(coords[1], [0.0, 0.25])
    np.testing.assert_allclose(coords[4], [0.25, 0.0])
    assert g.flat_index(np.array([1, 2])) == 6


def test_interpolate_constant_and_midpoint():
    g = build_grid(1, 4)
    const = GridField.constant(g, 3.7)
    for x in (0.0, 0.1, 0.49, 0.9999):
        assert interpolate(const, [x]) == pytest.approx(3.7)
    f = GridField(g, [0.0, 1.0, 0.0, 1.0])
    assert interpolate(f, [0.125]) == pytest.approx(0.5)


def test_interpolate_exact_at_nodes():
    g = build_grid(2, 5)
    rng = np.random.default_rng(0)
    f = GridField(g, rng.normal(size=g.size))
    vals = interpolate(f, g.node_coords())
    np.testing.assert_array_equal(vals, f.values)


def test_interpolate_sine_derived():
    # Independent oracle: analytic sin(2 pi x) at x = 0.3.
    g = build_grid(1, 256)
    f = GridField.from_function(g, lambda X: np.sin(2 * np.pi * X[..., 0]))
    expected = np.sin(0.6 * np.pi)  # = 0.95105651629515353
    assert interpolate(f, [0.3]) == pytest.approx(expected, abs=1e-3)


def test_interpolate_affine_in_cell_exact():
    g = build_grid(1, 8)
    f = GridField.from_function(g, lambda X: 2.0 * X[..., 0])
    # affine within a single cell is reproduced exactly
    assert interpolate(f, [0.1 + 1e-3]) == pytest.approx(2 * (0.1 + 1e-3), abs=1e-14)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=0, max_value=1e-3))
def test_interpolate_sup_lipschitz(seed, eps):
    g = build_grid(1, 8)
    rng = np.random.default_rng(seed)
    base = rng.normal(size=g.size)
    bump = rng.uniform(-eps, eps, size=g.size)
    pts = rng.uniform(0, 1, size=(20, 1))
    a = interpolate(GridField(g, base), pts)
    b = interpolate(GridField(g, base + bump), pts)
    assert np.max(np.abs(a - b)) <= eps + 1e-15


def test_bilinear_2d_matches_separable_product():
    g = build_grid(2, 8)
    f = GridField.from_function(
        g, lambda X: np.sin(2 * np.pi * X[..., 0]) * np.cos(2 * np.pi * X[..., 1]))
    val = interpolate(f, [0.31, 0.77])
    exact = np.sin(2 * np.pi * 0.31) * np.cos(2 * np.pi * 0.77)
    assert val == pytest.approx(exact, abs=5e-2)


def test_field_validation():
    g = build_grid(1, 4)
    with pytest.raises(DomainError):
        GridField(g, [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        GridField(g, [1.0, np.inf, 0.0, 0.0])
    f = GridField(g, [0.0, 1.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0  # immutable after construction
