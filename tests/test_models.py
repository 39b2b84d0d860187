import numpy as np
import pytest

from torushj.errors import ConfigurationError, FenchelBoxError
from torushj.grids import PeriodicGrid
from torushj.models import (
    ControlModel,
    _arc_ones,
    _as_potential,
    _sq_norm,
    builtin_model,
    discounted_wrapper,
    fenchel_lagrangian,
    velocity_set,
)

ALPHA = (np.sqrt(5.0) - 1.0) / 2.0


def test_velocity_set_examples():
    vs = velocity_set(2.0, 5)
    np.testing.assert_allclose(vs.velocities[:, 0], [-2, -1, 0, 1, 2])
    vs3 = velocity_set(1.0, 3)
    np.testing.assert_allclose(vs3.velocities[:, 0], [-1, 0, 1])
    with pytest.raises(ConfigurationError):
        velocity_set(1.0, 4)


def test_velocity_set_symmetry_and_zero():
    vs = velocity_set(3.0, 9, d=2)
    v = vs.velocities
    assert np.any(np.all(v == 0.0, axis=1))
    # closed under negation
    for row in v:
        assert np.any(np.all(np.isclose(v, -row), axis=1))


def test_fenchel_quadratic_examples():
    # free quadratic: conjugate of |p|^2/2 is |v|^2/2
    m = builtin_model("mechanical", U=None)
    x = np.array([0.3])
    assert fenchel_lagrangian(m, x, [0.0], 0.0, m=129) == pytest.approx(0.0, abs=1e-6)
    m4 = builtin_model("mechanical", U=None)
    m4.p_box = 4.0
    assert fenchel_lagrangian(m4, x, [1.0], 0.0, m=129) == pytest.approx(0.5, abs=1e-3)


def test_fenchel_shifted_quadratic_derived():
    # H = u + |p+a|^2/2 with a = 0.6: L(1, 0) = 1/2 - 0.6 = -0.1
    m = builtin_model("shifted_quadratic", alpha=0.6)
    m.p_box = 4.0
    val = fenchel_lagrangian(m, np.array([0.2]), [1.0], 0.0, m=129)
    assert val == pytest.approx(-0.1, abs=1e-3)


def test_fenchel_box_boundary_error():
    m = builtin_model("mechanical", U=None)
    m.p_box = 0.5
    with pytest.raises(FenchelBoxError):
        fenchel_lagrangian(m, np.array([0.0]), [2.0], 0.0, m=65)


def test_fenchel_young_inequality_sampled():
    rng = np.random.default_rng(3)
    for name, params in (("mechanical", {"U": lambda x: np.cos(2 * np.pi * x[..., 0])}),
                         ("shifted_quadratic", {"alpha": ALPHA}),
                         ("arctan_discount", {})):
        m = builtin_model(name, **params)
        X = rng.uniform(0, 1, size=(40, 1))
        P = rng.uniform(-3, 3, size=(40, 1))
        V = rng.uniform(-3, 3, size=(40, 1))
        for u in (-0.5, 0.0, 0.7):
            lhs = m.L(X, V, u) + m.H(X, P, u)
            rhs = (P * V).sum(axis=-1)
            assert np.all(lhs >= rhs - 1e-9)


def test_monotonicity_transfer_and_derivative_sign():
    grid = PeriodicGrid(1, 16)
    X = grid.node_coords()
    V = np.full_like(X, 0.7)
    for name, params in (("mechanical", {"U": lambda x: np.cos(2 * np.pi * x[..., 0])}),
                         ("shifted_quadratic", {}),
                         ("arctan_discount", {})):
        m = builtin_model(name, **params)
        u1, u2 = -0.4, 0.9
        assert np.all(m.L(X, V, u1) > m.L(X, V, u2))
        assert np.all(m.dLdu0(X, V) < 0)
        assert np.all(m.dHdu0(X, V) > 0)


def test_shifted_quadratic_constant_solution_residual_zero():
    m = builtin_model("shifted_quadratic", alpha=ALPHA)
    X = np.random.default_rng(0).uniform(0, 1, size=(16, 1))
    # constants have du = 0: H(x, 0, 0) equals the critical value exactly
    np.testing.assert_allclose(m.H(X, np.zeros_like(X), 0.0), 0.5 * ALPHA**2)


def test_mechanical_dldu_constant():
    m = builtin_model("mechanical", U=lambda x: np.cos(2 * np.pi * x[..., 0]))
    X = np.linspace(0, 1, 9)[:-1][:, None]
    np.testing.assert_allclose(m.dLdu0(X, np.zeros_like(X)), -1.0)


def test_arctan_bounded_in_u():
    m = builtin_model("arctan_discount")
    X = np.array([[0.1], [0.6]])
    for u in (-1e6, -3.0, 0.0, 3.0, 1e6):
        vals = m.H(X, np.zeros_like(X), u)
        assert np.all(vals > -np.pi / 2) and np.all(vals < np.pi / 2)
    np.testing.assert_allclose(m.H_inf_u(X), -np.pi / 2)


def test_sigma_discounted_potential_is_minus_sigma_phi():
    sig = lambda x: 1.5 + 0.5 * np.cos(2 * np.pi * x[..., 0])
    phi = lambda x: np.sin(2 * np.pi * x[..., 0])
    m = builtin_model("sigma_discounted", U=None, sigma=sig, phi=phi)
    X = np.linspace(0, 1, 17)[:-1][:, None]
    np.testing.assert_allclose(m.V(X, 0.05), -sig(X) * phi(X))
    np.testing.assert_allclose(m.dLdu0(X, np.zeros_like(X)), -sig(X))


def test_potential_converges_along_schedule():
    # built-in potentials are lambda-independent: sup|V(lam) - V0| == 0
    m = builtin_model("mechanical", U=None,
                      potential=lambda x: np.sin(2 * np.pi * x[..., 0]))
    X = np.linspace(0, 1, 33)[:-1][:, None]
    sups = [np.max(np.abs(m.V(X, lam) - m.V0(X))) for lam in (0.1, 0.01, 0.001)]
    assert max(sups) == 0.0


def test_unknown_model_name():
    with pytest.raises(ConfigurationError):
        builtin_model("hamiltonian_of_unusual_size")


# ---------------------------------------------------------------------------
# the retired hand-written constructors, kept as oracles for the u-separable
# form (`models._separable`) that replaced them
# ---------------------------------------------------------------------------

def retired_builtin(name, d=1, **params):
    if name == "shifted_quadratic":
        alpha = np.atleast_1d(np.asarray(params.get("alpha", (np.sqrt(5.0) - 1.0) / 2.0),
                                         dtype=float))
        Vfun = _as_potential(params.get("potential"))

        def H(x, p, u):
            return u + 0.5 * _sq_norm(np.asarray(p) + alpha)

        def L(x, v, u):
            v = np.asarray(v, dtype=float)
            return 0.5 * _sq_norm(v) - v @ alpha - np.asarray(u)

        return ControlModel(
            name=name, d=d, H=H, L=L,
            dLdu0=lambda x, v: -_arc_ones(x, v),
            dHdu0=lambda x, p: _arc_ones(x, p),
            V=lambda x, lam: Vfun(x), V0=Vfun,
            L_u_part=lambda x, u: -np.asarray(u) * np.ones(np.asarray(x).shape[:-1]),
            params={"alpha": alpha.copy(), **{k: v for k, v in params.items() if k != "alpha"}},
        )

    if name == "arctan_discount":
        def H(x, p, u):
            return np.arctan(u) + _sq_norm(p)

        def L(x, v, u):
            return 0.25 * _sq_norm(v) - np.arctan(u) * np.ones(np.asarray(x).shape[:-1])

        return ControlModel(
            name=name, d=d, H=H, L=L,
            dLdu0=lambda x, v: -_arc_ones(x, v),
            dHdu0=lambda x, p: _arc_ones(x, p),
            V=lambda x, lam: np.full(np.asarray(x).shape[:-1], np.pi / 2),
            V0=lambda x: np.full(np.asarray(x).shape[:-1], np.pi / 2),
            L_u_part=lambda x, u: -np.arctan(u) * np.ones(np.asarray(x).shape[:-1]),
            H_inf_u=lambda x: np.full(np.asarray(x).shape[:-1], -np.pi / 2),
            params=dict(params),
        )

    Ufun = _as_potential(params.get("U"))
    sigfun = _as_potential(params.get("sigma", 1.0))
    if name == "sigma_discounted":
        phifun = _as_potential(params.get("phi"))
        Vfun = lambda x: -sigfun(x) * phifun(x)
    else:
        Vfun = _as_potential(params.get("potential"))

    def H(x, p, u):
        return sigfun(x) * np.asarray(u) + 0.5 * _sq_norm(p) + Ufun(x)

    def L(x, v, u):
        return 0.5 * _sq_norm(v) - Ufun(x) - sigfun(x) * np.asarray(u)

    return ControlModel(
        name=name, d=d, H=H, L=L,
        dLdu0=lambda x, v: -sigfun(x) * _arc_ones(x, v),
        dHdu0=lambda x, p: sigfun(x) * _arc_ones(x, p),
        V=lambda x, lam: Vfun(x), V0=Vfun,
        L_u_part=lambda x, u: -sigfun(x) * np.asarray(u),
        params=dict(params),
    )


def retired_discounted_wrapper(model):
    return ControlModel(
        name=f"discounted({model.name})", d=model.d,
        H=lambda x, p, u: np.asarray(u) + model.H(x, p, 0.0),
        L=lambda x, v, u: model.L(x, v, 0.0) - np.asarray(u),
        dLdu0=lambda x, v: -_arc_ones(x, v),
        dHdu0=lambda x, p: _arc_ones(x, p),
        V=lambda x, lam: np.zeros(np.asarray(x).shape[:-1]),
        V0=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        c0=0.0,
        L_u_part=lambda x, u: -np.asarray(u) * np.ones(np.asarray(x).shape[:-1]),
        p_box=model.p_box,
        params={"base": model.name},
    )


def _separable_cases(d):
    """(name, params) of every built-in at dimension d, with x-dependent
    potentials and an x-dependent sigma for sigma_discounted."""
    wave = lambda x: np.cos(2 * np.pi * x.sum(axis=-1)) + 0.3 * np.sin(2 * np.pi * x[..., 0])
    sigma = lambda x: 1.5 + 0.5 * np.cos(2 * np.pi * x[..., -1])
    phi = lambda x: np.sin(2 * np.pi * x[..., 0]) - 0.2
    return [
        ("mechanical", {"U": wave, "potential": phi}),
        ("mechanical", {"U": 0.7, "sigma": 2.5}),
        ("shifted_quadratic", {"alpha": np.linspace(0.3, 0.7, d), "potential": phi}),
        ("shifted_quadratic", {"alpha": np.full(d, 0.6180339887498949)}),
        ("arctan_discount", {}),
        ("sigma_discounted", {"U": wave, "sigma": sigma, "phi": phi}),
    ]


def _model_pairs(d):
    for name, params in _separable_cases(d):
        new, old = builtin_model(name, d=d, **params), retired_builtin(name, d=d, **params)
        yield f"{name}{sorted(params)}", new, old
        yield f"discounted({name})", discounted_wrapper(new), retired_discounted_wrapper(old)


def _random_points(d, seed, S=300):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(S, d))
    v = rng.uniform(-3, 3, size=(S, d))
    p = rng.uniform(-4, 4, size=(S, d))
    u = rng.normal(0, 2, size=S) * rng.choice([1e-3, 1.0, 30.0], size=S)
    return x, v, p, u


def _bits(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("d", [1, 2])
def test_separable_form_matches_the_retired_constructors(d):
    x, v, p, u = _random_points(d, seed=10 + d)
    zero_u, zero_p = np.zeros_like(u), np.zeros_like(p)
    for label, new, old in _model_pairs(d):
        assert (new.name, new.d, new.c0, new.p_box) == (old.name, old.d, old.c0, old.p_box)
        assert new.params.keys() == old.params.keys(), label
        for lam in (0.0, 0.01, 0.5):
            assert _bits(new.V(x, lam), old.V(x, lam)), label
        pairs = [
            (new.L(x, v, u), old.L(x, v, u)),
            (new.L(x, v, 0.0), old.L(x, v, 0.0)),
            (new.dLdu0(x, v), old.dLdu0(x, v)),
            (new.dHdu0(x, p), old.dHdu0(x, p)),
            (new.L_u_part(x, u), old.L_u_part(x, u)),
            (new.V0(x), old.V0(x)),
            (new.H(x, p, zero_u), old.H(x, p, zero_u)),
            (new.H(x, p, 0.0), old.H(x, p, 0.0)),
            (new.H(x, zero_p, u), old.H(x, zero_p, u)),
        ]
        for i, (a, b) in enumerate(pairs):
            assert _bits(a, b), (label, i)
        # every built-in phi increases in u: a model that left the infimum
        # to sampling now has inf_u H(x, 0, u) = -inf
        want = old.H_inf_u(x) if old.H_inf_u is not None else np.full(len(x), -np.inf)
        assert _bits(new.H_inf_u(x), want), label
        # elsewhere H may differ in the last bit: phi + (H0) against (phi + a) + b
        scale = (np.abs(new.L_u_part(x, u)) + np.abs(new.H(x, p, 0.0))
                 + np.abs(old.H(x, zero_p, 0.0)))
        assert np.all(np.abs(new.H(x, p, u) - old.H(x, p, u)) <= 4 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("d", [1, 2])
def test_separable_u_part_and_slope_agree_with_L(d):
    x, v, p, u = _random_points(d, seed=20 + d)
    eps = np.finfo(float).eps
    step = 1e-4
    for label, model, _ in _model_pairs(d):
        L_u, L_0 = model.L(x, v, u), model.L(x, v, 0.0)
        part = model.L_u_part(x, u)
        assert np.all(np.abs(part - (L_u - L_0)) <= 2 * eps * (np.abs(L_u) + np.abs(L_0))), label
        central = (model.L(x, v, step) - model.L(x, v, -step)) / (2 * step)
        slope = model.dLdu0(x, v)
        tol = 1e-7 * np.abs(slope) + 4 * eps * np.abs(L_0) / step
        assert np.all(np.abs(central - slope) <= tol), label
        assert np.all(slope < 0) and np.all(model.dHdu0(x, p) == -slope), label


def test_separable_form_on_the_solver_shapes():
    """The arc-shaped calls of the solver and the bracket: x (N, d) against
    velocities or momenta (P, 1, d) and foot values (K, N)."""
    grid, vs = PeriodicGrid(2, 6), velocity_set(2.0, 3, d=2)
    X = grid.node_coords()
    P = np.linspace(-2, 2, 5)[:, None, None] * np.ones(2)
    fv = np.random.default_rng(5).normal(size=(vs.count, grid.size))
    for label, new, old in _model_pairs(2):
        assert np.array_equal(new.L_u_part(X, fv), old.L_u_part(X, fv)), label
        assert np.array_equal(new.L(X[None], vs.velocities[:, None], fv),
                              old.L(X[None], vs.velocities[:, None], fv)), label
        a, b = new.H(X[None], P, 0.0), old.H(X[None], P, 0.0)
        assert np.array_equal(a, np.broadcast_to(b, a.shape)), label
        assert np.array_equal(new.dLdu0(X[None], P), old.dLdu0(X[None], P)), label
