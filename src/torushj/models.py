"""Hamiltonian/Lagrangian control models on the torus.

A ControlModel bundles the evaluators every solver consumes:

    H(x, p, u)      Hamiltonian, convex/superlinear in p, strictly increasing in u
    L(x, v, u)      conjugate Lagrangian, strictly decreasing in u
    dLdu0(x, v)     the partial derivative dL/du at u = 0 (negative everywhere)
    dHdu0(x, p)     the partial derivative dH/du at u = 0 (positive everywhere)
    V(x, lam)       discount-scale potential and its lam -> 0 limit V0(x)

All evaluators broadcast numpy-style: x, p, v have shape (..., d) and u is a
scalar or (...) array; results have shape (...).  The discount weight
sigma = -dL/du(x, v, 0) of the sigma-discounted family is read through dLdu0.

Every built-in model is u-separable, H = phi(x, u) + H0(x, p), and carries
the analytic Lagrangian L = L0(x, v) - phi(x, u); the numeric Fenchel
transform below serves user-supplied Hamiltonians and cross-checks only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, FenchelBoxError
from .grids import product_lattice

__all__ = [
    "ControlModel",
    "VelocitySet",
    "velocity_set",
    "fenchel_lagrangian",
    "builtin_model",
    "discounted_wrapper",
    "BUILTIN_MODEL_NAMES",
]

# built-in model -> the keyword parameters it reads; `builtin_model` refuses any other
_MODEL_KEYS = {"mechanical": ("U", "sigma", "potential"),
               "shifted_quadratic": ("alpha", "potential"),
               "arctan_discount": (),
               "sigma_discounted": ("U", "sigma", "phi")}
BUILTIN_MODEL_NAMES = tuple(_MODEL_KEYS)


@dataclass
class ControlModel:
    """Evaluator bundle for one control system.

    c0 holds the critical value of H(.,.,0) and is the solvers' only source
    of it; the pipelines set it from the critical polytope
    (`model.with_c0(poly.c)`, see matherlp.build_polytope) before any
    discounted solve runs.  L_u_part, when present, gives the v-independent
    split L(x,v,u) = L(x,v,0) + L_u_part(x,u) that the solver exploits;
    H_inf_u evaluates inf_u H(x, 0, u) for the nonexistence certificate,
    which refuses a model without it.
    """

    name: str
    d: int
    H: Callable
    L: Callable
    dLdu0: Callable
    dHdu0: Callable
    V: Callable
    V0: Callable
    c0: Optional[float] = None
    p_box: float = 6.0
    L_u_part: Optional[Callable] = None
    H_inf_u: Optional[Callable] = None
    params: dict = None

    def with_c0(self, c0: float) -> "ControlModel":
        return replace(self, c0=float(c0))


@dataclass(frozen=True)
class VelocitySet:
    """Finite symmetric velocity lattice, ascending lexicographic order.

    Contains the zero velocity and is closed under negation; `spacing` is the
    per-axis lattice step.  Ordering matters: argmin ties in the solvers break
    toward the lowest index, which keeps golden outputs stable.
    """

    velocities: np.ndarray
    vmax: float
    m_per_axis: int

    def __post_init__(self):
        v = np.asarray(self.velocities, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "velocities", v)

    @property
    def count(self) -> int:
        return self.velocities.shape[0]

    @property
    def d(self) -> int:
        return self.velocities.shape[1]

    @property
    def spacing(self) -> float:
        return 2.0 * self.vmax / (self.m_per_axis - 1)

    @property
    def zero_index(self) -> int:
        return int(np.argmin(np.sum(np.abs(self.velocities), axis=1)))

    def speeds(self) -> np.ndarray:
        return np.sqrt(np.sum(self.velocities**2, axis=1))


def velocity_set(vmax: float, m_per_axis: int, d: int = 1) -> VelocitySet:
    """Uniform symmetric velocity lattice {-vmax, ..., vmax}^d.

    m_per_axis must be odd (so the zero velocity is a lattice point) and at
    least 3.
    """
    if not (np.isfinite(vmax) and vmax > 0):
        raise ConfigurationError(f"vmax must be positive and finite, got {vmax:g}")
    if m_per_axis % 2 == 0:
        raise ConfigurationError(f"velocity count per axis must be odd, got {m_per_axis}")
    if m_per_axis < 3:
        raise ConfigurationError("need at least 3 velocities per axis")
    if d not in (1, 2):
        raise ConfigurationError("velocity sets support d in {1, 2}")
    vel = product_lattice(np.linspace(-vmax, vmax, m_per_axis), d)
    return VelocitySet(velocities=vel, vmax=float(vmax), m_per_axis=m_per_axis)


def fenchel_lagrangian(model: ControlModel, x, v, u: float, m: int = 129) -> float:
    """Numeric Legendre-Fenchel transform  sup_p <p,v> - H(x,p,u).

    Maximizes over an m^d lattice in [-p_box, p_box]^d.  Raises
    FenchelBoxError when the argmax sits on the box boundary (the
    superlinearity budget p_box was too small for this v).
    """
    if m < 33:
        raise ConfigurationError("need at least 33 momentum samples per axis")
    x = np.asarray(x, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    P = product_lattice(np.linspace(-model.p_box, model.p_box, m), model.d)
    X = np.broadcast_to(x, P.shape).copy()
    vals = P @ v - model.H(X, P, u)
    k = int(np.argmax(vals))
    on_boundary = np.any(np.isclose(np.abs(P[k]), model.p_box))
    if on_boundary:
        raise FenchelBoxError(
            f"conjugate argmax at momentum {P[k]} on the search box boundary; "
            f"increase p_box (currently {model.p_box})"
        )
    return float(vals[k])


def _as_potential(U) -> Callable:
    """Normalize a potential spec (None, scalar, or callable on (...,d))."""
    if U is None:
        return lambda x: np.zeros(np.asarray(x).shape[:-1])
    if np.isscalar(U):
        c = float(U)
        return lambda x: np.full(np.asarray(x).shape[:-1], c)
    return U


def _arc_ones(x, y) -> np.ndarray:
    """Ones in the broadcast shape of points x (..., d) and velocities or
    momenta y (..., d), without their last axis."""
    return np.ones(np.broadcast(np.asarray(x)[..., 0], np.asarray(y)[..., 0]).shape)


def _sq_norm(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return (a * a).sum(axis=-1)


def _separable(name: str, d: int, H0: Callable, L0: Callable, phi: Callable,
               sigma: Callable, V0: Callable, **fields) -> ControlModel:
    """The u-separable model H = phi(x, u) + H0(x, p), L = L0(x, v) - phi(x, u),
    with L0 the conjugate of H0, phi(x, 0) = 0 and sigma = dphi/du(x, 0) > 0;
    V(x, lam) = V0(x).  phi increases in u, so inf_u H(x, 0, u) is
    H_inf_u(x) = phi(x, -inf) + H0(x, 0).  `fields` sets c0, p_box and params."""
    return ControlModel(
        name=name, d=d,
        H=lambda x, p, u: phi(x, u) + H0(x, p),
        L=lambda x, v, u: L0(x, v) - phi(x, u),
        dLdu0=lambda x, v: -sigma(x) * _arc_ones(x, v),
        dHdu0=lambda x, p: sigma(x) * _arc_ones(x, p),
        V=lambda x, lam: V0(x),
        V0=V0,
        L_u_part=lambda x, u: -phi(x, u),
        H_inf_u=lambda x: phi(x, -np.inf) + H0(x, np.zeros_like(x, dtype=float)),
        **fields,
    )


def builtin_model(name: str, d: int = 1, **params) -> ControlModel:
    """One of the named built-in models.  Each is u-separable (`_separable`),
    with the analytic conjugate L0 of H0, so no numeric conjugation enters
    the solvers:

    mechanical        phi = sigma(x) u,  H0 = |p|^2/2 + U(x)
    shifted_quadratic phi = u,           H0 = |p + alpha|^2/2   (alpha a d-vector)
    arctan_discount   phi = arctan(u),   H0 = |p|^2,  V = pi/2
    sigma_discounted  phi = sigma(x) u,  H0 = |p|^2/2 + U(x),  V = -sigma(x) phi(x)

    `potential` (a callable or constant) populates V(x, lam) = potential(x)
    for the mechanical and shifted_quadratic families.  A parameter that the
    named model does not read (`_MODEL_KEYS`) raises ConfigurationError.
    """
    if name not in BUILTIN_MODEL_NAMES:
        raise ConfigurationError(f"unknown model {name!r}; choose from {BUILTIN_MODEL_NAMES}")
    unread = sorted(set(params) - set(_MODEL_KEYS[name]))
    if unread:
        raise ConfigurationError(f"model {name!r} reads no parameter {unread[0]!r}")
    # phi = u does not broadcast over x, so that an x-free H0 keeps H free of x
    phi, sigma = (lambda x, u: np.asarray(u)), _as_potential(1.0)
    V0 = _as_potential(params.get("potential"))
    fields = {"params": dict(params)}
    if name == "shifted_quadratic":
        alpha = np.atleast_1d(np.asarray(params.get("alpha", (np.sqrt(5.0) - 1.0) / 2.0), dtype=float))
        if alpha.size != d:
            raise ConfigurationError(f"alpha must have {d} components")
        H0 = lambda x, p: 0.5 * _sq_norm(np.asarray(p) + alpha)
        L0 = lambda x, v: 0.5 * _sq_norm(v) - np.asarray(v, dtype=float) @ alpha
        fields["params"] = {"alpha": alpha.copy(),
                            **{k: v for k, v in params.items() if k != "alpha"}}
    elif name == "arctan_discount":
        # sup_p <p,v> - |p|^2 = |v|^2/4
        H0, L0 = (lambda x, p: _sq_norm(p)), (lambda x, v: 0.25 * _sq_norm(v))
        phi, V0 = (lambda x, u: np.arctan(u)), _as_potential(np.pi / 2)
    else:       # mechanical and sigma_discounted: the dissipative mechanical form
        U, sigma = _as_potential(params.get("U")), _as_potential(params.get("sigma", 1.0))
        H0 = lambda x, p: 0.5 * _sq_norm(p) + U(x)
        L0 = lambda x, v: 0.5 * _sq_norm(v) - U(x)
        phi = lambda x, u: sigma(x) * np.asarray(u)
        if name == "sigma_discounted":
            phifun = _as_potential(params.get("phi"))
            V0 = lambda x: -sigma(x) * phifun(x)
    return _separable(name, d, H0, L0, phi, sigma, V0, **fields)


def discounted_wrapper(model: ControlModel) -> ControlModel:
    """The plainly discounted family  lam*w + H(x, dw, 0) = 0  of a model's
    H^0, whose own critical value is 0: the `discount` route to the critical
    value reads -c(H^0) off lam*w_lam."""
    return _separable(f"discounted({model.name})", model.d,
                      lambda x, p: model.H(x, p, 0.0), lambda x, v: model.L(x, v, 0.0),
                      lambda x, u: np.asarray(u), _as_potential(1.0), _as_potential(None),
                      c0=0.0, p_box=model.p_box, params={"base": model.name})
