"""Hamiltonian/Lagrangian control models on the torus.

A ControlModel bundles the evaluators every solver consumes:

    H(x, p, u)      Hamiltonian, convex/superlinear in p, strictly increasing in u
    L(x, v, u)      conjugate Lagrangian, strictly decreasing in u
    dLdu0(x, v)     the partial derivative dL/du at u = 0 (negative everywhere)
    dHdu0(x, p)     the partial derivative dH/du at u = 0 (positive everywhere)
    sigma(x)        positive weight of the sigma-discounted family
    V(x, lam)       discount-scale potential and its lam -> 0 limit V0(x)

All evaluators broadcast numpy-style: x, p, v have shape (..., d) and u is a
scalar or (...) array; results have shape (...).

Built-in models carry analytic Lagrangians; the numeric Fenchel transform
below exists for user-supplied Hamiltonians and as a cross-check.  It is not
on any hot path.
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

BUILTIN_MODEL_NAMES = ("mechanical", "shifted_quadratic", "arctan_discount", "sigma_discounted")


@dataclass
class ControlModel:
    """Evaluator bundle for one control system.

    c0 holds the critical value of H(.,.,0); it is filled by
    barrier.critical_value (or set analytically in tests) before any
    discounted solve runs.  L_u_part, when present, gives the v-independent
    split L(x,v,u) = L(x,v,0) + L_u_part(x,u) that the solver exploits;
    H_inf_u, when present, evaluates inf_u H(x, 0, u) for the nonexistence
    certificate.
    """

    name: str
    d: int
    H: Callable
    L: Callable
    dLdu0: Callable
    dHdu0: Callable
    sigma: Callable
    V: Callable
    V0: Callable
    c0: Optional[float] = None
    p_box: float = 6.0
    L_u_part: Optional[Callable] = None
    H_inf_u: Optional[Callable] = None
    params: dict = None

    def with_c0(self, c0: float) -> "ControlModel":
        return replace(self, c0=float(c0))

    def L0(self, x, v):
        return self.L(x, v, 0.0)


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
    if vmax <= 0:
        raise ConfigurationError("vmax must be positive")
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


def _as_potential(U, d: int) -> Callable:
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


def builtin_model(name: str, d: int = 1, **params) -> ControlModel:
    """Construct one of the named built-in models.

    mechanical        H = sigma(x) u + |p|^2/2 + U(x)
    shifted_quadratic H = u + |p + alpha|^2/2        (alpha a d-vector)
    arctan_discount   H = arctan(u) + |p|^2,  V = pi/2
    sigma_discounted  H = sigma(x) u + |p|^2/2 + U(x),  V = -sigma(x) phi(x)

    Every built-in carries an analytic Lagrangian and its u-derivative, so no
    numeric conjugation enters the solvers.  `potential` (a callable or
    constant) populates V(x, lam) = potential(x) for the mechanical and
    shifted_quadratic families.
    """
    if name not in BUILTIN_MODEL_NAMES:
        raise ConfigurationError(f"unknown model {name!r}; choose from {BUILTIN_MODEL_NAMES}")

    if name == "shifted_quadratic":
        alpha = np.atleast_1d(np.asarray(params.get("alpha", (np.sqrt(5.0) - 1.0) / 2.0), dtype=float))
        if alpha.size != d:
            raise ConfigurationError(f"alpha must have {d} components")
        Vfun = _as_potential(params.get("potential"), d)

        def H(x, p, u):
            return u + 0.5 * _sq_norm(np.asarray(p) + alpha)

        def L(x, v, u):
            v = np.asarray(v, dtype=float)
            return 0.5 * _sq_norm(v) - v @ alpha - np.asarray(u)

        return ControlModel(
            name=name, d=d, H=H, L=L,
            dLdu0=lambda x, v: -_arc_ones(x, v),
            dHdu0=lambda x, p: _arc_ones(x, p),
            sigma=lambda x: np.ones(np.asarray(x).shape[:-1]),
            V=lambda x, lam: Vfun(x),
            V0=Vfun,
            c0=None,
            L_u_part=lambda x, u: -np.asarray(u) * np.ones(np.asarray(x).shape[:-1]),
            params={"alpha": alpha.copy(), **{k: v for k, v in params.items() if k != "alpha"}},
        )

    if name == "arctan_discount":
        def H(x, p, u):
            return np.arctan(u) + _sq_norm(p)

        def L(x, v, u):
            # sup_p <p,v> - |p|^2 - arctan(u) = |v|^2/4 - arctan(u)
            return 0.25 * _sq_norm(v) - np.arctan(u) * np.ones(np.asarray(x).shape[:-1])

        return ControlModel(
            name=name, d=d, H=H, L=L,
            dLdu0=lambda x, v: -_arc_ones(x, v),
            dHdu0=lambda x, p: _arc_ones(x, p),
            sigma=lambda x: np.ones(np.asarray(x).shape[:-1]),
            V=lambda x, lam: np.full(np.asarray(x).shape[:-1], np.pi / 2),
            V0=lambda x: np.full(np.asarray(x).shape[:-1], np.pi / 2),
            c0=None,
            L_u_part=lambda x, u: -np.arctan(u) * np.ones(np.asarray(x).shape[:-1]),
            H_inf_u=lambda x: np.full(np.asarray(x).shape[:-1], -np.pi / 2),
            params=dict(params),
        )

    # mechanical and sigma_discounted share the dissipative mechanical form.
    Ufun = _as_potential(params.get("U"), d)
    sig = params.get("sigma", 1.0)
    sigfun = _as_potential(sig, d) if not np.isscalar(sig) else (lambda x, _s=float(sig): np.full(np.asarray(x).shape[:-1], _s))
    if name == "sigma_discounted":
        phifun = _as_potential(params.get("phi"), d)
        Vfun = lambda x: -sigfun(x) * phifun(x)
    else:
        Vfun = _as_potential(params.get("potential"), d)

    def H(x, p, u):
        return sigfun(x) * np.asarray(u) + 0.5 * _sq_norm(p) + Ufun(x)

    def L(x, v, u):
        return 0.5 * _sq_norm(v) - Ufun(x) - sigfun(x) * np.asarray(u)

    return ControlModel(
        name=name, d=d, H=H, L=L,
        dLdu0=lambda x, v: -sigfun(x) * _arc_ones(x, v),
        dHdu0=lambda x, p: sigfun(x) * _arc_ones(x, p),
        sigma=sigfun,
        V=lambda x, lam: Vfun(x),
        V0=Vfun,
        c0=None,
        L_u_part=lambda x, u: -sigfun(x) * np.asarray(u),
        params=dict(params),
    )


def discounted_wrapper(model: ControlModel) -> ControlModel:
    """The plainly discounted family  lam*w + H(x, dw, 0) = 0  for a model's H^0.

    Used by the `discount` route to the critical value: lam*w_lam converges to
    -c(H^0).  The wrapper's own critical value is 0 by construction.
    """
    base_L = model.L
    base_H = model.H

    return ControlModel(
        name=f"discounted({model.name})", d=model.d,
        H=lambda x, p, u, _H=base_H: np.asarray(u) + _H(x, p, 0.0),
        L=lambda x, v, u, _L=base_L: _L(x, v, 0.0) - np.asarray(u),
        dLdu0=lambda x, v: -_arc_ones(x, v),
        dHdu0=lambda x, p: _arc_ones(x, p),
        sigma=lambda x: np.ones(np.asarray(x).shape[:-1]),
        V=lambda x, lam: np.zeros(np.asarray(x).shape[:-1]),
        V0=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        c0=0.0,
        L_u_part=lambda x, u: -np.asarray(u) * np.ones(np.asarray(x).shape[:-1]),
        p_box=model.p_box,
        params={"base": model.name},
    )
