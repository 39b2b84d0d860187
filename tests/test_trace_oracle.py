"""`backward_calibrated_curve` against the per-step loop it replaced, kept
here as its oracle: the same velocity path, the same points, weights,
defects, actions and dL/du within 1e-12, and CalibrationError on the same
inputs, for random smooth fields and potentials at d = 1 and 2, integer-hop
and off-lattice time steps, starts on and off nodes, and lam = 0 and > 0."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_peierls_exact import smooth_potential
from torushj.curves import CurveTrace, _kink_scale, backward_calibrated_curve
from torushj.errors import CalibrationError
from torushj.grids import GridField, build_grid, interpolate, interpolation_stencil, wrap_points
from torushj.models import builtin_model, velocity_set
from torushj.solver import Transition, default_dt, solve_perturbed

FIELDS = ("points", "weights", "defects", "actions", "dl0")


def reference_backward_calibrated_curve(model, lam, u, x, Tmax, dt, vset,
                                        solver_tol=1e-8, defect_tol=None):
    """The retired trace loop: per step it wraps and interpolates all K feet,
    evaluates L on K copies of the point, V at the point and dL/du at the
    chosen arc, interpolates u at the point again, and grows the weight."""
    grid = u.grid
    lam = float(lam)
    steps = int(np.floor(Tmax / dt + 1e-12))
    vels = vset.velocities
    K = vset.count
    lattice_steps = Transition(grid, vset, dt).integer_hops
    y = wrap_points(np.asarray(x, dtype=float), grid.d)
    start_on_node = bool(np.max(np.abs(y * grid.n - np.rint(y * grid.n))) < 1e-9)
    on_lattice = lattice_steps and start_on_node
    if on_lattice:
        y = np.rint(y * grid.n) / grid.n
    if defect_tol is None:
        defect_tol = 10.0 * solver_tol * dt
        if not on_lattice:
            defect_tol += 10.0 * (_kink_scale(u) + dt * grid.h)

    pts = np.empty((steps + 1, grid.d))
    vel = np.empty((steps, grid.d))
    vidx = np.empty(steps, dtype=int)
    W = np.empty(steps + 1)
    defects, actions, dl0 = np.empty(steps), np.empty(steps), np.empty(steps)
    pts[0] = y
    W[0] = 1.0
    yk = np.empty((K, grid.d))
    for k in range(steps):
        yk[:] = y
        feet = wrap_points(y[None, :] - vels * dt, grid.d)
        idx, w = interpolation_stencil(grid, feet)
        fv = np.sum(u.values[idx] * w, axis=-1)
        Lv = np.asarray(model.L(yk, vels, lam * fv), dtype=float)
        Vy = float(model.V(y[None, :], lam)[0]) if lam != 0.0 else 0.0
        cand = dt * (Lv - lam * Vy + model.c0) + fv
        j = int(np.argmin(cand))
        uy = interpolate(u, y)
        defects[k] = abs(uy - cand[j])
        actions[k] = dt * (float(Lv[j]) - lam * Vy + model.c0)
        dl0[k] = float(np.asarray(model.dLdu0(y[None, :], vels[j][None, :]))[0])
        vel[k] = vels[j]
        vidx[k] = j
        W[k + 1] = W[k] * np.exp(lam * dl0[k] * dt)
        y = feet[j]
        if on_lattice:
            y = np.rint(y * grid.n) / grid.n
            y[y >= 1.0] = 0.0
        pts[k + 1] = y
    if steps > 0 and float(np.mean(defects > defect_tol)) > 0.05:
        raise CalibrationError("field not converged")
    return CurveTrace(lam=lam, dt=dt, horizon=steps * dt, points=pts,
                      velocities=vel, vel_indices=vidx, weights=W,
                      defects=defects, actions=actions, dl0=dl0,
                      on_lattice=on_lattice, defect_tol=defect_tol)


def random_model(name, d, seed):
    """A built-in model with smooth random potentials; V is nonzero for all
    but arctan_discount, whose V is the constant pi/2."""
    rng = np.random.default_rng(seed)
    U, phi = smooth_potential(seed, d), smooth_potential(seed + 1, d)
    bump = smooth_potential(seed + 2, d)
    sigma = lambda x: 1.0 + 0.1 * np.tanh(bump(x))
    if name == "mechanical":
        model = builtin_model(name, d=d, U=U, potential=phi, sigma=sigma)
    elif name == "sigma_discounted":
        model = builtin_model(name, d=d, U=U, phi=phi, sigma=sigma)
    elif name == "shifted_quadratic":
        model = builtin_model(name, d=d, alpha=rng.uniform(-1.0, 1.0, size=d), potential=phi)
    else:
        model = builtin_model(name, d=d)
    return model.with_c0(float(rng.uniform(-1.0, 1.0)))


def trace_or_none(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CalibrationError:
        return None


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2]),
       name=st.sampled_from(["mechanical", "sigma_discounted", "shifted_quadratic",
                             "arctan_discount"]),
       seed=st.integers(0, 10**6),
       dt_mode=st.sampled_from(["default", "doubled", "off_lattice"]),
       on_node=st.booleans(),
       lam=st.one_of(st.just(0.0), st.floats(0.1, 4.0)),
       steps=st.integers(1, 80),
       start=st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)),
       cut=st.floats(0.0, 1.0))
def test_trace_matches_the_retired_loop(d, name, seed, dt_mode, on_node, lam, steps,
                                        start, cut):
    n, m = (24, 9) if d == 1 else (10, 5)
    grid, vset = build_grid(d, n), velocity_set(2.0, m, d)
    dt = default_dt(grid, vset) * {"default": 1.0, "doubled": 2.0, "off_lattice": 0.77}[dt_mode]
    model = random_model(name, d, seed)
    u = GridField.from_function(grid, lambda X: 0.3 * smooth_potential(seed + 3, d)(X))
    cell, frac = np.divmod(np.asarray(start[:d]) * n, 1.0)
    x = (cell if on_node else cell + 0.05 + 0.9 * frac) / n
    Tmax = (steps + 0.5) * dt
    args = (model, lam, u, x, Tmax, dt, vset)

    ref = reference_backward_calibrated_curve(*args, defect_tol=np.inf)
    new = backward_calibrated_curve(*args, defect_tol=np.inf)
    assert new.steps == ref.steps == steps
    assert new.on_lattice == ref.on_lattice == (on_node and dt_mode != "off_lattice")
    assert np.array_equal(new.vel_indices, ref.vel_indices)
    assert np.array_equal(new.velocities, ref.velocities)
    for f in FIELDS:
        assert getattr(new, f).shape == getattr(ref, f).shape, f
        assert np.max(np.abs(getattr(new, f) - getattr(ref, f))) <= 1e-12, f

    # CalibrationError on the same inputs: the default tolerance, and one
    # halfway between two of the oracle's defects, which puts the share of
    # steps above it on either side of the 5 % limit.
    assert ((trace_or_none(backward_calibrated_curve, *args) is None)
            == (trace_or_none(reference_backward_calibrated_curve, *args) is None))
    levels = np.unique(ref.defects)
    if levels.size > 1:
        i = min(int(cut * (levels.size - 1)), levels.size - 2)
        tol = 0.5 * (levels[i] + levels[i + 1])
        assert ((trace_or_none(backward_calibrated_curve, *args, defect_tol=tol) is None)
                == (trace_or_none(reference_backward_calibrated_curve, *args, defect_tol=tol) is None))


@pytest.mark.parametrize("d", [1, 2])
def test_solved_field_trace_matches_the_retired_loop(d):
    """A converged field, where the defects sit at the solver tolerance and
    the default defect tolerance passes."""
    n, m = (32, 17) if d == 1 else (12, 7)
    grid, vset = build_grid(d, n), velocity_set(2.0, m, d)
    model = random_model("mechanical", d, 7)
    for dt in (default_dt(grid, vset), 0.77 * default_dt(grid, vset)):
        fld, rep = solve_perturbed(model, 0.5, grid, vset, dt=dt, tol=1e-10)
        assert rep.converged
        args = (model, 0.5, fld, grid.node_coords()[5], 60 * dt, dt, vset)
        ref = reference_backward_calibrated_curve(*args, solver_tol=1e-10)
        new = backward_calibrated_curve(*args, solver_tol=1e-10)
        assert np.array_equal(new.vel_indices, ref.vel_indices)
        for f in FIELDS:
            assert np.max(np.abs(getattr(new, f) - getattr(ref, f))) <= 1e-12, f
