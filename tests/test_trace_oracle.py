"""`backward_calibrated_curve` against the loops it replaced, kept here as
its oracles, for random smooth fields and potentials at d = 1 and 2,
integer-hop and off-lattice time steps, starts on and off nodes, and lam = 0
and > 0.

Against the retired per-step loop: the same velocity path, the same points,
weights, defects, actions and dL/du within 1e-12, and CalibrationError on the
same inputs.  Against the lean loop (one foot stencil and one L call per
step), which the speculative block loop replaced: every CurveTrace field bit
for bit, on traces of up to 2,000 steps with velocity runs longer than the
block cap, switches inside blocks and wraps of the torus inside blocks, and
on solved fields whose traces move and then rest, where the loop fills the
rest of the trace instead of checking it."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_peierls_exact import smooth_potential
from torushj import experiments
from torushj.curves import BLOCK_CAP, CurveTrace, _kink_scale, backward_calibrated_curve
from torushj.errors import CalibrationError
from torushj.grids import GridField, PeriodicGrid, interpolate, interpolation_stencil
from torushj.models import builtin_model, velocity_set
from torushj.solver import Transition, default_dt, solve_perturbed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIELDS = ("points", "weights", "defects", "actions", "dl0")
ALL_FIELDS = FIELDS + ("velocities", "vel_indices", "lam", "dt", "horizon",
                       "on_lattice", "defect_tol", "rests")


def mod_wrap(x):
    """The oracles' own torus wrap, np.mod(x, 1.0) with 1.0 folded to 0.0,
    independent of the `grids.wrap_unit` that the traces use."""
    x = np.mod(x, 1.0)
    x[x >= 1.0] = 0.0
    return x


def bits_repeat(rows, row):
    """Whether every entry of rows is `row`, bit for bit."""
    rows, row = np.asarray(rows), np.asarray(row)
    return rows.tobytes() == np.broadcast_to(row, rows.shape).tobytes()


def cut_at_rest(pts, *per_step):
    """The points (S+1, d) and per-step arrays (S, ...) of a trace run to its
    horizon, cut after its first rest step r, the first step back at its own
    point, bit for bit, and whether it has one.  Every step after r repeats
    step r, bit for bit, and every point after it the rest point."""
    r = rest_step(pts)
    if r is None:
        return (pts, *per_step, False)
    assert bits_repeat(pts[r + 1:], pts[r + 1])
    for a in per_step:
        assert bits_repeat(a[r + 1:], a[r])
    return (pts[:r + 2], *(a[:r + 1] for a in per_step), True)


def rest_step(pts):
    """The first step of the points (S+1, d) back at its own point, bit for
    bit, or None."""
    bits = pts.view(np.int64)
    same = (bits[1:] == bits[:-1]).all(axis=1)
    return int(same.argmax()) if same.any() else None


def reference_backward_calibrated_curve(model, lam, u, x, Tmax, arcs,
                                        solver_tol=1e-8, defect_tol=None):
    """The retired trace loop: per step it wraps and interpolates all K feet,
    evaluates L on K copies of the point, V at the point and dL/du at the
    chosen arc, interpolates u at the point again, and grows the weight.
    The trace and the calibration verdict are those of its steps up to the
    first rest step (`cut_at_rest`), the loop run to the horizon all the
    same."""
    grid, dt = u.grid, arcs.dt
    lam = float(lam)
    steps = int(np.floor(Tmax / dt + 1e-12))
    vels = arcs.vset.velocities
    K = arcs.vset.count
    y = mod_wrap(np.asarray(x, dtype=float))
    start_on_node = bool(np.max(np.abs(y * grid.n - np.rint(y * grid.n))) < 1e-9)
    on_lattice = arcs.integer_hops and start_on_node
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
        feet = mod_wrap(y[None, :] - vels * dt)
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
    pts, vel, vidx, defects, actions, dl0, rests = cut_at_rest(
        pts, vel, vidx, defects, actions, dl0)
    steps = len(vidx)
    W = W[:steps + 1]
    if steps > 0 and float(np.mean(defects > defect_tol)) > 0.05:
        raise CalibrationError("field not converged")
    return CurveTrace(lam=lam, arcs=arcs, points=pts, velocities=vel,
                      vel_indices=vidx, weights=W, defects=defects,
                      actions=actions, dl0=dl0, on_lattice=on_lattice,
                      defect_tol=defect_tol, rests=rests)


def point_sampler(arcs, values, snap):
    """The lean loop's foot stencil of one point y (d,): feet (K, d) and
    values (K,), with the arithmetic of `Transition.foot_sampler`."""
    n, d = arcs.grid.n, arcs.grid.d
    vdt = arcs.vset.velocities * arcs.dt
    if d == 1:
        vdt = vdt[:, 0]
    pad = np.pad(values.reshape((n,) * d), (0, 2), mode="wrap").ravel()
    row = n + 2

    def feet_at(y):
        feet = mod_wrap(y - vdt)
        if snap:
            feet = np.rint(feet * n) / n
            feet[feet >= 1.0] = 0.0
        s = feet * n
        i = s.astype(np.intp)
        t = s - i
        if d == 1:
            return feet[:, None], pad[i] * (1.0 - t) + pad[i + 1] * t
        a = i[:, 0] * row + i[:, 1]
        s, t = t[:, 0], t[:, 1]
        return feet, (pad[a] * ((1 - s) * (1 - t)) + pad[a + 1] * ((1 - s) * t)
                      + pad[a + row] * (s * (1 - t)) + pad[a + row + 1] * (s * t))

    return feet_at


def lean_backward_calibrated_curve(model, lam, u, x, Tmax, arcs,
                                   solver_tol=1e-8, defect_tol=None, at_rest=False):
    """The retired lean loop: per step one foot stencil, one call of L with
    all K velocities and an argmin; everything else after the loop.  With
    at_rest, cut at the first rest step as the reference loop is."""
    grid = u.grid
    lam, dt, c0 = float(lam), arcs.dt, model.c0
    steps = int(np.floor(Tmax / dt + 1e-12))
    vels = arcs.vset.velocities
    y = mod_wrap(np.asarray(x, dtype=float))
    start_on_node = bool(np.max(np.abs(y * grid.n - np.rint(y * grid.n))) < 1e-9)
    on_lattice = arcs.integer_hops and start_on_node
    if on_lattice:
        y = np.rint(y * grid.n) % grid.n / grid.n
    if defect_tol is None:
        defect_tol = 10.0 * solver_tol * dt
        if not on_lattice:
            defect_tol += 10.0 * (_kink_scale(u) + dt * grid.h)

    pts = np.empty((steps + 1, grid.d))
    vidx = np.empty(steps, dtype=int)
    Lj, uj = np.empty(steps), np.empty(steps)
    pts[0] = y
    feet_at = point_sampler(arcs, u.values, on_lattice)
    for k in range(steps):
        feet, fv = feet_at(y)
        Lv = model.L(y[None, :], vels, lam * fv)
        j = int((dt * (Lv + c0) + fv).argmin())
        vidx[k], Lj[k], uj[k] = j, Lv[j], fv[j]
        y = pts[k + 1] = feet[j]

    X, vel = pts[:-1], vels[vidx]
    Vx = np.asarray(model.V(X, lam), dtype=float) if lam != 0.0 else 0.0
    actions = dt * (Lj - lam * Vx + c0)
    u_here = np.concatenate(([interpolate(u, pts[0])], uj[:-1])) if steps else uj
    defects = np.abs(u_here - (actions + uj))
    dl0 = np.asarray(model.dLdu0(X, vel), dtype=float)
    W = np.ones(steps + 1)
    np.cumprod(np.exp(lam * dl0 * dt), out=W[1:])
    rests = False
    if at_rest:
        pts, vel, vidx, defects, actions, dl0, rests = cut_at_rest(
            pts, vel, vidx, defects, actions, dl0)
        steps = len(vidx)
        W = W[:steps + 1]
    if steps > 0 and float(np.mean(defects > defect_tol)) > 0.05:
        raise CalibrationError("field not converged")
    return CurveTrace(lam=lam, arcs=arcs, points=pts, velocities=vel,
                      vel_indices=vidx, weights=W, defects=defects,
                      actions=actions, dl0=dl0, on_lattice=on_lattice,
                      defect_tol=defect_tol, rests=rests)


def assert_bit_identical(new, ref):
    for f in ALL_FIELDS:
        a, b = getattr(new, f), getattr(ref, f)
        assert np.shape(a) == np.shape(b), f
        assert np.array_equal(a, b), f


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


def trace_case(d, name, seed, dt_mode, on_node, amp, start):
    """Model, field, start and kernel of one random trace.  The field is
    amp times a smooth random function; amp = 0 makes the argmin the same at
    every point, so velocity runs last the whole trace."""
    n, m = (24, 9) if d == 1 else (10, 5)
    grid, vset = PeriodicGrid(d, n), velocity_set(2.0, m, d)
    dt = default_dt(grid, vset) * {"default": 1.0, "doubled": 2.0, "off_lattice": 0.77,
                                   "small": 0.013}[dt_mode]
    model = random_model(name, d, seed)
    u = GridField.from_function(grid, lambda X: amp * smooth_potential(seed + 3, d)(X))
    cell, frac = np.divmod(np.asarray(start[:d]) * n, 1.0)
    x = (cell if on_node else cell + 0.05 + 0.9 * frac) / n
    return model, u, x, Transition(grid, vset, dt)


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
    model, u, x, arcs = trace_case(d, name, seed, dt_mode, on_node, 0.3, start)
    args = (model, lam, u, x, (steps + 0.5) * arcs.dt, arcs)

    ref = reference_backward_calibrated_curve(*args, defect_tol=np.inf)
    new = backward_calibrated_curve(*args, defect_tol=np.inf)
    assert new.steps == ref.steps <= steps and new.rests == ref.rests
    assert new.rests or new.steps == steps
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
    grid, vset = PeriodicGrid(d, n), velocity_set(2.0, m, d)
    model = random_model("mechanical", d, 7)
    for dt in (default_dt(grid, vset), 0.77 * default_dt(grid, vset)):
        arcs = Transition(grid, vset, dt)
        fld, rep = solve_perturbed(model, 0.5, arcs, tol=1e-10)
        assert rep.converged
        args = (model, 0.5, fld, grid.node_coords()[5], 60 * dt, arcs)
        ref = reference_backward_calibrated_curve(*args, solver_tol=1e-10)
        new = backward_calibrated_curve(*args, solver_tol=1e-10)
        assert new.rests == ref.rests
        assert np.array_equal(new.vel_indices, ref.vel_indices)
        for f in FIELDS:
            assert np.max(np.abs(getattr(new, f) - getattr(ref, f))) <= 1e-12, f


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2]),
       name=st.sampled_from(["mechanical", "sigma_discounted", "shifted_quadratic",
                             "arctan_discount"]),
       seed=st.integers(0, 10**6),
       dt_mode=st.sampled_from(["default", "doubled", "off_lattice", "small"]),
       on_node=st.booleans(),
       amp=st.sampled_from([0.0, 0.003, 0.3]),
       lam=st.one_of(st.just(0.0), st.floats(0.1, 4.0)),
       steps=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 2000)),
       start=st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)))
def test_block_loop_matches_the_lean_loop_bit_for_bit(d, name, seed, dt_mode, on_node,
                                                       amp, lam, steps, start):
    model, u, x, arcs = trace_case(d, name, seed, dt_mode, on_node, amp, start)
    trace = checked_against_the_lean_loop(model, lam, u, x, (steps + 0.5) * arcs.dt, arcs)
    assert trace.steps == steps or (trace.rests and trace.steps < steps)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2]),
       seed=st.integers(0, 10**6),
       dt_mode=st.sampled_from(["default", "doubled", "off_lattice"]),
       on_node=st.booleans(),
       lam=st.floats(0.1, 4.0),
       steps=st.integers(0, 300),
       start=st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)))
def test_block_loop_matches_the_lean_loop_on_traces_that_come_to_rest(d, seed, dt_mode,
                                                                      on_node, lam, steps,
                                                                      start):
    """A solved mechanical field: a trace started away from its well moves
    there in a few steps, switches to v = 0 and rests, so the trace ends
    right after a switch of velocity, or inside a block of v = 0."""
    model, u, x, arcs = trace_case(d, "mechanical", seed, dt_mode, on_node, 0.0, start)
    u, _ = solve_perturbed(model, lam, arcs, tol=1e-10)
    checked_against_the_lean_loop(model, lam, u, x, (steps + 0.5) * arcs.dt, arcs)


def checked_against_the_lean_loop(*args):
    """The trace with the tolerance off, every field bit for bit that of the
    lean loop run to the horizon and cut at its first rest step; with the
    default tolerance, CalibrationError on the same inputs and otherwise the
    same trace."""
    trace = backward_calibrated_curve(*args, defect_tol=np.inf)
    assert_bit_identical(trace, lean_backward_calibrated_curve(*args, defect_tol=np.inf,
                                                               at_rest=True))
    ref = trace_or_none(lean_backward_calibrated_curve, *args, at_rest=True)
    new = trace_or_none(backward_calibrated_curve, *args)
    assert (new is None) == (ref is None)
    if ref is not None:
        assert_bit_identical(new, ref)
    return trace


def recorded_blocks(monkeypatch, *args, **kwargs):
    """The trace and its blocks as (first step, rows guessed, rows taken).
    The guessed points of each block are recorded from the foot sampler; a
    block takes the rows up to the first guessed point the trace leaves, or
    up to the trace's end, and the blocks take every step of the trace."""
    calls = []
    sampler = Transition.foot_sampler

    def recording(self, values, snap=False):
        feet_at = sampler(self, values, snap)
        return lambda Y: calls.append(Y.copy()) or feet_at(Y)

    monkeypatch.setattr(Transition, "foot_sampler", recording)
    trace = backward_calibrated_curve(*args, **kwargs, defect_tol=np.inf)
    monkeypatch.undo()
    k, blocks = 0, []
    for Y in calls:
        assert np.array_equal(Y[0], trace.points[k])
        m = 1
        while m < len(Y) and k + m < trace.steps and np.array_equal(Y[m], trace.points[k + m]):
            m += 1
        blocks.append((k, len(Y), m))
        k += m
    assert k == trace.steps
    return trace, blocks


@pytest.mark.parametrize("d", [1, 2])
def test_block_schedule_covers_long_runs_switches_and_wraps(monkeypatch, d):
    """Nearly flat fields, on and off the lattice, under drifts that keep some
    traces moving for all 2,000 steps and bring others to rest.  Traces that
    keep moving show velocity runs longer than BLOCK_CAP, switches after the
    first row of a block and wraps of the torus with the block going on past
    them.  Some trace has a block after a switch that starts longer than one
    row, and those that rest end at their rest step.  All are bit for bit
    equal to the lean loop, cut at the rest step."""
    seen = {"long run": False, "switch inside a block": False,
            "wrap inside a block": False, "block after a switch longer than 1": False,
            "rest": False, "on lattice": False, "off lattice": False}
    for dt_mode in ("default", "off_lattice", "small"):
        for seed in range(9):
            model, u, x, arcs = trace_case(d, "shifted_quadratic", seed, dt_mode,
                                           dt_mode != "small", 0.03, (0.31, 0.77))
            args = (model, 0.5, u, x, 2000.5 * arcs.dt, arcs)
            trace, blocks = recorded_blocks(monkeypatch, *args)
            assert_bit_identical(trace, lean_backward_calibrated_curve(
                *args, defect_tol=np.inf, at_rest=True))
            seen["on lattice" if trace.on_lattice else "off lattice"] = True
            seen["rest"] |= trace.rests
            moving = not trace.rests
            switch = np.flatnonzero(np.diff(trace.vel_indices)) + 1
            runs = np.diff(np.concatenate(([0], switch, [trace.steps])))
            seen["long run"] |= bool(moving and runs.max() > BLOCK_CAP
                                     and max(b[1] for b in blocks) == BLOCK_CAP)
            wraps = np.flatnonzero(np.abs(np.diff(trace.points, axis=0)).max(axis=1) > 0.5)
            for k, size, take in blocks:
                seen["switch inside a block"] |= (moving and 1 < take < size
                                                  and (k + take - 1) in switch)
                seen["wrap inside a block"] |= bool(
                    moving and np.any((wraps >= k) & (wraps < k + take - 1)))
                seen["block after a switch longer than 1"] |= size > 1 and (k - 1) in switch
    assert all(seen.values()), seen


def test_occupation_workload_traces_stop_sampling_at_rest(monkeypatch, tmp_path):
    """The four traces of the `occupation` benchmark workload (bench/run.py,
    seed 1): the sweep's three and the mass identity's at dt/2, the one at
    dt being the sweep's.  Each of the three that come to rest ends at its
    rest step, and no block starts after it.  A block after a switch starts
    at the length of the run that ended, so the four take at most 70
    sampler passes for their 3,942 steps."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    from run import WORKLOADS, write_config
    cfg = str(tmp_path / "occupation.cfg")
    write_config(WORKLOADS["occupation"](1), cfg)
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return backward_calibrated_curve(*args, **kwargs)

    monkeypatch.setattr(experiments, "backward_calibrated_curve", recording)
    assert experiments.run_experiment(cfg, output=str(tmp_path / "out")).passed
    monkeypatch.undo()
    assert len(calls) == 4
    steps = passes = rested = 0
    for args, kwargs in calls:
        trace, blocks = recorded_blocks(monkeypatch, *args, **kwargs)
        if trace.rests:
            rested += 1
            assert rest_step(trace.points) == trace.steps - 1
            assert all(k <= trace.steps - 1 for k, _, _ in blocks)
        steps += trace.steps
        passes += len(blocks)
    assert (rested, steps) == (3, 3942) and passes <= 70


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("steps", [0, 1])
def test_zero_and_one_step_traces_match_the_lean_loop(d, steps):
    for dt_mode, on_node in (("default", True), ("off_lattice", False)):
        model, u, x, arcs = trace_case(d, "mechanical", 3, dt_mode, on_node, 0.3,
                                       (0.4, 0.6))
        args = (model, 0.7, u, x, (steps + 0.5) * arcs.dt, arcs)
        new = backward_calibrated_curve(*args, defect_tol=np.inf)
        assert new.steps == steps
        assert_bit_identical(new, lean_backward_calibrated_curve(*args, defect_tol=np.inf,
                                                                 at_rest=True))
        assert ((trace_or_none(backward_calibrated_curve, *args) is None)
                == (trace_or_none(lean_backward_calibrated_curve, *args, at_rest=True) is None))


@pytest.mark.parametrize("alpha", [1.0, -2.5])
def test_wraps_off_the_lattice_do_not_stop_a_block(monkeypatch, alpha):
    """A velocity that holds for 2,000 steps takes the same 16 blocks on and
    off the lattice: the guessed points after each wrap of the torus are the
    feet bit for bit, so every block after the first takes all its rows."""
    grid, vset = PeriodicGrid(1, 24), velocity_set(3.0, 13)
    model = builtin_model("shifted_quadratic", alpha=alpha).with_c0(0.0)
    u = GridField.from_function(grid, lambda X: 1e-3 * np.cos(2 * np.pi * X[..., 0]))
    for dt, x in ((default_dt(grid, vset), [0.5]), (0.064, [0.5]), (0.064, [0.123])):
        args = (model, 0.01, u, x, 2000.5 * dt, Transition(grid, vset, dt))
        trace, blocks = recorded_blocks(monkeypatch, *args)
        assert_bit_identical(trace, lean_backward_calibrated_curve(*args, defect_tol=np.inf,
                                                                   at_rest=True))
        assert trace.steps == 2000 and np.unique(trace.vel_indices).size == 1
        assert trace.on_lattice == (dt != 0.064)
        assert all(take == size for _, size, take in blocks[1:])
        assert len(blocks) == 16
