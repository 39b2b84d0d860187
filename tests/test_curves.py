import dataclasses

import numpy as np
import pytest

from torushj.curves import (
    backward_calibrated_curve,
    check_calibration,
    check_mass_identity,
    closedness_defect,
    occupation_measure,
    speed_bound_check,
)
from torushj.errors import CalibrationError, ConfigurationError, TailMassError
from torushj.grids import GridField, PeriodicGrid
from torushj.matherlp import build_polytope, solve_mather_lp
from torushj.models import builtin_model, velocity_set
from torushj.solver import Transition, compute_bracket, solve_perturbed

ALPHA = (np.sqrt(5.0) - 1.0) / 2.0
COS = lambda x: np.cos(2 * np.pi * x[..., 0])


def solved(model_name, n=32, vmax=2.0, m=17, lam=0.1, **params):
    """The model with c0 = c, its kernel at the lattice dt, its polytope and
    the field solved at lam; the polytope and the solve share the kernel."""
    arcs = Transition(PeriodicGrid(1, n), velocity_set(vmax, m))
    model = builtin_model(model_name, **params)
    poly = build_polytope(model, arcs)
    model = model.with_c0(poly.c)
    br = compute_bracket(model, GridField.constant(arcs.grid, 0.0))
    fld, rep = solve_perturbed(model, lam, arcs, tol=1e-10, bracket=br)
    assert rep.converged
    return model, arcs, poly, fld


def test_free_model_curve_rests():
    model, arcs, _, fld = solved("mechanical", U=None)
    grid = arcs.grid
    x0 = grid.node_coords()[5]
    tr = backward_calibrated_curve(model, 0.1, fld, x0, Tmax=5.0, arcs=arcs)
    assert np.all(tr.velocities == 0.0)
    assert np.max(np.abs(tr.points - x0[None, :])) == 0.0
    assert tr.on_lattice


def test_shifted_quadratic_velocities_near_alpha():
    model, arcs, _, fld = solved(
        "shifted_quadratic", n=64, vmax=3.0, m=49, lam=0.05, alpha=ALPHA)
    grid, vset = arcs.grid, arcs.vset
    x0 = grid.node_coords()[10]
    tr = backward_calibrated_curve(model, 0.05, fld, x0, Tmax=10.0, arcs=arcs)
    assert np.max(np.abs(tr.velocities[:, 0] - ALPHA)) <= vset.spacing


def test_mechanical_curve_descends_to_aubry_point():
    model, arcs, _, fld = solved("mechanical", n=64, vmax=3.0, m=33,
                                           lam=0.05, U=COS)
    grid = arcs.grid
    x0 = np.array([0.34375])                  # a node away from the maximum
    tr = backward_calibrated_curve(model, 0.05, fld, x0, Tmax=40.0, arcs=arcs)
    end = tr.points[-1, 0]
    dist = min(end, 1 - end)
    assert dist <= 2 * grid.h


def test_calibration_on_lattice_machine_tight():
    model, arcs, _, fld = solved("mechanical", U=COS, lam=0.1)
    grid, dt = arcs.grid, arcs.dt
    x0 = grid.node_coords()[7]
    tr = backward_calibrated_curve(model, 0.1, fld, x0, Tmax=8.0, arcs=arcs,
                                   solver_tol=1e-10)
    assert tr.on_lattice
    rep = check_calibration(tr, fld)
    assert rep.max_defect_rate <= 1e-10 / dt * 10
    assert rep.telescoped_error <= tr.defects.sum() + 1e-12


def test_calibration_detects_unconverged_field():
    model, arcs, _, fld = solved("mechanical", U=COS, lam=0.1)
    grid = arcs.grid
    rng = np.random.default_rng(0)
    bad = GridField(grid, fld.values + rng.normal(size=grid.size) * 0.05)
    with pytest.raises(CalibrationError):
        backward_calibrated_curve(model, 0.1, bad, grid.node_coords()[7],
                                  Tmax=8.0, arcs=arcs, solver_tol=1e-10)


def test_calibration_defect_sensitivity():
    model, arcs, _, fld = solved("mechanical", U=COS, lam=0.1)
    grid = arcs.grid
    x0 = grid.node_coords()[9]
    tr0 = backward_calibrated_curve(model, 0.1, fld, x0, Tmax=6.0, arcs=arcs,
                                    solver_tol=1e-10)
    eps = 1e-4
    rng = np.random.default_rng(1)
    noisy = GridField(grid, fld.values + rng.uniform(-eps, eps, size=grid.size))
    tr1 = backward_calibrated_curve(model, 0.1, noisy, x0, Tmax=6.0, arcs=arcs,
                                    defect_tol=np.inf)
    assert tr1.defects.max() >= 10 * tr0.defects.max()
    assert tr1.defects.max() <= 10 * eps


def test_zero_length_trace_vacuous():
    model, arcs, _, fld = solved("mechanical", U=None)
    grid, dt = arcs.grid, arcs.dt
    tr = backward_calibrated_curve(model, 0.1, fld, grid.node_coords()[3],
                                   Tmax=dt / 2, arcs=arcs)
    assert tr.steps == 0
    rep = check_calibration(tr, fld)
    assert rep.max_defect_rate == 0.0 and rep.telescoped_error == 0.0


def test_bad_horizon_or_time_step_is_refused():
    model, arcs, _, fld = solved("mechanical", U=None)
    grid, vset, dt = arcs.grid, arcs.vset, arcs.dt
    x0 = grid.node_coords()[3]
    with pytest.raises(ConfigurationError):
        backward_calibrated_curve(model, 0.1, fld, x0, Tmax=-1.0, arcs=arcs)
    for bad_dt in (0.0, -dt):
        with pytest.raises(ConfigurationError):
            backward_calibrated_curve(model, 0.1, fld, x0, Tmax=5.0,
                                      arcs=Transition(grid, vset, bad_dt))


def test_on_lattice_start_just_below_one_folds_to_zero():
    # the start snaps to its nearest node; the node at 1.0 is node 0
    model, arcs, _, fld = solved("mechanical", n=16, m=9, U=COS)
    tr = backward_calibrated_curve(model, 0.1, fld, np.array([1.0 - 1e-12]),
                                   Tmax=2.0, arcs=arcs)
    assert tr.on_lattice
    assert tr.points[0, 0] == 0.0
    assert np.all((tr.points >= 0.0) & (tr.points < 1.0))
    ref = backward_calibrated_curve(model, 0.1, fld, np.array([0.0]),
                                    Tmax=2.0, arcs=arcs)
    np.testing.assert_array_equal(tr.points, ref.points)


def test_occupation_and_mass_identity_refuse_a_nonpositive_discount():
    model, arcs, _, fld = solved("mechanical", U=COS, lam=0.2)
    grid = arcs.grid
    tr = backward_calibrated_curve(model, 0.2, fld, grid.node_coords()[6],
                                   Tmax=80.0, arcs=arcs)
    for lam in (0.0, -0.2):
        bad = dataclasses.replace(tr, lam=lam)
        with pytest.raises(ConfigurationError):
            occupation_measure(bad)
        with pytest.raises(ConfigurationError):
            check_mass_identity(bad)


def test_weights_monotone_and_envelope():
    model, arcs, _, fld = solved("mechanical", U=COS, lam=0.2)
    grid = arcs.grid
    tr = backward_calibrated_curve(model, 0.2, fld, grid.node_coords()[11],
                                   Tmax=20.0, arcs=arcs)
    W = tr.weights
    assert W[0] == 1.0
    assert np.all(np.diff(W) < 0)
    # na5sj17-style envelope from the sampled derivative range
    d2 = tr.dl0.max()      # least negative
    d1 = tr.dl0.min()
    T = tr.horizon
    assert np.exp(0.2 * d1 * T) * (1 - 1e-9) <= W[-1] <= np.exp(0.2 * d2 * T) * (1 + 1e-9)


def test_occupation_stationary_trace_is_rest_dirac():
    model, arcs, _, fld = solved("mechanical", U=None, lam=0.2)
    grid, vset = arcs.grid, arcs.vset
    x0 = grid.node_coords()[6]
    tr = backward_calibrated_curve(model, 0.2, fld, x0, Tmax=80.0, arcs=arcs)
    mu = occupation_measure(tr)
    assert mu.weights[6, vset.zero_index] == pytest.approx(1.0, abs=1e-9)


def test_occupation_tail_guard():
    model, arcs, _, fld = solved("mechanical", U=None, lam=0.2)
    grid = arcs.grid
    tr = backward_calibrated_curve(model, 0.2, fld, grid.node_coords()[6],
                                   Tmax=5.0, arcs=arcs)
    with pytest.raises(TailMassError):
        occupation_measure(tr)


def test_mass_identity_geometric_sum():
    # constant dL/du = -1: lhs = -1 exactly, rhs off by lam*dt/2 + tail
    lam = 0.1
    model, arcs, _, fld = solved("mechanical", U=COS, lam=lam)
    grid, dt = arcs.grid, arcs.dt
    tr = backward_calibrated_curve(model, lam, fld, grid.node_coords()[4],
                                   Tmax=140.0, arcs=arcs)
    err = check_mass_identity(tr)
    predicted = lam * dt / 2
    assert err == pytest.approx(predicted, rel=0.2)


def test_mass_identity_dt_halving():
    lam = 0.1
    grid = PeriodicGrid(1, 32)
    vset = velocity_set(2.0, 17)
    model = builtin_model("mechanical", U=COS)
    poly = build_polytope(model, Transition(grid, vset))
    model = model.with_c0(poly.c)
    br = compute_bracket(model, GridField.constant(grid, 0.0))
    errs = []
    for dt in (0.02, 0.01):
        arcs = Transition(grid, vset, dt)
        fld, rep = solve_perturbed(model, lam, arcs, tol=1e-10, bracket=br)
        assert rep.converged
        tr = backward_calibrated_curve(model, lam, fld, grid.node_coords()[4],
                                       Tmax=140.0, arcs=arcs, solver_tol=1e-10)
        errs.append(check_mass_identity(tr))
    assert 1.5 <= errs[0] / errs[1] <= 2.5


def test_closedness_defect_examples():
    lam = 0.1
    model, arcs, poly, fld = solved("mechanical", U=COS, lam=lam)
    grid, vset = arcs.grid, arcs.vset
    mu_lp, _, _ = solve_mather_lp(model, poly)
    assert closedness_defect(mu_lp, arcs) <= 1e-9
    # moving Dirac: defect equals its mass
    from torushj.matherlp import DiscreteMeasure
    W = np.zeros((grid.size, vset.count))
    W[3, vset.count - 1] = 1.0
    assert closedness_defect(DiscreteMeasure(grid, vset, W), arcs) == pytest.approx(1.0)
    # occupation defect scales like lam
    defs = []
    for lam_k in (0.4, 0.2, 0.1):
        fldk, _ = solve_perturbed(model, lam_k, arcs, tol=1e-10)
        tr = backward_calibrated_curve(model, lam_k, fldk, grid.node_coords()[11],
                                       Tmax=12.0 / lam_k, arcs=arcs,
                                       solver_tol=1e-10)
        defs.append(closedness_defect(occupation_measure(tr), tr.arcs))
    lams = np.array([0.4, 0.2, 0.1])
    fit = float(np.sum(np.array(defs) * lams) / np.sum(lams**2))
    assert np.all(np.array(defs) <= 2 * fit * lams)
    assert defs[0] > defs[1] > defs[2]


def test_action_convergence_along_sweep():
    # int (L0 + c0) dmu -> 0 as lam -> 0, monotone within a factor of 2
    model, arcs, poly, _ = solved("mechanical", U=COS, lam=0.1)
    grid, dt = arcs.grid, arcs.dt
    vals = []
    for lam in (0.4, 0.2, 0.1):
        fld, _ = solve_perturbed(model, lam, arcs, tol=1e-10)
        tr = backward_calibrated_curve(model, lam, fld, grid.node_coords()[11],
                                       Tmax=12.0 / lam, arcs=arcs,
                                       solver_tol=1e-10)
        X = tr.points[:-1]
        L0 = np.asarray(model.L(X, tr.velocities, 0.0))
        Wd = tr.weights[:-1] * dt
        vals.append(abs(float((L0 + model.c0) @ Wd / Wd.sum())))
    assert vals[2] <= vals[0] + 1e-12
    assert all(b <= 2 * a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_speed_bound_check():
    model, arcs, _, fld = solved(
        "shifted_quadratic", n=64, vmax=3.0, m=49, lam=0.05, alpha=ALPHA)
    grid, vset = arcs.grid, arcs.vset
    br = compute_bracket(model, GridField.constant(grid, 0.0))
    tr = backward_calibrated_curve(model, 0.05, fld, grid.node_coords()[10],
                                   Tmax=10.0, arcs=arcs)
    rep = speed_bound_check(tr, model, br)
    assert rep.passed
    assert rep.max_speed == pytest.approx(ALPHA, abs=vset.spacing)
    assert rep.a_priori_bound > 1.0

    modelf, arcsf, _, fldf = solved("mechanical", U=None)
    trf = backward_calibrated_curve(modelf, 0.1, fldf, arcsf.grid.node_coords()[3],
                                    Tmax=5.0, arcs=arcsf)
    brf = compute_bracket(modelf, GridField.constant(arcsf.grid, 0.0))
    repf = speed_bound_check(trf, modelf, brf)
    assert repf.passed and repf.max_speed == 0.0


def test_speed_bound_flags_truncated_lattice():
    # vmax below the drift alpha: the argmin saturates the lattice edge
    model, arcs, _, fld = solved("shifted_quadratic", vmax=0.5, m=9, alpha=ALPHA)
    br = compute_bracket(model, GridField.constant(arcs.grid, 0.0))
    tr = backward_calibrated_curve(model, 0.1, fld, arcs.grid.node_coords()[5],
                                   Tmax=10.0, arcs=arcs)
    srep = speed_bound_check(tr, model, br)
    assert not srep.passed
    assert srep.note == "velocity lattice truncates the argmin"
