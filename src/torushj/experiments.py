"""Config-driven experiment pipelines with deterministic artifacts.

Configs are flat INI files (section headers plus key = value lines; see
README for the grammar).  Each experiment kind wires the solver, barrier,
measure, and selection modules into one reproducible pipeline, writes CSV or
binary artifacts plus a JSON manifest, and evaluates its pass/fail
thresholds.  Stage failures keep partial artifacts and are recorded in the
manifest rather than erasing the run.

Potential specs use a tiny grammar:  zero | const:value=V |
cos:amp=A,freq=K,offset=B | sin:amp=A,freq=K,offset=B | cos_sum:amp=A,freq=K
(cos/sin act on the first coordinate, cos_sum sums over axes).
"""

from __future__ import annotations

import configparser
import os
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np
import scipy

from . import __version__
from .artifacts import (
    TIMINGS_FILE,
    hash_directory,
    write_barrier_binary,
    write_barrier_csv,
    write_convergence_csv,
    write_field_csv,
    write_manifest,
    write_measure_csv,
    write_node_csv,
    write_trace_csv,
)
from .barrier import (
    BarrierMatrix,
    aubry_set,
    critical_value,
    peierls_barrier,
    solution_from_barrier,
)
from .curves import (
    CurveTrace,
    backward_calibrated_curve,
    check_mass_identity,
    closedness_defect,
    occupation_measure,
)
from .errors import ConfigurationError
from .grids import GridField, PeriodicGrid
from .matherlp import (
    DiscreteMeasure,
    build_polytope,
    closedness_operator,
)
from .models import BUILTIN_MODEL_NAMES, builtin_model, velocity_set
from .selection import (
    SelectionResult,
    apply_selection_operator,
    check_fixed_point,
    check_operator_lipschitz,
    limit_solution_formula,
)
from .solver import (
    Transition,
    compute_bracket,
    default_dt,
    lambda_sweep,
    nonexistence_certificate,
    residual,
    solve_perturbed,
)

__all__ = [
    "ExperimentConfig",
    "ConvergenceReport",
    "parse_config",
    "parse_potential",
    "run_experiment",
    "convergence_report",
    "export_all",
    "EXPERIMENT_KINDS",
]

EXPERIMENT_KINDS = (
    "vanishing_discount",
    "example_6_1",
    "nonexistence_3_4",
    "operator_suite",
    "occupation_suite",
    "barrier_suite",
)


def parse_potential(spec: str) -> Callable:
    """Parse the potential grammar into a callable on (..., d) coordinates."""
    spec = spec.strip()
    kind, _, rest = spec.partition(":")
    kw = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            kw[key.strip()] = float(val)
    amp = kw.get("amp", 1.0)
    freq = kw.get("freq", 1.0)
    off = kw.get("offset", 0.0)
    if kind == "zero":
        return lambda x: np.zeros(np.asarray(x).shape[:-1])
    if kind == "const":
        v = kw.get("value", 0.0)
        return lambda x: np.full(np.asarray(x).shape[:-1], v)
    if kind == "cos":
        return lambda x: amp * np.cos(2 * np.pi * freq * np.asarray(x)[..., 0]) + off
    if kind == "sin":
        return lambda x: amp * np.sin(2 * np.pi * freq * np.asarray(x)[..., 0]) + off
    if kind == "cos_sum":
        return lambda x: amp * np.sum(np.cos(2 * np.pi * freq * np.asarray(x)), axis=-1) + off
    raise ConfigurationError(f"unknown potential spec {spec!r}")


@dataclass
class ExperimentConfig:
    kind: str
    name: str
    model_name: str
    model_params: dict
    d: int = 1
    n: int = 128
    vmax: float = 3.0
    m: int = 49
    dt: Optional[float] = None
    tol: float = 1e-8
    max_iter: int = 200000
    lambdas: tuple = ()
    tmax: float = 24.0
    seed: int = 20240601
    thresholds: dict = dc_field(default_factory=dict)
    extras: dict = dc_field(default_factory=dict)
    raw: dict = dc_field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigurationError(f"unknown experiment kind {self.kind!r}")
        if self.model_name not in BUILTIN_MODEL_NAMES:
            raise ConfigurationError(f"unknown model {self.model_name!r}")
        if self.d not in (1, 2):
            raise ConfigurationError("grid dimension must be 1 or 2")
        if self.n < 4:
            raise ConfigurationError("grid needs n >= 4")
        if self.m % 2 == 0 or self.m < 3:
            raise ConfigurationError("velocity count must be odd and >= 3")
        if not self.tmax > 0:
            raise ConfigurationError("barrier tmax must be positive")
        lams = list(self.lambdas)
        if lams and any(b >= a for a, b in zip(lams, lams[1:])):
            raise ConfigurationError("lambda schedule must be strictly descending")

    def grid(self) -> PeriodicGrid:
        return PeriodicGrid(self.d, self.n)

    def vset(self):
        return velocity_set(self.vmax, self.m, self.d)

    def model(self):
        return builtin_model(self.model_name, d=self.d, **self.model_params)


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _alpha(text: str, d: int, key: str) -> np.ndarray:
    """A rotation vector given by 1 (shared by every axis) or d components."""
    alpha = np.array(_floats(text))
    if alpha.size not in (1, d):
        raise ConfigurationError(f"{key} needs 1 or {d} components")
    return np.broadcast_to(alpha, (d,)).copy()


def parse_config(path: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config {path}")
    raw = {s: dict(cp[s]) for s in cp.sections()}

    exp = cp["experiment"]
    kind = exp.get("kind", "").strip()
    name = exp.get("name", kind).strip()

    msec = cp["model"] if cp.has_section("model") else {}
    model_name = msec.get("name", "mechanical").strip()
    model_params: dict = {}
    for key in ("U", "potential", "phi", "sigma", "target"):
        if key in msec:
            model_params[key] = parse_potential(msec[key])
    g = cp["grid"] if cp.has_section("grid") else {}
    if "alpha" in msec:
        model_params["alpha"] = _alpha(msec["alpha"], int(g.get("d", 1)), "[model] alpha")
    v = cp["velocities"] if cp.has_section("velocities") else {}
    s = cp["solver"] if cp.has_section("solver") else {}
    thresholds = {k: float(val) for k, val in (cp["thresholds"].items() if cp.has_section("thresholds") else [])}
    extras = dict(cp["extras"]) if cp.has_section("extras") else {}

    cfg = ExperimentConfig(
        kind=kind,
        name=name,
        model_name=model_name,
        model_params=model_params,
        d=int(g.get("d", 1)),
        n=int(g.get("n", 128)),
        vmax=float(v.get("vmax", 3.0)),
        m=int(v.get("m", 49)),
        dt=float(s["dt"]) if "dt" in s else None,
        tol=float(s.get("tol", 1e-8)),
        max_iter=int(s.get("max_iter", 200000)),
        lambdas=_floats(cp["schedule"]["lambdas"]) if cp.has_section("schedule") else (),
        tmax=float(cp["barrier"].get("tmax", 24.0)) if cp.has_section("barrier") else 24.0,
        seed=int(exp.get("seed", 20240601)),
        thresholds=thresholds,
        extras=extras,
        raw=raw,
    )
    cfg.validate()
    return cfg


@dataclass
class ConvergenceReport:
    rows: list                    # (lambda, sup_error, iterations, residual)
    provenance: str               # formula | extrapolation | analytic
    monotone_within_factor: bool
    factor: float = 2.0

    @property
    def final_error(self) -> float:
        return self.rows[-1][1]


def convergence_report(sweep_entries, reference: GridField, provenance: str,
                       factor: float = 2.0) -> ConvergenceReport:
    """Sup-norm errors of a lambda sweep against a reference field.

    The monotone flag records whether each error stays within `factor` of its
    predecessor (nonincreasing up to that slack).
    """
    if not sweep_entries:
        raise ConfigurationError("empty sweep")
    rows = []
    for e in sweep_entries:
        if e.field is None:
            raise ConfigurationError(f"sweep entry lam={e.lam} failed: {e.error}")
        err = float(np.max(np.abs(e.field.values - reference.values)))
        rows.append((e.lam, err, e.report.iterations, e.report.final_residual))
    mono = all(b[1] <= factor * a[1] + 1e-15 for a, b in zip(rows, rows[1:]))
    return ConvergenceReport(rows=rows, provenance=provenance,
                             monotone_within_factor=mono, factor=factor)


def export_all(results: dict, outdir: str) -> list:
    """Write named artifacts with type-dispatched, deterministic formats.

    Returns the sorted list of file names written.  An empty result set
    yields nothing here (the caller still writes the manifest).
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    for key in sorted(results):
        obj = results[key]
        if isinstance(obj, GridField):
            fn = f"{key}.csv"
            write_field_csv(obj, os.path.join(outdir, fn))
        elif isinstance(obj, BarrierMatrix):
            fn = f"{key}.pbar"
            write_barrier_binary(obj, os.path.join(outdir, fn))
            if obj.grid.size <= 32:
                write_barrier_csv(obj, os.path.join(outdir, f"{key}.csv"))
                written.append(f"{key}.csv")
        elif isinstance(obj, DiscreteMeasure):
            fn = f"{key}.csv"
            write_measure_csv(obj, os.path.join(outdir, fn))
        elif isinstance(obj, np.ndarray):      # projected / per-node weight vectors
            fn = f"{key}.csv"
            write_node_csv(obj, os.path.join(outdir, fn))
        elif isinstance(obj, SelectionResult):
            fn = f"{key}.csv"
            if obj.field is not None:
                write_field_csv(obj.field, os.path.join(outdir, fn))
            else:
                with open(os.path.join(outdir, fn), "w", newline="\n") as f:
                    f.write("# partial evaluation; see the value file\n")
            write_node_csv(obj.per_x_value, os.path.join(outdir, f"{key}_values.csv"),
                           "value")
            written.append(f"{key}_values.csv")
            for node, witness in sorted((obj.per_x_optimizer or {}).items()):
                wfn = f"{key}_witness_{node}.csv"
                write_measure_csv(witness, os.path.join(outdir, wfn))
                written.append(wfn)
        elif isinstance(obj, ConvergenceReport):
            fn = f"{key}.csv"
            write_convergence_csv(obj.rows, os.path.join(outdir, fn))
        elif isinstance(obj, dict):
            fn = f"{key}.json"
            write_manifest(obj, os.path.join(outdir, fn))
        elif isinstance(obj, CurveTrace):
            fn = f"{key}.csv"
            write_trace_csv(obj, os.path.join(outdir, fn))
        else:
            raise ConfigurationError(f"no exporter for artifact {key!r} of type {type(obj)}")
        written.append(fn)
    return sorted(written)


@dataclass
class StageRecord:
    name: str
    ok: bool
    details: dict = dc_field(default_factory=dict)
    warnings: list = dc_field(default_factory=list)
    error: Optional[str] = None


@dataclass
class RunResult:
    outdir: str
    passed: bool
    stages: list
    manifest: dict


def _smooth_random_fields(grid: PeriodicGrid, rng, count: int, scale: float = 0.5):
    """Seeded low-frequency random fields: Fourier modes k = 1..4 along each
    axis, 1/k^2 decay, one (cos, sin) amplitude pair drawn per mode and axis."""
    X = grid.node_coords()
    fields = []
    for _ in range(count):
        vals = np.zeros(grid.size)
        for k in range(1, 5):
            for x in X.T:
                a, b = rng.normal(size=2) * scale / k**2
                vals += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
        fields.append(GridField(grid, vals))
    return fields


def _threshold(cfg: ExperimentConfig, key: str, default: float) -> float:
    return float(cfg.thresholds.get(key, default))


def _face_details(sel: SelectionResult) -> dict:
    """How the limit formula was evaluated on the Mather face."""
    return {"critical_arcs": sel.critical_arcs, "classes": sel.classes}


# ---------------------------------------------------------------------------
# experiment pipelines
# ---------------------------------------------------------------------------

def _run_example_6_1(cfg: ExperimentConfig, artifacts: dict):
    """Diophantine-rotation reproduction: the selected limit is the mean of
    the target potential; the sweep error against that constant must close
    below the threshold and decay monotonically (within a factor)."""
    stages = []
    grid, vs = cfg.grid(), cfg.vset()
    dt = cfg.dt if cfg.dt is not None else default_dt(grid, vs)
    target = cfg.model_params.get("target") or parse_potential("sin:freq=1,offset=0.3")
    params = {k: v for k, v in cfg.model_params.items() if k != "target"}
    # The limit selected by inserting -target as the discount-scale potential
    # is +mean(target); see the limit-solution formula.
    params["potential"] = lambda x, _t=target: -_t(x)
    model = builtin_model(cfg.model_name, d=cfg.d, **params)

    poly = build_polytope(model, grid, vs, dt)
    model = model.with_c0(poly.c)
    alpha = model.params.get("alpha", np.array([0.0]))
    stages.append(StageRecord("critical_value", True, {
        "c": poly.c, "half_alpha_sq": float(0.5 * np.sum(alpha**2))}))

    h = peierls_barrier(poly)
    artifacts["barrier_peierls"] = h
    stages.append(StageRecord("peierls_barrier", True,
                              {"max_abs": float(np.max(np.abs(h.values))),
                               "aubry_nodes": int(aubry_set(h).size)},
                              warnings=list(h.warnings)))

    V0 = GridField.from_function(grid, model.V0)
    sel = limit_solution_formula(model, V0, h, poly)
    artifacts["limit_solution"] = sel
    target_mean = float(np.mean(target(grid.node_coords())))
    formula_err = float(np.max(np.abs(sel.field.values - target_mean)))
    stages.append(StageRecord("limit_formula", True, {
        "target_mean": target_mean, "sup_error_vs_mean": formula_err,
        **_face_details(sel)}))

    uhat = GridField.constant(grid, 0.0)
    bracket = compute_bracket(model, uhat)
    entries = lambda_sweep(model, cfg.lambdas, grid, vs, dt=dt, tol=cfg.tol,
                           max_iter=cfg.max_iter, bracket=bracket)
    reference = GridField.constant(grid, target_mean)
    rep = convergence_report(entries, reference, "formula",
                             factor=_threshold(cfg, "monotone_factor", 2.0))
    artifacts["convergence"] = rep
    artifacts["final_field"] = entries[-1].field
    thr = _threshold(cfg, "final_sup_error", 0.05)
    ok = rep.final_error <= thr and rep.monotone_within_factor
    stages.append(StageRecord("lambda_sweep", ok, {
        "rows": rep.rows, "final_error": rep.final_error,
        "threshold": thr, "monotone": rep.monotone_within_factor}))
    return stages


def _run_vanishing_discount(cfg: ExperimentConfig, artifacts: dict):
    """Classical discounted limit against the limit-solution formula, plus
    the unique-measure closed form (barrier column minus the potential at the
    minimizing point)."""
    stages = []
    grid, vs = cfg.grid(), cfg.vset()
    dt = cfg.dt if cfg.dt is not None else default_dt(grid, vs)
    model = builtin_model(cfg.model_name, d=cfg.d, **cfg.model_params)

    poly = build_polytope(model, grid, vs, dt)
    model = model.with_c0(poly.c)
    stages.append(StageRecord("critical_value", True, {"c": poly.c}))

    h = peierls_barrier(poly)
    artifacts["barrier_peierls"] = h
    stages.append(StageRecord("peierls_barrier", True,
                              {"min_diag": float(np.min(h.diagonal())),
                               "aubry_nodes": int(aubry_set(h).size)},
                              warnings=list(h.warnings)))

    V0 = GridField.from_function(grid, model.V0)
    sel = limit_solution_formula(model, V0, h, poly)
    artifacts["limit_solution"] = sel
    xstar = int(aubry_set(h)[0])
    closed_form = GridField(grid, h.values[xstar, :] - V0.values[xstar])
    stages.append(StageRecord("limit_formula", True, {
        "aubry_node": xstar,
        "formula_vs_closed_form": float(np.max(np.abs(sel.field.values - closed_form.values))),
        **_face_details(sel)}))

    bracket = compute_bracket(model, solution_from_barrier(h, xstar))
    entries = lambda_sweep(model, cfg.lambdas, grid, vs, dt=dt, tol=cfg.tol,
                           max_iter=cfg.max_iter, bracket=bracket)
    rep = convergence_report(entries, sel.field, "formula",
                             factor=_threshold(cfg, "monotone_factor", 2.0))
    artifacts["convergence"] = rep
    artifacts["final_field"] = entries[-1].field
    final_vs_closed = float(np.max(np.abs(entries[-1].field.values - closed_form.values)))
    thr = _threshold(cfg, "final_sup_error", 0.05)
    ok = rep.final_error <= thr and final_vs_closed <= thr
    stages.append(StageRecord("lambda_sweep", ok, {
        "rows": rep.rows, "final_error_vs_formula": rep.final_error,
        "final_error_vs_closed_form": final_vs_closed, "threshold": thr}))
    return stages


def _run_nonexistence(cfg: ExperimentConfig, artifacts: dict):
    """Nonexistence certificate across discounts, plus solver behavior on
    both sides of the existence threshold."""
    stages = []
    grid, vs = cfg.grid(), cfg.vset()
    dt = cfg.dt if cfg.dt is not None else default_dt(grid, vs)
    model = builtin_model(cfg.model_name, d=cfg.d, **cfg.model_params)
    poly = build_polytope(model, grid, vs, dt)
    model = model.with_c0(poly.c)
    stages.append(StageRecord("critical_value", True, {"c": poly.c}))

    cert_true = _floats(cfg.extras.get("certificate_true", "1.5 2 4"))
    cert_false = _floats(cfg.extras.get("certificate_false", "0.1 0.5"))
    certs = {}
    ok = True
    for lam in cert_true:
        certs[str(lam)] = nonexistence_certificate(model, lam, grid)
        ok &= certs[str(lam)]
    for lam in cert_false:
        certs[str(lam)] = nonexistence_certificate(model, lam, grid)
        ok &= not certs[str(lam)]
    stages.append(StageRecord("certificates", ok, {"certificate": certs}))

    bracket = compute_bracket(model, GridField.constant(grid, 0.0))
    solve_lams = _floats(cfg.extras.get("solve_lambdas", "0.5 2.0"))
    outcomes = {}
    ok2 = True
    for lam in solve_lams:
        fld, rep = solve_perturbed(model, lam, grid, vs, dt=dt, tol=cfg.tol,
                                   max_iter=cfg.max_iter, bracket=bracket)
        certified_gone = certs.get(str(lam), nonexistence_certificate(model, lam, grid))
        outcomes[str(lam)] = {
            "converged": rep.converged, "residual": rep.final_residual,
            "iterations": rep.iterations, "certificate": bool(certified_gone),
            "lambda_above_lambda0": rep.lambda_above_lambda0,
        }
        artifacts[f"field_lam_{lam}"] = fld
        if certified_gone:
            ok2 &= not rep.converged
        else:
            ok2 &= rep.converged and rep.final_residual <= cfg.tol
    stages.append(StageRecord("solves", ok2, {"outcomes": outcomes}))
    return stages


def _run_operator_suite(cfg: ExperimentConfig, artifacts: dict):
    """Nonexpansiveness, image-solves, fixed-point, and idempotence checks of
    the selection operator at scale."""
    stages = []
    grid, vs = cfg.grid(), cfg.vset()
    dt = cfg.dt if cfg.dt is not None else default_dt(grid, vs)
    model = builtin_model(cfg.model_name, d=cfg.d, **cfg.model_params)
    poly = build_polytope(model, grid, vs, dt)
    model = model.with_c0(poly.c)
    h = peierls_barrier(poly)
    artifacts["barrier_peierls"] = h
    sigma1 = GridField.constant(grid, 1.0)
    rng = np.random.default_rng(cfg.seed)

    pairs = int(cfg.extras.get("lipschitz_pairs", 20))
    slack = _threshold(cfg, "lipschitz_slack", 1e-7)
    lip_ok = True
    lip_rows = []
    for i in range(pairs):
        f1, f2 = _smooth_random_fields(grid, rng, 2)
        lhs, rhs, passed = check_operator_lipschitz(model, sigma1, f1, f2, h, poly,
                                                    slack=slack)
        lip_rows.append((i, lhs, rhs, passed))
        lip_ok &= passed
    stages.append(StageRecord("lipschitz", lip_ok,
                              {"pairs": pairs, "slack": slack,
                               "rows": [(i, float(a), float(b), bool(p)) for i, a, b, p in lip_rows]}))

    image_C = _threshold(cfg, "image_residual_C", 25.0)
    img_ok = True
    img_residuals = []
    for f in _smooth_random_fields(grid, rng, 3):
        img = apply_selection_operator(model, sigma1, f, h, poly).field
        r = residual(model, 0.0, img, vs, dt)
        img_residuals.append(r)
        img_ok &= r <= image_C * grid.h
    stages.append(StageRecord("image_solves", img_ok, {
        "residuals": img_residuals, "bound": image_C * grid.h}))

    diag = h.diagonal()
    grid_err = max(float(np.min(np.abs(diag))), grid.h)
    fp_ok = True
    fp_rows = []
    for y in np.linspace(0, grid.size, 4, endpoint=False).astype(int):
        col = solution_from_barrier(h, int(y))
        passed, diff = check_fixed_point(model, sigma1, col, h, poly,
                                         tol=3 * grid_err)
        fp_rows.append((int(y), diff, passed))
        fp_ok &= passed
    stages.append(StageRecord("fixed_point", fp_ok, {
        "aubry_nodes": int(aubry_set(h).size), "tol": 3 * grid_err,
        "rows": [(y, float(dv), bool(p)) for y, dv, p in fp_rows]}))

    idem_tol = 2 * 3 * grid_err
    phi = _smooth_random_fields(grid, rng, 1)[0]
    p1 = apply_selection_operator(model, sigma1, phi, h, poly).field
    p2 = apply_selection_operator(model, sigma1, p1, h, poly).field
    idiff = float(np.max(np.abs(p2.values - p1.values)))
    stages.append(StageRecord("idempotence", idiff <= idem_tol,
                              {"diff": idiff, "tol": idem_tol}))
    artifacts["operator_image"] = p1
    return stages


def _run_occupation_suite(cfg: ExperimentConfig, artifacts: dict):
    """Occupation-measure identities along a discount sweep: mass identity
    and its dt-order, closedness-defect scaling, and TV approach to the
    minimizing measure."""
    stages = []
    grid, vs = cfg.grid(), cfg.vset()
    dt = cfg.dt if cfg.dt is not None else 1e-3
    model = builtin_model(cfg.model_name, d=cfg.d, **cfg.model_params)
    poly = build_polytope(model, grid, vs, default_dt(grid, vs))
    model = model.with_c0(poly.c)
    h = peierls_barrier(poly)
    xstar = int(aubry_set(h)[0])
    bracket = compute_bracket(model, solution_from_barrier(h, xstar))
    lp_mu = poly.critical_measure

    start = grid.node_coords()[int(cfg.extras.get("start_node", grid.size // 3))]
    lams = cfg.lambdas or (0.2, 0.1, 0.05)
    # the defect diagnostic needs the transition kernel at the *trace* dt:
    # occupation bins telescope only under the kernel the curve stepped with
    Cop = closedness_operator(Transition(grid, vs, dt))
    tv_seq, defect_seq = [], []
    warm = None
    for lam in lams:
        fld, rep = solve_perturbed(model, lam, grid, vs, dt=dt, tol=cfg.tol,
                                   max_iter=cfg.max_iter, bracket=bracket, init=warm)
        warm = fld
        tr = backward_calibrated_curve(model, lam, fld, start, Tmax=10.0 / lam,
                                       dt=dt, vset=vs, solver_tol=cfg.tol)
        mu = occupation_measure(tr, lam, grid, vs, tail_tol=1e-4)
        tv = 0.5 * float(np.abs(mu.projected() - lp_mu.projected()).sum())
        dfct = closedness_defect(mu, Cop)
        tv_seq.append(tv)
        defect_seq.append(dfct)
        artifacts[f"occupation_lam_{lam}"] = mu
        artifacts[f"occupation_lam_{lam}_projected"] = mu.projected()
    lam_arr = np.asarray(lams)
    dfct_arr = np.asarray(defect_seq)
    Cfit = float(np.sum(dfct_arr * lam_arr) / np.sum(lam_arr**2))
    defect_ok = bool(np.all(dfct_arr <= 2.0 * Cfit * lam_arr + 1e-12))
    tv_ok = all(b <= _threshold(cfg, "tv_factor", 2.0) * a + 1e-12
                for a, b in zip(tv_seq, tv_seq[1:])) and tv_seq[-1] <= tv_seq[0]
    stages.append(StageRecord("sweep_diagnostics", defect_ok and tv_ok, {
        "lambdas": list(lams), "tv": tv_seq, "closedness_defect": defect_seq,
        "defect_fit_C": Cfit}))

    lam_mi = float(cfg.extras.get("mass_identity_lambda", lams[-1]))
    Tmi = 14.0 / lam_mi
    fld, _ = solve_perturbed(model, lam_mi, grid, vs, dt=dt, tol=cfg.tol,
                             max_iter=cfg.max_iter, bracket=bracket, init=warm)
    tr1 = backward_calibrated_curve(model, lam_mi, fld, start, Tmax=Tmi, dt=dt,
                                    vset=vs, solver_tol=cfg.tol)
    err1 = check_mass_identity(tr1, lam_mi)
    fld2, _ = solve_perturbed(model, lam_mi, grid, vs, dt=dt / 2, tol=cfg.tol,
                              max_iter=cfg.max_iter, bracket=bracket, init=fld)
    tr2 = backward_calibrated_curve(model, lam_mi, fld2, start, Tmax=Tmi, dt=dt / 2,
                                    vset=vs, solver_tol=cfg.tol)
    err2 = check_mass_identity(tr2, lam_mi)
    ratio = err1 / max(err2, 1e-300)
    mi_ok = err1 <= _threshold(cfg, "mass_identity_rel", 0.05) and 1.5 <= ratio <= 2.5
    artifacts["trace_mass_identity"] = tr1
    stages.append(StageRecord("mass_identity", mi_ok, {
        "lambda": lam_mi, "rel_error_dt": err1, "rel_error_half_dt": err2,
        "ratio": ratio}))
    return stages


def _run_barrier_suite(cfg: ExperimentConfig, artifacts: dict):
    """Three-route critical values on the standard models plus barrier
    structure diagnostics (triangle inequality, column residuals)."""
    stages = []
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)

    mech = builtin_model("mechanical", d=cfg.d,
                         U=parse_potential("cos:amp=1,freq=1"))
    vs_c = velocity_set(cfg.vmax, int(cfg.extras.get("m_critical", 33)), cfg.d)
    cd = critical_value(mech, ("lp", "discount", "longtime"), grid, vs_c, Tmax=cfg.tmax)
    tol_mech = _threshold(cfg, "critical_tol_mechanical", 0.05)
    ok1 = cd.spread <= tol_mech and abs(cd.c - 1.0) <= tol_mech
    stages.append(StageRecord("critical_mechanical", ok1, {
        "per_method": cd.per_method, "spread": cd.spread, "analytic": 1.0}))

    alpha = _alpha(cfg.extras.get("alpha") or str((np.sqrt(5.0) - 1.0) / 2.0), cfg.d,
                   "extras.alpha")
    sq = builtin_model("shifted_quadratic", d=cfg.d, alpha=alpha)
    vs = cfg.vset()
    cd2 = critical_value(sq, ("lp", "discount", "longtime"), grid, vs, Tmax=cfg.tmax)
    tol_sq = _threshold(cfg, "critical_tol_shifted", 0.02)
    half_a2 = float(0.5 * np.sum(alpha**2))
    ok2 = all(abs(v - half_a2) <= tol_sq for v in cd2.per_method.values())
    stages.append(StageRecord("critical_shifted_quadratic", ok2, {
        "per_method": cd2.per_method, "spread": cd2.spread, "analytic": half_a2}))

    mech = mech.with_c0(cd.per_method["lp"])
    poly49 = build_polytope(mech, grid, cfg.vset())
    h = peierls_barrier(poly49)
    artifacts["barrier_mechanical"] = h
    tol_tri = _threshold(cfg, "tol_tri", 5e-3)
    x, y, z = rng.integers(0, grid.size, size=(1000, 3)).T
    H = h.values
    viol = max(0.0, float(np.max(H[x, z] - H[x, y] - H[y, z])))
    ok3 = viol <= 3 * tol_tri
    col = solution_from_barrier(h, int(aubry_set(h)[0]))
    col_res = residual(mech, 0.0, col, poly49.vset, poly49.dt)
    Ccol = _threshold(cfg, "column_residual_C", 25.0)
    ok4 = col_res <= Ccol * grid.h
    stages.append(StageRecord("barrier_structure", ok3 and ok4, {
        "max_triangle_violation": float(viol), "triangle_bound": 3 * tol_tri,
        "column_residual": col_res, "column_bound": Ccol * grid.h,
        "aubry_nodes": int(aubry_set(h).size)}))
    return stages


_RUNNERS = {
    "example_6_1": _run_example_6_1,
    "vanishing_discount": _run_vanishing_discount,
    "nonexistence_3_4": _run_nonexistence,
    "operator_suite": _run_operator_suite,
    "occupation_suite": _run_occupation_suite,
    "barrier_suite": _run_barrier_suite,
}


def run_experiment(config, output: Optional[str] = None,
                   strict: bool = False) -> RunResult:
    """Run one experiment pipeline and write its artifact directory.

    `config` is a path or an ExperimentConfig.  The manifest echoes the
    config, library versions, every tolerance and discretization parameter
    the run used, the stage records, and the artifact hashes; wall time goes
    to a separate timings file so artifacts stay byte-reproducible.
    """
    cfg = parse_config(config) if isinstance(config, (str, os.PathLike)) else config
    cfg.validate()
    root = output or os.environ.get("TORUSHJ_OUTPUT_ROOT", "runs")
    outdir = root if output else os.path.join(root, cfg.name)
    os.makedirs(outdir, exist_ok=True)

    artifacts: dict = {}
    t0 = time.time()
    failing_stage = None
    try:
        stages = _RUNNERS[cfg.kind](cfg, artifacts)
    except Exception as exc:  # noqa: BLE001 - partial artifacts are kept on purpose
        stages = [StageRecord("fatal", False, error=f"{type(exc).__name__}: {exc}")]
        failing_stage = stages[-1].name
    wall = time.time() - t0

    files = export_all(artifacts, outdir)
    passed = all(s.ok for s in stages)
    warnings_all = [w for s in stages for w in s.warnings]
    if strict and warnings_all:
        passed = False

    manifest = {
        "config": cfg.raw or _config_echo(cfg),
        "kind": cfg.kind,
        "name": cfg.name,
        "versions": {"torushj": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "seed": cfg.seed,
        "parameters": _config_echo(cfg),
        "stages": [{
            "name": s.name, "ok": s.ok, "details": s.details,
            "warnings": s.warnings, "error": s.error,
        } for s in stages],
        "failing_stage": failing_stage or next((s.name for s in stages if not s.ok), None),
        "passed": passed,
        "strict": strict,
        "artifacts": files,
        "hashes": hash_directory(outdir, ignore=(TIMINGS_FILE, "manifest.json")),
    }
    write_manifest(manifest, os.path.join(outdir, "manifest.json"))
    write_manifest({"wall_time_seconds": wall}, os.path.join(outdir, TIMINGS_FILE))
    return RunResult(outdir=outdir, passed=passed, stages=stages, manifest=manifest)


def _config_echo(cfg: ExperimentConfig) -> dict:
    return {
        "kind": cfg.kind, "name": cfg.name, "model": cfg.model_name,
        "d": cfg.d, "n": cfg.n, "vmax": cfg.vmax, "m": cfg.m,
        "dt": cfg.dt, "tol": cfg.tol, "max_iter": cfg.max_iter,
        "lambdas": list(cfg.lambdas), "tmax": cfg.tmax, "seed": cfg.seed,
        "thresholds": cfg.thresholds, "extras": cfg.extras,
    }
