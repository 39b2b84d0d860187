"""Config-driven experiment pipelines with deterministic artifacts.

Configs are flat INI files (section headers plus key = value lines; see
README for the grammar).  One table maps each (section, key) to its
ExperimentConfig field; an absent key keeps the field's default.  Each kind
declares the [thresholds] keys, with their defaults, and the [extras] keys
that its runner reads, with their parsers (`_KINDS`); `validate` refuses any
other key, and any extra that its parser refuses.

Each experiment kind wires the solver, barrier, measure and selection
modules into one reproducible pipeline that starts from the critical problem
(`_critical_problem`: the polytope, which owns c and the Peierls barrier, and
the model with c0 = c) and evaluates its pass/fail thresholds.  Runners add
stage records and artifacts to a list and a dict that `run_experiment` owns,
which writes CSV or binary artifacts plus a JSON manifest.  A stage that
raises adds a `fatal` record after the ones before it; the partial artifacts
are kept.

Set-up (import, parse, validate) loads only what the run executes.  The
manifest's scipy version is read from scipy's `version.py` at import
(`_SCIPY_VERSION`), so the `scipy` package never loads on a lattice run.
The kinds that draw random fields are declared `seeded`; `validate` builds
their generator (`ExperimentConfig.rng`), so `numpy.random` loads at parse
time for them and never for the others.

Potential specs use a tiny grammar:  zero | const:value=V |
cos:amp=A,freq=K,offset=B | sin:amp=A,freq=K,offset=B |
cos_sum:amp=A,freq=K,offset=B (cos/sin act on the first coordinate, cos_sum
sums over axes).  Each key is optional (amp and freq default to 1, offset
and value to 0); zero reads none.  Any other key, or an item that is not
key=number, is refused (`_POTENTIAL_KINDS`).
"""

from __future__ import annotations

import configparser
import importlib.util
import os
import time
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from typing import Callable, Optional

import numpy as np

from . import __version__
from .artifacts import (
    TIMINGS_FILE,
    hash_directory,
    write_barrier_binary,
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
)
from .models import builtin_model, velocity_set
from .selection import (
    SelectionResult,
    _dl_flat,
    apply_selection_operator,
    check_fixed_point,
    check_operator_lipschitz,
    limit_solution_formula,
)
from .solver import (
    Transition,
    compute_bracket,
    lambda_sweep,
    nonexistence_certificate,
    residual,
    solve_perturbed,
)


def _scipy_version() -> str:
    """`scipy.__version__`, from scipy's `version.py` loaded on its own:
    `import scipy` would run the package's `__init__` for one string."""
    package = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.util.spec_from_file_location("scipy_version",
                                                  os.path.join(package, "version.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


# read at import, so that set-up, not a run, pays for it
_SCIPY_VERSION = _scipy_version()


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

# potential kind -> the keys it reads; `parse_potential` refuses any other
_WAVE_KEYS = ("amp", "freq", "offset")
_POTENTIAL_KINDS = {"zero": (), "const": ("value",), "cos": _WAVE_KEYS,
                    "sin": _WAVE_KEYS, "cos_sum": _WAVE_KEYS}


def parse_potential(spec: str) -> Callable:
    """Parse the potential grammar into a callable on (..., d) coordinates.
    An unknown kind, a key the kind does not read, or an item that is not
    key=number raises ConfigurationError."""
    spec = spec.strip()
    kind, _, rest = spec.partition(":")
    if kind not in _POTENTIAL_KINDS:
        raise ConfigurationError(f"unknown potential spec {spec!r}")
    kw = {}
    for item in rest.split(",") if rest else ():
        key, eq, val = (part.strip() for part in item.partition("="))
        if eq and key not in _POTENTIAL_KINDS[kind]:
            raise ConfigurationError(f"potential {spec!r}: {kind} reads no key {key!r}")
        try:
            kw[key] = float(val)
        except ValueError:
            raise ConfigurationError(f"potential {spec!r}: item {item.strip()!r} "
                                     "is not key=number") from None
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
    return lambda x: amp * np.sum(np.cos(2 * np.pi * freq * np.asarray(x)), axis=-1) + off


@dataclass
class ExperimentConfig:
    """One experiment.  Each default is also that of an absent INI key; an
    empty name is the kind's.  `validate` builds the grid, velocity set,
    transition kernel, model and a seeded kind's generator, and reads every
    [extras] value, so their own rules refuse a config at parse time."""

    kind: str
    name: str = ""
    model_name: str = "mechanical"
    model_params: dict = dc_field(default_factory=dict)
    d: int = 1
    n: int = 128
    vmax: float = 3.0
    m: int = 49
    dt: Optional[float] = None
    tol: float = 1e-8
    max_iter: int = 200000
    lambdas: tuple = ()
    seed: int = 20240601
    thresholds: dict = dc_field(default_factory=dict)
    extras: dict = dc_field(default_factory=dict)
    raw: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.name = self.name or self.kind

    def validate(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigurationError(f"unknown experiment kind {self.kind!r}")
        lams = list(self.lambdas)
        if lams and any(b >= a for a, b in zip(lams, lams[1:])):
            raise ConfigurationError("lambda schedule must be strictly descending")
        if any(not lam > 0 for lam in lams):
            raise ConfigurationError(f"every discount lambda must be positive, got {lams}")
        kind = _KINDS[self.kind]
        for section, given, known in (("thresholds", self.thresholds, kind.thresholds),
                                      ("extras", self.extras, kind.extras)):
            unknown = sorted(set(given) - set(known))
            if unknown:
                raise ConfigurationError(f"{self.kind} reads no [{section}] key "
                                         f"{unknown[0]!r}")
        for key in self.extras:
            self.extra(key, None)
        if not 0.0 < self.tol < np.inf:
            raise ConfigurationError(f"[solver] tol must be positive and finite, got {self.tol:g}")
        if self.max_iter < 1:
            raise ConfigurationError(f"[solver] max_iter must be at least 1, got {self.max_iter}")
        if self.kind == "barrier_suite" and self.model_name != "mechanical":
            raise ConfigurationError(f"barrier_suite checks a mechanical model, not "
                                     f"{self.model_name!r}")
        # each applies its own rules; the kernel refuses a dt not positive and finite
        self.arcs(self.dt)
        self.model()
        if kind.seeded:
            self.rng()

    def rng(self) -> np.random.Generator:
        """The generator of a seeded kind.  `numpy.random` loads on the first
        call, so kinds that draw nothing never load it."""
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed}")
        return np.random.default_rng(self.seed)

    def grid(self) -> PeriodicGrid:
        return PeriodicGrid(self.d, self.n)

    def vset(self):
        return velocity_set(self.vmax, self.m, self.d)

    def arcs(self, dt: Optional[float] = None) -> Transition:
        """The transition kernel of the config's grid and velocity set at
        `dt`; None gives the lattice dt h / (velocity step), not `self.dt`."""
        return Transition(self.grid(), self.vset(), dt)

    def model(self):
        """The named model with the [model] keys but `target`, which only
        example_6_1 reads: its model takes -target as the discount-scale
        potential, so that the limit it selects is +mean(target) (see the
        limit-solution formula), and it reads no `potential` of its own."""
        params = {k: v for k, v in self.model_params.items() if k != "target"}
        if self.kind == "example_6_1":
            if "potential" in params:
                raise ConfigurationError("example_6_1 reads no [model] key 'potential': "
                                         "its potential is -target")
            target = self.target()
            params["potential"] = lambda x: -target(x)
        elif "target" in self.model_params:
            raise ConfigurationError(f"{self.kind} reads no [model] key 'target'")
        return builtin_model(self.model_name, d=self.d, **params)

    def target(self) -> Callable:
        """example_6_1's selection target, sin(2 pi x_1) + 0.3 by default."""
        return self.model_params.get("target") or parse_potential("sin:freq=1,offset=0.3")

    def extra(self, key: str, default):
        """The [extras] value of `key` read by its kind's parser, or `default`
        when the config gives none.  A value the parser refuses raises
        ConfigurationError naming `[extras] key`."""
        if key not in self.extras:
            return default
        parse = _KINDS[self.kind].extras[key]
        return _parsed(lambda text: parse(text, self.d), self.extras[key], f"[extras] {key}")


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parsed(parse: Callable, text: str, where: str):
    """parse(text); a ValueError it raises becomes a ConfigurationError that
    names `where`, the key the text was read from."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def _alpha(text: str, d: int) -> np.ndarray:
    """A rotation vector given by 1 (shared by every axis) or d components."""
    alpha = np.array(_floats(text))
    if alpha.size not in (1, d):
        raise ValueError(f"needs 1 or {d} components")
    return np.broadcast_to(alpha, (d,)).copy()


def _text_only(parse: Callable) -> Callable:
    """An [extras] parser of (text, d) from a parser of the text alone."""
    return lambda text, d: parse(text)


# INI (section, key) -> (ExperimentConfig field, parser).  Keys are read
# case-blind, as configparser folds them to lower case.
_CONFIG_KEYS = {
    ("experiment", "kind"): ("kind", str.strip),
    ("experiment", "name"): ("name", str.strip),
    ("experiment", "seed"): ("seed", int),
    ("model", "name"): ("model_name", str.strip),
    ("grid", "d"): ("d", int),
    ("grid", "n"): ("n", int),
    ("velocities", "vmax"): ("vmax", float),
    ("velocities", "m"): ("m", int),
    ("solver", "dt"): ("dt", float),
    ("solver", "tol"): ("tol", float),
    ("solver", "max_iter"): ("max_iter", int),
    ("schedule", "lambdas"): ("lambdas", _floats),
}
# [model] potentials, looked up through the section, which folds `U` too
_POTENTIAL_KEYS = ("U", "potential", "phi", "sigma", "target")


def parse_config(path: str) -> ExperimentConfig:
    """Read an INI config; an absent key keeps its ExperimentConfig default.
    A file that is not INI, and a value that its key's parser refuses, raise
    ConfigurationError naming the file (and the `[section] key`)."""
    cp = configparser.ConfigParser()
    try:
        found = cp.read(path)
        raw = {sec: dict(cp[sec]) for sec in cp.sections()}
    except configparser.Error as exc:
        raise ConfigurationError(f"config {path}: {exc}") from None
    if not found:
        raise ConfigurationError(f"cannot read config {path}")
    if not cp.has_option("experiment", "kind"):
        raise ConfigurationError(f"config {path} names no [experiment] kind")

    def value(sec, key, parse):
        return _parsed(parse, cp.get(sec, key), f"config {path}: [{sec}] {key}")

    def section(name):
        return cp[name] if cp.has_section(name) else {}

    model = section("model")
    cfg = ExperimentConfig(
        **{fld: value(sec, key, parse) for (sec, key), (fld, parse) in _CONFIG_KEYS.items()
           if cp.has_option(sec, key)},
        model_params={key: value("model", key, parse_potential) for key in _POTENTIAL_KEYS
                      if key in model},
        thresholds={key: value("thresholds", key, float) for key in section("thresholds")},
        extras=dict(section("extras")),
        raw=raw,
    )
    if "alpha" in model:
        cfg.model_params["alpha"] = value("model", "alpha", lambda text: _alpha(text, cfg.d))
    cfg.validate()
    return cfg


@dataclass
class ConvergenceReport:
    rows: list                    # (lambda, sup_error, iterations, residual)
    monotone_within_factor: bool
    factor: float = 2.0

    @property
    def final_error(self) -> float:
        return self.rows[-1][1]


def convergence_report(sweep_entries, reference: GridField,
                       factor: float = 2.0) -> ConvergenceReport:
    """Sup-norm errors of a lambda sweep against a reference field.

    The monotone flag records whether each error stays within `factor` of its
    predecessor (nonincreasing up to that slack).  A failed entry re-raises
    its own exception type, naming its lam.
    """
    if not sweep_entries:
        raise ConfigurationError("empty sweep")
    rows = []
    for e in sweep_entries:
        if e.field is None:
            raise type(e.error)(f"sweep entry lam={e.lam} failed: {e.error}") from e.error
        err = float(np.max(np.abs(e.field.values - reference.values)))
        rows.append((e.lam, err, e.report.iterations, e.report.final_residual))
    mono = all(b[1] <= factor * a[1] + 1e-15 for a, b in zip(rows, rows[1:]))
    return ConvergenceReport(rows=rows, monotone_within_factor=mono, factor=factor)


# The writer of each artifact type; a barrier goes to <key>.pbar, the rest to <key>.csv.
_EXPORTERS = (
    (GridField, write_field_csv),
    (BarrierMatrix, write_barrier_binary),
    (DiscreteMeasure, write_measure_csv),
    (np.ndarray, write_node_csv),                   # projected / per-node weight vectors
    (SelectionResult, lambda sel, path: write_field_csv(sel.field, path)),  # a full evaluation
    (ConvergenceReport, lambda rep, path: write_convergence_csv(rep.rows, path)),
    (CurveTrace, write_trace_csv),
)


def export_all(results: dict, outdir: str) -> list:
    """Write each named artifact once, in its type's deterministic format.

    Returns the sorted list of file names written.  An empty result set
    yields nothing here (the caller still writes the manifest).
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    for key in sorted(results):
        obj = results[key]
        write = next((w for cls, w in _EXPORTERS if isinstance(obj, cls)), None)
        if write is None:
            raise ConfigurationError(f"no exporter for artifact {key!r} of type {type(obj)}")
        fn = key + (".pbar" if isinstance(obj, BarrierMatrix) else ".csv")
        write(obj, os.path.join(outdir, fn))
        written.append(fn)
    return sorted(written)


@dataclass
class StageRecord:
    name: str
    ok: bool
    details: dict = dc_field(default_factory=dict)
    warnings: list = dc_field(default_factory=list)
    error: Optional[str] = None         # "Type: message" of a fatal stage
    error_type: Optional[str] = None    # the exception's class name


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


def _threshold(cfg: ExperimentConfig, key: str) -> float:
    return float(cfg.thresholds.get(key, _KINDS[cfg.kind].thresholds[key]))


def _face_details(sel: SelectionResult) -> dict:
    """How the limit formula was evaluated on the Mather face."""
    return {"critical_arcs": sel.critical_arcs, "classes": sel.classes}


def _critical_problem(cfg: ExperimentConfig, arcs: Transition, model=None):
    """The critical polytope of `model` (the config's by default) on the
    kernel `arcs`, and the model with c0 = c.  The polytope owns c, the
    Peierls barrier and the kernel (`poly.arcs`) that the runner reuses."""
    model = cfg.model() if model is None else model
    poly = build_polytope(model, arcs)
    return poly, model.with_c0(poly.c)


# ---------------------------------------------------------------------------
# experiment pipelines
# ---------------------------------------------------------------------------

def _run_example_6_1(cfg: ExperimentConfig, artifacts: dict, stages: list):
    """Diophantine-rotation reproduction: the selected limit is the mean of
    the target potential; the sweep error against that constant must close
    below the threshold and decay monotonically (within a factor)."""
    poly, model = _critical_problem(cfg, cfg.arcs(cfg.dt))     # its potential is -target
    target, grid = cfg.target(), poly.grid
    alpha = model.params.get("alpha", np.array([0.0]))
    stages.append(StageRecord("critical_value", True, {
        "c": poly.c, "half_alpha_sq": float(0.5 * np.sum(alpha**2))}))

    h = poly.barrier
    artifacts["barrier_peierls"] = h
    stages.append(StageRecord("peierls_barrier", True,
                              {"max_abs": float(np.max(np.abs(h.values))),
                               "aubry_nodes": int(aubry_set(h).size)},
                              warnings=list(h.warnings)))

    V0 = GridField.from_function(grid, model.V0)
    sel = limit_solution_formula(model, V0, poly)
    artifacts["limit_solution"] = sel
    target_mean = float(np.mean(target(grid.node_coords())))
    formula_err = float(np.max(np.abs(sel.field.values - target_mean)))
    stages.append(StageRecord("limit_formula", True, {
        "target_mean": target_mean, "sup_error_vs_mean": formula_err,
        **_face_details(sel)}))

    bracket = compute_bracket(model, GridField.constant(grid, 0.0))
    entries = lambda_sweep(model, cfg.lambdas, poly.arcs, tol=cfg.tol,
                           max_iter=cfg.max_iter, bracket=bracket)
    reference = GridField.constant(grid, target_mean)
    rep = convergence_report(entries, reference, _threshold(cfg, "monotone_factor"))
    artifacts["convergence"] = rep
    artifacts["final_field"] = entries[-1].field
    thr = _threshold(cfg, "final_sup_error")
    ok = rep.final_error <= thr and rep.monotone_within_factor
    stages.append(StageRecord("lambda_sweep", ok, {
        "rows": rep.rows, "final_error": rep.final_error,
        "threshold": thr, "monotone": rep.monotone_within_factor}))


def _run_vanishing_discount(cfg: ExperimentConfig, artifacts: dict, stages: list):
    """Classical discounted limit against the limit-solution formula, plus
    its closed form when every static class is one node z_S: the Mather
    measures are then mixtures of Diracs at the critical arcs (z_S, v), so
    u0 = min over those arcs of h(z_S, .) - V0(z_S) / sigma(z_S, v), with
    sigma = -dL/du(z_S, v, 0).  Larger classes raise ConfigurationError."""
    poly, model = _critical_problem(cfg, cfg.arcs(cfg.dt))
    grid, vs = poly.grid, poly.vset
    stages.append(StageRecord("critical_value", True, {"c": poly.c}))

    h = poly.barrier
    artifacts["barrier_peierls"] = h
    stages.append(StageRecord("peierls_barrier", True,
                              {"min_diag": float(np.min(h.diagonal())),
                               "aubry_nodes": int(aubry_set(h).size)},
                              warnings=list(h.warnings)))

    V0 = GridField.from_function(grid, model.V0)
    sel = limit_solution_formula(model, V0, poly)
    artifacts["limit_solution"] = sel
    xstar = int(aubry_set(h)[0])
    sizes = np.bincount(poly.static_classes()[1])
    if sizes.max() > 1:
        raise ConfigurationError("the closed form needs one-node static classes "
                                 f"(Dirac Mather measures); class sizes: {sizes.tolist()}")
    crit = poly.critical                        # one Dirac per arc (z_S, v)
    foot, sigma = crit // vs.count, -_dl_flat(model, poly)[crit]
    closed_form = GridField(grid, np.min(h.values[foot] - (V0.values[foot] / sigma)[:, None],
                                         axis=0))
    stages.append(StageRecord("limit_formula", True, {
        "aubry_node": xstar,
        "formula_vs_closed_form": float(np.max(np.abs(sel.field.values - closed_form.values))),
        **_face_details(sel)}))

    bracket = compute_bracket(model, solution_from_barrier(h, xstar))
    entries = lambda_sweep(model, cfg.lambdas, poly.arcs, tol=cfg.tol,
                           max_iter=cfg.max_iter, bracket=bracket)
    rep = convergence_report(entries, sel.field, _threshold(cfg, "monotone_factor"))
    artifacts["convergence"] = rep
    artifacts["final_field"] = entries[-1].field
    final_vs_closed = float(np.max(np.abs(entries[-1].field.values - closed_form.values)))
    thr = _threshold(cfg, "final_sup_error")
    ok = rep.final_error <= thr and final_vs_closed <= thr
    stages.append(StageRecord("lambda_sweep", ok, {
        "rows": rep.rows, "final_error_vs_formula": rep.final_error,
        "final_error_vs_closed_form": final_vs_closed, "threshold": thr}))


def _run_nonexistence(cfg: ExperimentConfig, artifacts: dict, stages: list):
    """Nonexistence certificate across discounts, plus solver behavior on
    both sides of the existence threshold."""
    poly, model = _critical_problem(cfg, cfg.arcs(cfg.dt))
    grid = poly.grid
    stages.append(StageRecord("critical_value", True, {"c": poly.c}))

    cert_true = cfg.extra("certificate_true", (1.5, 2.0, 4.0))
    cert_false = cfg.extra("certificate_false", (0.1, 0.5))
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
    solve_lams = cfg.extra("solve_lambdas", (0.5, 2.0))
    outcomes = {}
    ok2 = True
    for lam in solve_lams:
        fld, rep = solve_perturbed(model, lam, poly.arcs, tol=cfg.tol,
                                   max_iter=cfg.max_iter, bracket=bracket)
        certified_gone = (certs[str(lam)] if str(lam) in certs
                          else nonexistence_certificate(model, lam, grid))
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


def _run_operator_suite(cfg: ExperimentConfig, artifacts: dict, stages: list):
    """Nonexpansiveness, image-solves, fixed-point, and idempotence checks of
    the selection operator at scale."""
    pairs = cfg.extra("lipschitz_pairs", 20)
    if pairs < 1:
        raise ConfigurationError(f"lipschitz_pairs must be at least 1, got {pairs}")
    poly, model = _critical_problem(cfg, cfg.arcs(cfg.dt))
    grid = poly.grid
    h = poly.barrier
    artifacts["barrier_peierls"] = h
    sigma1 = GridField.constant(grid, 1.0)
    rng = cfg.rng()

    slack = _threshold(cfg, "lipschitz_slack")
    lip_ok = True
    lip_rows = []
    for i in range(pairs):
        f1, f2 = _smooth_random_fields(grid, rng, 2)
        lhs, rhs, passed = check_operator_lipschitz(sigma1, f1, f2, poly, slack=slack)
        lip_rows.append((i, lhs, rhs, passed))
        lip_ok &= passed
    stages.append(StageRecord("lipschitz", lip_ok,
                              {"pairs": pairs, "slack": slack,
                               "rows": [(i, float(a), float(b), bool(p)) for i, a, b, p in lip_rows]}))

    image_C = _threshold(cfg, "image_residual_c")
    img_ok = True
    img_residuals = []
    for f in _smooth_random_fields(grid, rng, 3):
        img = apply_selection_operator(sigma1, f, poly).field
        r = residual(model, 0.0, img, poly.arcs)
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
        passed, diff = check_fixed_point(sigma1, col, poly, tol=3 * grid_err)
        fp_rows.append((int(y), diff, passed))
        fp_ok &= passed
    stages.append(StageRecord("fixed_point", fp_ok, {
        "aubry_nodes": int(aubry_set(h).size), "tol": 3 * grid_err,
        "rows": [(y, float(dv), bool(p)) for y, dv, p in fp_rows]}))

    idem_tol = 2 * 3 * grid_err
    phi = _smooth_random_fields(grid, rng, 1)[0]
    p1 = apply_selection_operator(sigma1, phi, poly).field
    p2 = apply_selection_operator(sigma1, p1, poly).field
    idiff = float(np.max(np.abs(p2.values - p1.values)))
    stages.append(StageRecord("idempotence", idiff <= idem_tol,
                              {"diff": idiff, "tol": idem_tol}))
    artifacts["operator_image"] = p1


def _run_occupation_suite(cfg: ExperimentConfig, artifacts: dict, stages: list):
    """Occupation-measure identities along a discount sweep: mass identity
    and its dt-order, closedness-defect scaling, and TV approach to the
    minimizing measure.  The critical polytope is at the lattice dt; the
    solves and traces are at cfg.dt, else 1e-3.  A trace that rests ends
    there; its horizon, 10/lam in the sweep and 14/lam at the mass
    identity's lambda, only caps one that does not.  When that lambda is one
    of the sweep's, the mass identity reads the sweep's field and trace, and
    the dt/2 solve starts from that field."""
    N = cfg.grid().size
    start_node = cfg.extra("start_node", N // 3)
    if not 0 <= start_node < N:
        raise ConfigurationError(f"start_node must lie in [0, {N}), got {start_node}")
    lams = cfg.lambdas or (0.2, 0.1, 0.05)
    lam_mi = float(cfg.extra("mass_identity_lambda", lams[-1]))
    if not lam_mi > 0:
        raise ConfigurationError(f"mass_identity_lambda must be positive, got {lam_mi:g}")
    poly, model = _critical_problem(cfg, cfg.arcs())
    grid = poly.grid
    dt = cfg.dt if cfg.dt is not None else 1e-3
    arcs = cfg.arcs(dt)     # the solves', traces' and closedness defects' kernel
    h = poly.barrier
    xstar = int(aubry_set(h)[0])
    bracket = compute_bracket(model, solution_from_barrier(h, xstar))
    lp_mu = poly.critical_measure

    start = grid.node_coords()[start_node]

    def solve_and_trace(lam, kernel, warm):
        fld, _ = solve_perturbed(model, lam, kernel, tol=cfg.tol,
                                 max_iter=cfg.max_iter, bracket=bracket, init=warm)
        Tmax = (14.0 if lam == lam_mi else 10.0) / lam
        return fld, backward_calibrated_curve(model, lam, fld, start, Tmax=Tmax,
                                              arcs=kernel, solver_tol=cfg.tol)

    tv_seq, defect_seq = [], []
    fld, at_mi = None, None
    for lam in lams:
        fld, tr = solve_and_trace(lam, arcs, fld)
        if lam == lam_mi:
            at_mi = fld, tr
        mu = occupation_measure(tr)
        tv = 0.5 * float(np.abs(mu.projected() - lp_mu.projected()).sum())
        dfct = closedness_defect(mu, tr.arcs)
        tv_seq.append(tv)
        defect_seq.append(dfct)
        artifacts[f"occupation_lam_{lam}"] = mu
        artifacts[f"occupation_lam_{lam}_projected"] = mu.projected()
    lam_arr = np.asarray(lams)
    dfct_arr = np.asarray(defect_seq)
    Cfit = float(np.sum(dfct_arr * lam_arr) / np.sum(lam_arr**2))
    defect_ok = bool(np.all(dfct_arr <= 2.0 * Cfit * lam_arr + 1e-12))
    tv_ok = all(b <= _threshold(cfg, "tv_factor") * a + 1e-12
                for a, b in zip(tv_seq, tv_seq[1:])) and tv_seq[-1] <= tv_seq[0]
    stages.append(StageRecord("sweep_diagnostics", defect_ok and tv_ok, {
        "lambdas": list(lams), "tv": tv_seq, "closedness_defect": defect_seq,
        "defect_fit_C": Cfit}))

    fld, tr1 = at_mi or solve_and_trace(lam_mi, arcs, fld)
    err1 = check_mass_identity(tr1)
    _, tr2 = solve_and_trace(lam_mi, cfg.arcs(dt / 2), fld)
    err2 = check_mass_identity(tr2)
    ratio = err1 / max(err2, 1e-300)
    mi_ok = err1 <= _threshold(cfg, "mass_identity_rel") and 1.5 <= ratio <= 2.5
    artifacts["trace_mass_identity"] = tr1
    stages.append(StageRecord("mass_identity", mi_ok, {
        "lambda": lam_mi, "rel_error_dt": err1, "rel_error_half_dt": err2,
        "ratio": ratio}))


def _run_barrier_suite(cfg: ExperimentConfig, artifacts: dict, stages: list):
    """Three-route critical values of the config's mechanical model, whose c
    is max U over the nodes, and of the shifted quadratic, plus barrier
    structure diagnostics (triangle inequality, column residuals), all at
    the lattice dt."""
    arcs = cfg.arcs()
    grid = arcs.grid
    rng = cfg.rng()

    mech = cfg.model()
    nodes = grid.node_coords()
    c_mech = float(np.max(mech.H(nodes, np.zeros_like(nodes), 0.0)))    # max U
    vs_c = velocity_set(cfg.vmax, cfg.extra("m_critical", 33), cfg.d)
    cd = critical_value(mech, ("lp", "discount", "longtime"), Transition(grid, vs_c))
    tol_mech = _threshold(cfg, "critical_tol_mechanical")
    ok1 = cd.spread <= tol_mech and abs(cd.c - c_mech) <= tol_mech
    stages.append(StageRecord("critical_mechanical", ok1, {
        "per_method": cd.per_method, "spread": cd.spread, "analytic": c_mech}))

    alpha = cfg.extra("alpha", np.full(cfg.d, (np.sqrt(5.0) - 1.0) / 2.0))
    sq = builtin_model("shifted_quadratic", d=cfg.d, alpha=alpha)
    cd2 = critical_value(sq, ("lp", "discount", "longtime"), arcs)
    tol_sq = _threshold(cfg, "critical_tol_shifted")
    half_a2 = float(0.5 * np.sum(alpha**2))
    ok2 = all(abs(v - half_a2) <= tol_sq for v in cd2.per_method.values())
    stages.append(StageRecord("critical_shifted_quadratic", ok2, {
        "per_method": cd2.per_method, "spread": cd2.spread, "analytic": half_a2}))

    poly, mech = _critical_problem(cfg, arcs, model=mech)
    h = poly.barrier
    artifacts["barrier_mechanical"] = h
    tol_tri = _threshold(cfg, "tol_tri")
    x, y, z = rng.integers(0, grid.size, size=(1000, 3)).T
    H = h.values
    viol = max(0.0, float(np.max(H[x, z] - H[x, y] - H[y, z])))
    ok3 = viol <= 3 * tol_tri
    col = solution_from_barrier(h, int(aubry_set(h)[0]))
    col_res = residual(mech, 0.0, col, poly.arcs)
    Ccol = _threshold(cfg, "column_residual_c")
    ok4 = col_res <= Ccol * grid.h
    stages.append(StageRecord("barrier_structure", ok3 and ok4, {
        "max_triangle_violation": float(viol), "triangle_bound": 3 * tol_tri,
        "column_residual": col_res, "column_bound": Ccol * grid.h,
        "aubry_nodes": int(aubry_set(h).size)}))


@dataclass(frozen=True)
class _Kind:
    """An experiment kind: its runner, the [thresholds] keys it reads with
    their defaults, the [extras] keys it reads with the parser of (text, d)
    that reads each (`ExperimentConfig.extra`), and whether it draws from
    `cfg.rng()`.  `validate` refuses any other threshold or extra, so a
    misspelt one cannot be ignored, parses every extra given, and builds a
    seeded kind's generator."""

    run: Callable
    thresholds: dict
    extras: dict = dc_field(default_factory=dict)
    seeded: bool = False


_SWEEP_THRESHOLDS = {"monotone_factor": 2.0, "final_sup_error": 0.05}
_KINDS = {
    "vanishing_discount": _Kind(_run_vanishing_discount, _SWEEP_THRESHOLDS),
    "example_6_1": _Kind(_run_example_6_1, _SWEEP_THRESHOLDS),
    "nonexistence_3_4": _Kind(_run_nonexistence, {},
                              dict.fromkeys(("certificate_true", "certificate_false",
                                             "solve_lambdas"), _text_only(_floats))),
    "operator_suite": _Kind(_run_operator_suite,
                            {"lipschitz_slack": 1e-7, "image_residual_c": 25.0},
                            {"lipschitz_pairs": _text_only(int)}, seeded=True),
    "occupation_suite": _Kind(_run_occupation_suite,
                              {"tv_factor": 2.0, "mass_identity_rel": 0.05},
                              {"start_node": _text_only(int),
                               "mass_identity_lambda": _text_only(float)}),
    "barrier_suite": _Kind(_run_barrier_suite,
                           {"critical_tol_mechanical": 0.05, "critical_tol_shifted": 0.02,
                            "tol_tri": 5e-3, "column_residual_c": 25.0},
                           {"m_critical": _text_only(int), "alpha": _alpha}, seeded=True),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(config, output: Optional[str] = None,
                   strict: bool = False) -> RunResult:
    """Run one experiment pipeline and write its artifact directory.

    `config` is a path or an ExperimentConfig.  The manifest echoes the
    config, library versions, every tolerance and discretization parameter
    the run used, the stage records, and the artifact hashes; wall time goes
    to a separate timings file so artifacts stay byte-reproducible.
    """
    if isinstance(config, (str, os.PathLike)):
        cfg = parse_config(config)      # which validates it
    else:
        cfg = config
        cfg.validate()
    root = output or os.environ.get("TORUSHJ_OUTPUT_ROOT", "runs")
    outdir = root if output else os.path.join(root, cfg.name)
    os.makedirs(outdir, exist_ok=True)

    artifacts: dict = {}
    stages: list = []
    t0 = time.time()
    try:
        _KINDS[cfg.kind].run(cfg, artifacts, stages)
    except Exception as exc:  # noqa: BLE001 - partial artifacts are kept on purpose
        stages.append(StageRecord("fatal", False, error=f"{type(exc).__name__}: {exc}",
                                  error_type=type(exc).__name__))
    wall = time.time() - t0

    files = export_all(artifacts, outdir)
    passed = all(s.ok for s in stages) and not (strict and any(s.warnings for s in stages))

    manifest = {
        "config": cfg.raw or _config_echo(cfg),
        "kind": cfg.kind,
        "name": cfg.name,
        "versions": {"torushj": __version__, "numpy": np.__version__,
                     "scipy": _SCIPY_VERSION},
        "seed": cfg.seed,
        "parameters": _config_echo(cfg),
        "stages": [{
            "name": s.name, "ok": s.ok, "details": s.details,
            "warnings": s.warnings, "error": s.error, "error_type": s.error_type,
        } for s in stages],
        "failing_stage": next((s.name for s in stages if not s.ok), None),
        "passed": passed,
        "strict": strict,
        "artifacts": files,
        "hashes": hash_directory(outdir, files),
    }
    write_manifest(manifest, os.path.join(outdir, "manifest.json"))
    write_manifest({"wall_time_seconds": wall}, os.path.join(outdir, TIMINGS_FILE))
    return RunResult(outdir=outdir, passed=passed, stages=stages, manifest=manifest)


def _config_echo(cfg: ExperimentConfig) -> dict:
    """Every config field but the model's callables and the INI text."""
    return {"model" if f.name == "model_name" else f.name: getattr(cfg, f.name)
            for f in dc_fields(cfg) if f.name not in ("model_params", "raw")}
