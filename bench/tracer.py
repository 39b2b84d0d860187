"""Per-layer spans for torushj, recorded from outside the package.

`Tracer.install()` rebinds each layer's public functions, in every loaded
`torushj` module that holds them, to a timing wrapper.  Spans are kept in
memory as `[layer, name, parent, start, end]` rows; `layer_metrics` turns
them into the per-layer figures the benchmark prints.  A name that a layer
no longer defines is reported in `missing` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer -> [(module that defines the function, attribute name), ...]
LAYERS = {
    "solver": [("torushj.solver", n) for n in (
        "solve_perturbed", "lambda_sweep", "bellman_apply", "residual",
        "compute_bracket", "nonexistence_certificate")],
    "barrier": [("torushj.barrier", n) for n in (
        "peierls_barrier", "evolve_action", "critical_value", "min_action_step",
        "aubry_set", "solution_from_barrier")],
    "matherlp": [("torushj.matherlp", n) for n in (
        "solve_mather_lp", "fractional_minimize", "minimize_linear_over_mather",
        "build_polytope", "closedness_operator")],
    "selection": [("torushj.selection", n) for n in (
        "apply_selection_operator", "limit_solution_formula", "check_fixed_point",
        "check_operator_lipschitz", "measure_comparison",
        "check_largest_subsolution", "equilibrium_measures")],
    "curves": [("torushj.curves", n) for n in (
        "backward_calibrated_curve", "occupation_measure", "check_mass_identity",
        "closedness_defect", "check_calibration", "speed_bound_check")],
    "artifacts": [("torushj.experiments", "export_all"),
                  ("torushj.artifacts", "hash_directory")],
}

# Methods counted per call without a span (one call = one action-DP step).
COUNTED_METHODS = [("torushj.barrier", "_ActionKernel", "step", "barrier.dp_steps")]

LP_FUNCTIONS = ("solve_mather_lp", "fractional_minimize", "minimize_linear_over_mather")
APPLICATIONS = ("apply_selection_operator", "limit_solution_formula")

# Counts that must repeat exactly between traced runs of the same code.
EXACT_COUNTS = ("solver.sweeps", "matherlp.lp_count", "selection.nodes",
                "curves.trace_steps", "barrier.dp_steps")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _on_solve(counts, args, kwargs, result):
    report = result[1]
    counts["solver.sweeps"] += report.iterations
    counts["solver.unconverged"] += 0 if report.converged else 1


def _lp_hook(polytope_index):
    def on_lp(counts, args, kwargs, result):
        counts["matherlp.lp_count"] += 1
        counts["matherlp.lp_vars_total"] += _arg(args, kwargs, polytope_index, "polytope").num_vars
    return on_lp


def _on_application(counts, args, kwargs, result):
    counts["selection.applications"] += 1
    counts["selection.nodes"] += len(result.per_x_value)


def _on_trace(counts, args, kwargs, result):
    counts["curves.trace_steps"] += result.steps


def _on_peierls(counts, args, kwargs, result):
    counts["barrier.warnings"] += len(result.warnings)


RESULT_HOOKS = {
    "solve_perturbed": _on_solve,
    "solve_mather_lp": _lp_hook(1),
    "fractional_minimize": _lp_hook(0),
    "minimize_linear_over_mather": _lp_hook(0),
    "apply_selection_operator": _on_application,
    "limit_solution_formula": _on_application,
    "backward_calibrated_curve": _on_trace,
    "peierls_barrier": _on_peierls,
}


def _module(name: str):
    """The module, or None when a refactor removed it."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Span recorder plus the wrapper installation that feeds it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.missing: list = []
        self._stack: list = []
        self._undo: list = []

    def wrap(self, layer: str, name: str, fn, hook=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock
        missing = self.missing

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [layer, name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(row)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[4] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(counts, args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - a changed API must not stop the run
                    note = f"{name} result hook: {type(exc).__name__}: {exc}"
                    if note not in missing:
                        missing.append(note)
            return result

        return traced

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "torushj" or modname.startswith("torushj.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self, layers=None, counted_methods=None) -> None:
        layers = LAYERS if layers is None else layers
        counted_methods = COUNTED_METHODS if counted_methods is None else counted_methods
        for layer, entries in layers.items():
            for modname, name in entries:
                original = getattr(_module(modname), name, None)
                if not callable(original):
                    self.missing.append(f"{modname}.{name}")
                    continue
                self._rebind_everywhere(
                    original, self.wrap(layer, name, original, RESULT_HOOKS.get(name)))
        for modname, clsname, meth, key in counted_methods:
            cls = getattr(_module(modname), clsname, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if not callable(original):
                self.missing.append(f"{modname}.{clsname}.{meth}")
                continue
            setattr(cls, meth, self.counter(key, original))
            self._undo.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans) -> list:
    """Each span's duration minus the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for _layer, _name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_l, _n, _p, start, end) in enumerate(spans)]


def layer_metrics(spans, counts, wall_s: float) -> dict:
    """Per-layer figures of one traced run (times in s, rates as named)."""
    selfs = self_times(spans)
    layer_self = defaultdict(float)
    inclusive = defaultdict(float)
    for (layer, name, _p, start, end), own in zip(spans, selfs):
        layer_self[layer] += own
        inclusive[name] += end - start
    lp_count = counts.get("matherlp.lp_count", 0)
    lp_s = sum(inclusive[n] for n in LP_FUNCTIONS)
    sweeps = counts.get("solver.sweeps", 0)
    nodes = counts.get("selection.nodes", 0)
    steps = counts.get("curves.trace_steps", 0)
    app_s = sum(inclusive[n] for n in APPLICATIONS)
    out = {
        "solver.solve_s": layer_self["solver"],
        "solver.sweeps": sweeps,
        "solver.us_per_sweep": 1e6 * inclusive["solve_perturbed"] / sweeps if sweeps else 0.0,
        "solver.unconverged": counts.get("solver.unconverged", 0),
        "matherlp.lp_count": lp_count,
        "matherlp.lp_s": lp_s,
        "matherlp.ms_per_lp": 1e3 * lp_s / lp_count if lp_count else 0.0,
        "matherlp.lp_vars": counts.get("matherlp.lp_vars_total", 0) / lp_count if lp_count else 0.0,
        "selection.applications": counts.get("selection.applications", 0),
        "selection.nodes": nodes,
        "selection.self_s": layer_self["selection"],
        "selection.ms_per_node": 1e3 * app_s / nodes if nodes else 0.0,
        "barrier.peierls_s": inclusive["peierls_barrier"],
        "barrier.longtime_s": inclusive["evolve_action"],
        "barrier.dp_steps": counts.get("barrier.dp_steps", 0),
        "barrier.warnings": counts.get("barrier.warnings", 0),
        "curves.trace_steps": steps,
        "curves.trace_s": inclusive["backward_calibrated_curve"],
        "curves.us_per_step": 1e6 * inclusive["backward_calibrated_curve"] / steps if steps else 0.0,
        "curves.occupation_s": inclusive["occupation_measure"],
        "artifacts.export_s": inclusive["export_all"],
        "artifacts.hash_s": inclusive["hash_directory"],
    }
    for layer in LAYERS:
        out[f"{layer}.wall_frac"] = layer_self[layer] / wall_s if wall_s > 0 else 0.0
    return out
