import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

import torushj.barrier as barrier
import torushj.experiments as experiments
from torushj.errors import ConfigurationError, DomainError, SolveError
from torushj.experiments import (
    ExperimentConfig,
    convergence_report,
    export_all,
    parse_config,
    parse_potential,
    run_experiment,
)
from torushj.grids import GridField, PeriodicGrid
from torushj.models import builtin_model, velocity_set
from torushj.selection import SelectionResult
from torushj.solver import SweepEntry, SolveReport, Transition, lambda_sweep


def test_parse_potential_grammar():
    X = np.array([[0.25], [0.5]])
    assert np.all(parse_potential("zero")(X) == 0.0)
    np.testing.assert_allclose(parse_potential("const:value=0.3")(X), 0.3)
    np.testing.assert_allclose(parse_potential("sin:freq=1,offset=0.3")(X),
                               np.sin(2 * np.pi * X[:, 0]) + 0.3)
    np.testing.assert_allclose(parse_potential("cos:amp=2,freq=2")(X),
                               2 * np.cos(4 * np.pi * X[:, 0]))
    Y = np.array([[0.25, 0.5]])
    np.testing.assert_allclose(parse_potential("cos_sum:amp=2,freq=1,offset=0.5")(Y),
                               2 * (np.cos(np.pi / 2) + np.cos(np.pi)) + 0.5)
    with pytest.raises(ConfigurationError):
        parse_potential("polynomial:deg=3")


@pytest.mark.parametrize("spec, message", [
    ("cos:ampp=2,freq=1", "cos reads no key 'ampp'"),
    ("zero:amp=3", "zero reads no key 'amp'"),
    ("const:amp=3", "const reads no key 'amp'"),
    ("cos:amp", "item 'amp' is not key=number"),
    ("sin:amp=1,", "item '' is not key=number"),
    ("cos_sum:freq=two", "item 'freq=two' is not key=number"),
])
def test_parse_potential_refuses_unread_keys_and_malformed_items(tmp_path, spec, message):
    # a misspelt key would leave its default in force without a word
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        parse_potential(spec)
    text = (CONFIG_DIR / "barrier_suite.cfg").read_text()
    assert "U = cos:amp=1,freq=1" in text
    path = tmp_path / "potential.cfg"
    path.write_text(text.replace("U = cos:amp=1,freq=1", f"U = {spec}"))
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        parse_config(str(path))


def _entry(grid, lam, values, iters=10, resid=1e-9):
    rep = SolveReport(lam=lam, iterations=iters, final_residual=resid,
                      bracket_violations=0, converged=True)
    return SweepEntry(lam, GridField(grid, values), rep)


def test_convergence_report_rows_and_monotonicity():
    grid = PeriodicGrid(1, 8)
    ref = GridField.constant(grid, 0.0)
    entries = [_entry(grid, 0.1, np.full(8, 0.08)),
               _entry(grid, 0.03, np.full(8, 0.03)),
               _entry(grid, 0.01, np.full(8, 0.012))]
    rep = convergence_report(entries, ref)
    assert len(rep.rows) == 3
    assert rep.final_error == pytest.approx(0.012)
    assert rep.monotone_within_factor

    # identical fields vs themselves: all-zero errors
    same = [_entry(grid, lam, np.zeros(8)) for lam in (0.1, 0.05)]
    rep0 = convergence_report(same, ref)
    assert all(r[1] == 0.0 for r in rep0.rows)

    # reference = last iterate: final row error 0 by construction
    entries2 = [_entry(grid, 0.1, np.full(8, 0.3)), _entry(grid, 0.05, np.full(8, 0.1))]
    rep2 = convergence_report(entries2, entries2[-1].field)
    assert rep2.rows[-1][1] == 0.0

    # an error jump beyond the factor clears the flag
    bad = [_entry(grid, 0.1, np.full(8, 0.01)), _entry(grid, 0.05, np.full(8, 0.05))]
    assert not convergence_report(bad, ref).monotone_within_factor


def test_convergence_report_keeps_the_failure_type():
    # a sweep entry whose solve left the field non-finite is a DomainError,
    # and the report re-raises that type, naming the entry's lam
    grid, vset = PeriodicGrid(1, 16), velocity_set(2.0, 9)
    model = builtin_model("mechanical", U=parse_potential("cos:amp=1,freq=1")).with_c0(1.0)
    nan_V = dataclasses.replace(model, V=lambda x, lam: np.full(x.shape[:-1], np.nan))
    entries = lambda_sweep(nan_V, [0.5], Transition(grid, vset), max_iter=3)
    with pytest.raises(DomainError, match="lam=0.5 failed: .*finite") as info:
        convergence_report(entries, GridField.constant(grid, 0.0))
    assert info.value.__cause__ is entries[0].error


def test_export_all_dispatch(tmp_path):
    grid = PeriodicGrid(1, 8)
    assert export_all({}, str(tmp_path)) == []
    files = export_all({
        "field": GridField.constant(grid, 1.0),
        "report": convergence_report(
            [_entry(grid, 0.1, np.zeros(8))], GridField.constant(grid, 0.0)),
    }, str(tmp_path))
    assert files == ["field.csv", "report.csv"]
    with pytest.raises(ConfigurationError):
        export_all({"weird": object()}, str(tmp_path))


def test_export_all_writes_each_artifact_once(tmp_path):
    """At N <= 32 nodes a barrier is its .pbar alone, with no CSV twin, and a
    selected limit its field CSV alone, with no <key>_values.csv."""
    grid = PeriodicGrid(1, 8)
    values = np.linspace(0.0, 1.0, 8)
    files = export_all({"barrier_peierls": barrier.BarrierMatrix(grid, np.zeros((8, 8))),
                        "limit_solution": SelectionResult(GridField(grid, values), values)},
                       str(tmp_path))
    assert files == ["barrier_peierls.pbar", "limit_solution.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == files


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
COS = "cos:amp=1,freq=1"
# Every field of a bundled config that is not its default; potentials as
# their specs.  Threshold keys are lower case, as configparser folds them.
BUNDLED = {
    "barrier_suite": dict(
        model_params={"U": COS},
        thresholds={"critical_tol_mechanical": 0.05, "critical_tol_shifted": 0.02,
                    "tol_tri": 5e-3, "column_residual_c": 25.0},
        extras={"m_critical": "33", "alpha": "0.6180339887498949"}),
    "example_6_1": dict(
        model_name="shifted_quadratic",
        model_params={"alpha": [0.6180339887498949], "target": "sin:freq=1,offset=0.3"},
        max_iter=400000, lambdas=(0.1, 0.03, 0.01, 0.003, 0.001),
        thresholds={"final_sup_error": 0.05, "monotone_factor": 2.0}),
    "nonexistence_3_4": dict(
        model_name="arctan_discount", n=64, m=33, max_iter=100000,
        extras={"certificate_true": "1.5 2 4", "certificate_false": "0.1 0.5",
                "solve_lambdas": "0.5 2.0"}),
    "occupation_suite": dict(
        model_params={"U": COS}, dt=1e-3, lambdas=(0.2, 0.1, 0.05),
        thresholds={"mass_identity_rel": 0.05, "tv_factor": 2.0},
        extras={"mass_identity_lambda": "0.05", "start_node": "42"}),
    "operator_suite": dict(
        model_params={"U": COS},
        thresholds={"lipschitz_slack": 1e-7, "image_residual_c": 25.0},
        extras={"lipschitz_pairs": "20"}),
    "vanishing_discount": dict(
        model_params={"U": COS, "potential": "zero"}, max_iter=400000,
        lambdas=(0.1, 0.03, 0.01, 0.003, 0.001), thresholds={"final_sup_error": 0.05}),
}


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_configs_parse_to_pinned_fields(name):
    cfg = parse_config(str(CONFIG_DIR / f"{name}.cfg"))
    pinned = dict(BUNDLED[name])
    params = pinned.pop("model_params", {})
    assert cfg == ExperimentConfig(kind=name, **pinned, model_params=cfg.model_params,
                                   raw=cfg.raw)
    assert sorted(cfg.model_params) == sorted(params)
    X = PeriodicGrid(1, 16).node_coords()
    for key, spec in params.items():
        if key == "alpha":
            np.testing.assert_array_equal(cfg.model_params[key], spec)
        else:
            np.testing.assert_array_equal(cfg.model_params[key](X), parse_potential(spec)(X))


def test_config_of_a_kind_alone_takes_every_default(tmp_path):
    path = tmp_path / "kind.cfg"
    path.write_text("[experiment]\nkind = operator_suite\n")
    assert parse_config(str(path)) == ExperimentConfig(
        kind="operator_suite", raw={"experiment": {"kind": "operator_suite"}})


def test_unknown_thresholds_and_extras_are_refused(tmp_path):
    # a key the kind's runner does not read would be silently ignored
    text = (CONFIG_DIR / "example_6_1.cfg").read_text()
    path = tmp_path / "typo.cfg"
    path.write_text(text.replace("[thresholds]", "[thresholds]\nfinal_sup_eror = 1e-12"))
    with pytest.raises(ConfigurationError, match="final_sup_eror"):
        parse_config(str(path))
    cfg = ExperimentConfig(kind="barrier_suite", extras={"start_node": "3"})
    with pytest.raises(ConfigurationError, match=r"\[extras\] key 'start_node'"):
        cfg.validate()
    # other sections keep keys that no runner reads
    path.write_text(text + "\n[barrier]\ntmax = 24.0\n")
    assert parse_config(str(path)).raw["barrier"] == {"tmax": "24.0"}


@pytest.mark.parametrize("lambdas", ["0.1, 0", "0.1, -0.1", "0"])
def test_nonpositive_discounts_are_refused_by_validate(tmp_path, lambdas):
    # without this, example_6_1 builds the polytope, the barrier and the
    # limit formula before the sweep fails
    text = (CONFIG_DIR / "example_6_1.cfg").read_text()
    schedule = "lambdas = 0.1, 0.03, 0.01, 0.003, 0.001"
    assert schedule in text
    path = tmp_path / "lambdas.cfg"
    path.write_text(text.replace(schedule, f"lambdas = {lambdas}"))
    with pytest.raises(ConfigurationError, match="must be positive"):
        parse_config(str(path))
    path.write_text(text.replace(schedule, "lambdas = 0.1, 1e-6"))
    assert parse_config(str(path)).lambdas == (0.1, 1e-6)


def test_negative_seed_of_a_seeded_kind_is_refused(tmp_path):
    # default_rng's own ValueError would surface only as a fatal stage
    text = (CONFIG_DIR / "barrier_suite.cfg").read_text()
    path = tmp_path / "seed.cfg"
    assert "seed = 20240601" in text
    path.write_text(text.replace("seed = 20240601", "seed = -1"))
    with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
        parse_config(str(path))
    with pytest.raises(ConfigurationError, match="seed"):
        ExperimentConfig(kind="operator_suite", seed=-1).rng()


def test_config_without_a_kind_is_refused(tmp_path):
    path = tmp_path / "nokind.cfg"
    path.write_text("[grid]\nn = 16\n")
    with pytest.raises(ConfigurationError, match="kind"):
        parse_config(str(path))


def test_validate_applies_the_model_rules():
    cfg = ExperimentConfig(kind="example_6_1", name="e61", model_name="shifted_quadratic",
                           model_params={"alpha": np.array([0.3, 0.5])})
    with pytest.raises(ConfigurationError, match="alpha must have 1 components"):
        cfg.validate()


def test_threshold_keys_are_case_blind(tmp_path):
    path = tmp_path / "barrier.cfg"
    path.write_text("[experiment]\nkind = barrier_suite\n[grid]\nn = 16\n"
                    "[velocities]\nvmax = 2.0\nm = 9\n"
                    "[thresholds]\ncolumn_residual_C = 7.0\n[extras]\nm_critical = 9\n")
    res = run_experiment(str(path), output=str(tmp_path / "out"))
    assert res.stages[-1].details["column_bound"] == 7.0 / 16


def test_small_example_pipeline(tmp_path):
    cfg = ExperimentConfig(
        kind="example_6_1", name="e61_small",
        model_name="shifted_quadratic",
        model_params={"alpha": (np.sqrt(5) - 1) / 2,
                      "target": parse_potential("sin:freq=1,offset=0.3")},
        n=32, vmax=2.0, m=17, tol=1e-8, max_iter=100000,
        lambdas=(0.1, 0.03),
        thresholds={"final_sup_error": 0.2},
    )
    res = run_experiment(cfg, output=str(tmp_path / "out"))
    assert res.passed
    names = {s.name for s in res.stages}
    assert names == {"critical_value", "peierls_barrier", "limit_formula", "lambda_sweep"}
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "barrier_peierls.pbar", "convergence.csv", "final_field.csv", "limit_solution.csv",
        "manifest.json", "timings.json"]
    face = next(s for s in res.stages if s.name == "limit_formula").details
    assert set(face) == {"target_mean", "sup_error_vs_mean", "critical_arcs", "classes"}
    assert face["classes"] >= 1 and face["critical_arcs"] >= face["classes"]


def test_barrier_suite_runs_in_two_dimensions(tmp_path):
    cfg = ExperimentConfig(
        kind="barrier_suite", name="barrier_2d", model_name="mechanical",
        model_params={}, d=2, n=8, vmax=2.0, m=7,
        extras={"m_critical": "7", "alpha": "0.3, 0.5"},
    )
    res = run_experiment(cfg, output=str(tmp_path / "out"))
    names = [s.name for s in res.stages]
    assert names == ["critical_mechanical", "critical_shifted_quadratic",
                     "barrier_structure"]
    shifted = res.stages[1].details
    assert shifted["analytic"] == pytest.approx(0.5 * (0.3**2 + 0.5**2))
    assert set(shifted["per_method"]) == {"lp", "discount", "longtime"}


BARRIER_SUITE = """
[experiment]
kind = barrier_suite

[model]
name = {model}
U = cos:amp=2,freq=1

[grid]
n = 16

[velocities]
vmax = 2.0
m = 9

[extras]
m_critical = 9
"""


def test_barrier_suite_checks_the_model_it_names(tmp_path):
    # c = max U over the nodes: 2 for this amplitude, which every route finds
    path = tmp_path / "barrier.cfg"
    path.write_text(BARRIER_SUITE.format(model="mechanical"))
    res = run_experiment(str(path), output=str(tmp_path / "out"))
    assert res.passed
    mech = res.stages[0].details
    assert mech["analytic"] == 2.0
    assert all(abs(c - 2.0) <= 0.05 for c in mech["per_method"].values())


def test_barrier_suite_refuses_a_model_other_than_mechanical(tmp_path):
    # at parse time: the run used to be its first refusal
    path = tmp_path / "barrier.cfg"
    path.write_text(BARRIER_SUITE.format(model="shifted_quadratic"))
    with pytest.raises(ConfigurationError, match="barrier_suite checks a mechanical "
                                                 "model, not 'shifted_quadratic'"):
        parse_config(str(path))


def test_fatal_record_keeps_the_exception_type_in_the_manifest(tmp_path):
    # zero Lipschitz pairs parse, and the run refuses them
    path = tmp_path / "operator.cfg"
    path.write_text("[experiment]\nkind = operator_suite\n\n[grid]\nn = 16\n\n"
                    "[extras]\nlipschitz_pairs = 0\n")
    res = run_experiment(str(path), output=str(tmp_path / "out"))
    assert res.stages[-1].error_type == "ConfigurationError"
    with open(tmp_path / "out" / "manifest.json") as f:
        (stage,) = json.load(f)["stages"]
    assert stage["name"] == "fatal" and stage["error_type"] == "ConfigurationError"
    assert stage["error"].startswith("ConfigurationError: ")


def test_fatal_record_types_a_solve_error(tmp_path, monkeypatch):
    def stalled(*args, **kwargs):
        raise SolveError("discount route: the solve stopped")

    monkeypatch.setattr(experiments, "critical_value", stalled)
    path = tmp_path / "barrier.cfg"
    path.write_text(BARRIER_SUITE.format(model="mechanical"))
    res = run_experiment(str(path), output=str(tmp_path / "out"))
    assert not res.passed
    with open(tmp_path / "out" / "manifest.json") as f:
        (stage,) = json.load(f)["stages"]
    assert stage["error_type"] == "SolveError"
    assert stage["error"] == "SolveError: discount route: the solve stopped"


EXAMPLE_6_1_2D = """
[experiment]
kind = example_6_1

[model]
name = shifted_quadratic
alpha = {alpha}
target = sin:freq=1,offset=0.3

[grid]
d = 2
n = 16

[velocities]
vmax = 2.0
m = 9

[schedule]
lambdas = 0.1, 0.03, 0.01
"""


def test_example_6_1_config_in_two_dimensions(tmp_path):
    path = tmp_path / "e61_2d.cfg"
    path.write_text(EXAMPLE_6_1_2D.format(alpha="0.618034, 0.414214"))
    cfg = parse_config(str(path))
    np.testing.assert_array_equal(cfg.model_params["alpha"], [0.618034, 0.414214])
    res = run_experiment(cfg, output=str(tmp_path / "out"))
    assert res.passed
    sweep = next(s for s in res.stages if s.name == "lambda_sweep").details
    assert sweep["final_error"] <= 0.05
    out = tmp_path / "out"
    assert (out / "barrier_peierls.pbar").exists()


@pytest.mark.parametrize("alpha, want", [("0.3", [0.3, 0.3]), ("0.1 0.2 0.3", None)])
def test_model_alpha_takes_one_or_d_components(tmp_path, alpha, want):
    path = tmp_path / "alpha.cfg"
    path.write_text(EXAMPLE_6_1_2D.format(alpha=alpha))
    if want is None:
        with pytest.raises(ConfigurationError, match="1 or 2 components"):
            parse_config(str(path))
    else:
        np.testing.assert_array_equal(parse_config(str(path)).model_params["alpha"], want)


def test_failing_stage_recorded(tmp_path):
    cfg = ExperimentConfig(
        kind="example_6_1", name="e61_fail",
        model_name="shifted_quadratic",
        model_params={"alpha": 0.3},
        n=16, vmax=1.0, m=5, lambdas=(0.1,),
        thresholds={"final_sup_error": 1e-12},   # unreachable on purpose
    )
    res = run_experiment(cfg, output=str(tmp_path / "out"))
    assert not res.passed
    assert res.manifest["failing_stage"] == "lambda_sweep"


@pytest.mark.parametrize("kind, params, extras, thresholds", [
    ("operator_suite", {"U": parse_potential("cos:amp=1,freq=1")},
     {"lipschitz_pairs": "3"}, {}),
    ("example_6_1", {"alpha": (np.sqrt(5) - 1) / 2,
                     "target": parse_potential("sin:freq=1,offset=0.3")}, {},
     {"final_sup_error": 0.5}),
])
def test_pipelines_build_the_barrier_once_per_polytope(tmp_path, monkeypatch,
                                                       kind, params, extras, thresholds):
    # the operator suite evaluates fifteen selections on its one polytope
    seen = []
    compute = barrier.peierls_barrier

    def counted(poly):
        seen.append(poly)
        return compute(poly)

    monkeypatch.setattr(barrier, "peierls_barrier", counted)
    model = "mechanical" if kind == "operator_suite" else "shifted_quadratic"
    cfg = ExperimentConfig(kind=kind, name=kind, model_name=model, model_params=params,
                           n=24, vmax=2.0, m=17, lambdas=(0.1, 0.03), extras=extras,
                           thresholds=thresholds)
    res = run_experiment(cfg, output=str(tmp_path / "out"))
    assert res.passed
    assert len(seen) == 1


@pytest.mark.parametrize("kind, extras, error", [
    ("operator_suite", {"lipschitz_pairs": "0"},
     "ConfigurationError: lipschitz_pairs must be at least 1, got 0"),
    ("operator_suite", {"lipschitz_pairs": "1"}, None),
    ("occupation_suite", {"start_node": "-1"},
     "ConfigurationError: start_node must lie in [0, 16), got -1"),
    ("occupation_suite", {"start_node": "0"}, None),
    ("occupation_suite", {"start_node": "15"}, None),
    ("occupation_suite", {"start_node": "16"},
     "ConfigurationError: start_node must lie in [0, 16), got 16"),
    ("occupation_suite", {"mass_identity_lambda": "0"},
     "ConfigurationError: mass_identity_lambda must be positive, got 0"),
    ("occupation_suite", {"mass_identity_lambda": "-0.05"},
     "ConfigurationError: mass_identity_lambda must be positive, got -0.05"),
    ("occupation_suite", {"mass_identity_lambda": "0.05"}, None),
])
def test_suite_extras_out_of_range_are_refused_before_the_solve(tmp_path, monkeypatch,
                                                                kind, extras, error):
    # zero Lipschitz pairs would pass a stage that checked nothing, a
    # negative start node would index from the end of the grid, and a zero
    # mass-identity lambda would end in a ZeroDivisionError
    def solve(*args, **kwargs):
        raise SolveError("the critical problem was reached")

    monkeypatch.setattr(experiments, "_critical_problem", solve)
    cfg = ExperimentConfig(kind=kind, name=kind, n=16, extras=extras)
    (stage,) = run_experiment(cfg, output=str(tmp_path / "out")).stages
    assert stage.name == "fatal"
    assert stage.error == (error or "SolveError: the critical problem was reached")
    assert stage.error_type == stage.error.split(":")[0]


VANISHING_DISCOUNT_2D = """
[experiment]
kind = vanishing_discount

[model]
name = mechanical
U = cos:amp=1,freq=1
potential = zero

[grid]
d = 2
n = 12

[velocities]
vmax = 3.0
m = 9

[schedule]
lambdas = 0.1, 0.03, 0.01, 0.003, 0.001
"""


def test_vanishing_discount_closed_form_over_static_classes(tmp_path):
    """U = cos on the first axis: the Aubry set is the line x0 = 0, twelve
    one-node classes.  The closed form is the minimum over them, which the
    limit formula must equal and the sweep must meet; the first Aubry
    node's column alone misses it by 0.19."""
    path = tmp_path / "vd_2d.cfg"
    path.write_text(VANISHING_DISCOUNT_2D)
    res = run_experiment(str(path), output=str(tmp_path / "out"))
    assert res.passed
    face = next(s for s in res.stages if s.name == "limit_formula").details
    assert face["classes"] == 12 and face["aubry_node"] == 0
    assert face["formula_vs_closed_form"] <= 1e-12
    sweep = next(s for s in res.stages if s.name == "lambda_sweep").details
    assert sweep["final_error_vs_closed_form"] <= 1e-3


def test_vanishing_discount_refuses_a_class_of_several_nodes(tmp_path):
    # alpha at half a velocity step: one class holding all 16 nodes, whose
    # Mather measures are not Diracs
    cfg = ExperimentConfig(kind="vanishing_discount", name="vd_branched",
                           model_name="shifted_quadratic",
                           model_params={"alpha": velocity_set(3.0, 25).spacing / 2},
                           n=16, m=25, lambdas=(0.1,))
    res = run_experiment(cfg, output=str(tmp_path / "out"))
    assert not res.passed
    # the stages before the fatal one keep their records
    assert [s.name for s in res.stages] == ["critical_value", "peierls_barrier", "fatal"]
    assert res.manifest["failing_stage"] == "fatal"
    assert res.stages[-1].error == (
        "ConfigurationError: the closed form needs one-node static classes "
        "(Dirac Mather measures); class sizes: [16]")
    assert [s.error_type for s in res.stages] == [None, None, "ConfigurationError"]


def test_the_benchmark_workload_configs_validate(tmp_path, monkeypatch):
    """The configs `bench/run.py` writes for its workloads pass the parse-time
    refusals: every key they give is one their run reads."""
    bench = CONFIG_DIR.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))             # run.py imports its tracer
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    for name, workload in sorted(bench_run.WORKLOADS.items()):
        path = tmp_path / f"{name}.cfg"
        bench_run.write_config(workload(1), str(path))
        assert parse_config(str(path)).name == name
