"""Tests of the benchmark's tracer and run checks.

    python3 -m pytest -q bench/test_tracer.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics, self_times  # noqa: E402

NONEXISTENCE_CFG = os.path.join(run.ROOT, "configs", "nonexistence_3_4.cfg")


def _torushj_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "torushj" or name.startswith("torushj."))]


def _is_wrapper(value):
    code = getattr(value, "__code__", None)
    return code is not None and code.co_filename == tracer_module.__file__


def _wrapped_names():
    """Module attributes (and the counted DP method) that are tracer wrappers."""
    names = [f"{m.__name__}.{attr}" for m in _torushj_modules()
             for attr, value in vars(m).items() if _is_wrapper(value)]
    barrier = sys.modules.get("torushj.barrier")
    if barrier is not None and _is_wrapper(barrier._ActionKernel.step):
        names.append("torushj.barrier._ActionKernel.step")
    return names


def test_self_time_is_duration_minus_children():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        traced_inner()
        now[0] += 3.0
        traced_inner()

    traced_inner = tracer.wrap("curves", "inner", inner)
    tracer.wrap("solver", "outer", outer)()

    assert [row[:3] for row in tracer.spans] == [
        ["solver", "outer", -1], ["curves", "inner", 0], ["curves", "inner", 0]]
    assert self_times(tracer.spans) == [4.0, 2.0, 2.0]
    metrics = layer_metrics(tracer.spans, tracer.counts, wall_s=10.0)
    assert metrics["solver.wall_frac"] == pytest.approx(0.4)
    assert metrics["curves.wall_frac"] == pytest.approx(0.4)


def test_traced_and_untraced_runs_hash_identically(tmp_path):
    records = {}
    for trace in (0, 1):
        out = tmp_path / f"trace{trace}"
        records[trace] = run.run_child(NONEXISTENCE_CFG, str(out), trace)
        assert "error" not in records[trace], records[trace].get("error")
        assert run.verify(records[trace], str(out), None) is None
    assert records[0]["hashes"] == records[1]["hashes"]
    assert "spans" not in records[0]
    assert records[1]["spans"] and records[1]["missing"] == []
    assert records[1]["counts"]["solver.sweeps"] > 0


def test_untraced_child_installs_no_wrappers(tmp_path, capsys):
    assert child.main(["--src", run.SRC, "--config", NONEXISTENCE_CFG,
                       "--out", str(tmp_path), "--trace", "0"]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["passed"]
    assert _wrapped_names() == []


def test_missing_names_are_reported_not_fatal(tmp_path):
    sys.path.insert(0, run.SRC)
    import torushj.experiments as experiments
    import torushj.solver as solver

    original = solver.solve_perturbed
    tracer = Tracer()
    layers = dict(LAYERS, solver=LAYERS["solver"] + [("torushj.solver", "removed_by_a_refactor")],
                  gone=[("torushj.removed_module", "fn")])
    counted = [("torushj.barrier", "_RemovedKernel", "step", "barrier.dp_steps")]
    tracer.install(layers, counted)
    try:
        assert tracer.missing == ["torushj.solver.removed_by_a_refactor",
                                  "torushj.removed_module.fn",
                                  "torushj.barrier._RemovedKernel.step"]
        assert solver.solve_perturbed is not original
        result = experiments.run_experiment(NONEXISTENCE_CFG, output=str(tmp_path))
    finally:
        tracer.uninstall()
    assert result.passed
    assert tracer.counts["solver.sweeps"] > 0
    assert solver.solve_perturbed is original
    assert _wrapped_names() == []


def test_failing_result_hook_is_reported_not_raised():
    def broken_hook(counts, args, kwargs, result):
        raise AttributeError("no iterations")

    tracer = Tracer()
    traced = tracer.wrap("solver", "solve_perturbed", lambda x: x + 1, broken_hook)
    assert traced(1) == 2 and traced(2) == 3
    assert tracer.missing == ["solve_perturbed result hook: AttributeError: no iterations"]


def test_every_layer_function_exists():
    sys.path.insert(0, run.SRC)
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []
    assert set(LAYERS) == {"solver", "barrier", "matherlp", "selection", "curves", "artifacts"}


def test_count_mismatch_between_traced_runs_is_flagged():
    def record(sweeps):
        return {"wall_s": 1.0, "spans": [], "missing": [], "files": 1, "bytes": 10,
                "counts": {"solver.sweeps": sweeps}}

    values, units = run.per_layer([record(7)], [record(7), record(8)])
    assert values["trace.count_mismatches"] == 1
    assert values["solver.sweeps"] == 7
    assert set(values) == set(units)


def test_determinism_gate_rejects_changed_hashes(tmp_path):
    (tmp_path / "a.csv").write_text("1\n")
    digest = run._sha256(str(tmp_path / "a.csv"))
    rec = {"passed": True, "failing_stage": None, "hashes": {"a.csv": digest}}
    assert run.verify(rec, str(tmp_path), {"a.csv": digest}) is None
    assert "differ from the first run" in run.verify(rec, str(tmp_path), {"a.csv": "0"})
    rec["hashes"] = {"a.csv": "0"}
    assert "manifest hash" in run.verify(rec, str(tmp_path), None)
