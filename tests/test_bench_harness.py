"""The bench scripts' one harness, `scripts/bench_critical.py`: it is the
only script that starts processes, its in-tree child imports torushj from
the tree it is given or refuses to run, and `alternating` flips the order
of the sides from round to round."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _load_harness():
    spec = importlib.util.spec_from_file_location("harness_bench_critical",
                                                  ROOT / "scripts" / "bench_critical.py")
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


harness = _load_harness()

PROBE = """
import os
import torushj


def facts():
    return {"torushj": torushj.__file__, "PYTHONPATH": os.environ.get("PYTHONPATH")}
"""


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module.split(".")[0]


def test_only_the_harness_starts_processes():
    starters = [path.name for path in SCRIPTS
                if path.name != "bench_critical.py" and "subprocess" in set(_imports(path))]
    assert starters == []


def test_in_tree_child_imports_torushj_from_the_given_src(tmp_path, monkeypatch):
    # the child reads `probe` from its working directory; PYTHONPATH points
    # at that directory too, and the child must not see it
    (tmp_path / "probe.py").write_text(PROBE)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    src = str(ROOT / "src")
    facts = harness.in_tree(src, "probe", "facts")
    assert facts["torushj"].startswith(src + os.sep)
    assert facts["PYTHONPATH"] is None


def test_in_tree_refuses_a_tree_without_torushj(tmp_path, monkeypatch, capfd):
    # a torushj package elsewhere on the child's path is not the tree's
    (tmp_path / "torushj").mkdir()
    (tmp_path / "torushj" / "__init__.py").write_text("")
    (tmp_path / "empty").mkdir()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(subprocess.CalledProcessError):
        harness.in_tree(str(tmp_path / "empty"), "os", "getcwd")
    assert "not from" in capfd.readouterr().err


def test_alternating_flips_the_order_each_round():
    calls = []
    sides = {name: (lambda name=name: calls.append(name) or len(calls))
             for name in ("parent", "change")}
    results = harness.alternating(3, sides)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert results == {"parent": [1, 4, 5], "change": [2, 3, 6]}
