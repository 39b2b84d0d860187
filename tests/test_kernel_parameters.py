"""The transition kernel is the argument.  Only `solver.Transition` takes
the (grid, velocity set, dt) triple, and every other entry point takes a
kernel, so a caller builds one per triple.  So no function of `torushj`,
nested ones included, takes a `dt` or a `vset` parameter, but those
allow-listed here."""

import ast
from pathlib import Path

import pytest

import torushj
from torushj.curves import backward_calibrated_curve
from torushj.errors import ConfigurationError
from torushj.grids import GridField, PeriodicGrid
from torushj.models import builtin_model, velocity_set
from torushj.solver import (Transition, bellman_apply, compute_bracket, residual,
                            solve_perturbed)

# parameter -> the (module, qualified name) of the functions that may take it
ALLOWED = {
    "dt": {("solver", "Transition.__init__"), ("experiments", "ExperimentConfig.arcs")},
    "vset": {("solver", "Transition.__init__"), ("solver", "default_dt")},
}


def parameters(source: str):
    """(qualified name, parameter) for every parameter of every function,
    method and nested function in the source."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                    if p is not None:
                        yield f"{prefix}{node.name}", p.arg
                yield from walk(node.body, f"{prefix}{node.name}.")
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    yield from walk(getattr(node, field, ()), prefix)
    yield from walk(ast.parse(source).body, "")


def test_parameters_are_found_in_classes_and_nested_functions():
    src = ("def f(a, *, dt=None):\n    def g(vset):\n        return vset\n    return a\n"
           "class K:\n    def m(self, dt):\n        return dt\n"
           "if True:\n    def h(vset, **kw):\n        pass\n")
    assert list(parameters(src)) == [("f", "a"), ("f", "dt"), ("f.g", "vset"),
                                     ("K.m", "self"), ("K.m", "dt"),
                                     ("h", "vset"), ("h", "kw")]


@pytest.mark.parametrize("param", sorted(ALLOWED))
def test_only_the_kernel_takes_the_triple(param):
    found = {(path.stem, name)
             for path in sorted(Path(torushj.__file__).parent.glob("*.py"))
             for name, p in parameters(path.read_text()) if p == param}
    assert found == ALLOWED[param]


def test_a_field_on_another_grid_is_refused():
    # a field with more nodes than the kernel's grid would be indexed by the
    # kernel's arcs at the wrong nodes without a word
    model = builtin_model("mechanical").with_c0(0.0)
    arcs = Transition(PeriodicGrid(1, 16), velocity_set(2.0, 9))
    u = GridField.constant(PeriodicGrid(1, 32), 0.0)
    for call in (lambda: residual(model, 0.0, u, arcs),
                 lambda: bellman_apply(model, 0.0, u, arcs),
                 lambda: solve_perturbed(model, 0.1, arcs, init=u),
                 lambda: solve_perturbed(model, 0.1, arcs,
                                         bracket=compute_bracket(model, u)),
                 lambda: backward_calibrated_curve(model, 0.1, u, [0.0], 1.0, arcs)):
        with pytest.raises(ConfigurationError, match="on PeriodicGrid"):
            call()
    assert arcs.values_of(GridField.constant(arcs.grid, 2.0)).tolist() == [2.0] * 16
