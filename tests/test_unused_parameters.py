"""Every parameter of a module-level function or class method in
`torushj` is read by its body.  Nested functions, such as the model
callbacks H(x, p, u), are not checked: their signatures are fixed by the
callers that pass them around."""

import ast
from pathlib import Path

import torushj

# (module, qualified name, parameter) -> why it stays unread
ALLOWED = {
    ("matherlp", "solve_mather_lp", "model"):
        "the benchmark tracer reads the polytope as positional argument 1",
}


def unread_parameters(source: str):
    """(qualified name, parameter) for each parameter that the body of a
    module-level function or class method never reads."""
    defs = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{f.name}", f) for f in node.body
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for name, fn in defs:
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        yield from ((name, p) for p in params if p not in read)


def test_unread_parameters_are_found():
    src = ("def f(a, b, *args, c=1, **kw):\n    return a + c\n"
           "class K:\n    def m(self, x):\n        def inner(y, z):\n"
           "            return z\n        return x\n")
    assert list(unread_parameters(src)) == [("f", "b"), ("f", "args"), ("f", "kw"),
                                            ("K.m", "self")]


def test_every_parameter_is_read():
    found = {(path.stem, name, param)
             for path in sorted(Path(torushj.__file__).parent.glob("*.py"))
             for name, param in unread_parameters(path.read_text())}
    assert found == set(ALLOWED)
