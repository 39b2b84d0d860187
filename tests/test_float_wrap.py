"""No module of the package wraps floats with np.mod, np.remainder or `%`
by a float literal: `grids.wrap_unit` (x - floor(x), 1.0 folded to 0.0) is
the one torus wrap, the same floats at about an eighth of np.mod's cost.
The integer np.mod(., n) of node indices (`flat_index`,
`interpolation_stencil`) has a variable divisor and stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def float_wraps(source: str):
    """Line numbers of np.mod and np.remainder calls and of `%` and `%=`
    whose divisor is a float literal, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and node.func.attr in ("mod", "remainder") and len(node.args) == 2):
            divisor = node.args[1]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
            divisor = node.right if isinstance(node, ast.BinOp) else node.value
        else:
            continue
        if isinstance(divisor, ast.Constant) and isinstance(divisor.value, float):
            found.append(node.lineno)
    return sorted(found)


def test_float_wraps_are_found():
    src = ("import numpy as np\n"
           "a = np.mod(x, 1.0)\n"
           "b = np.remainder(x, 0.5)\n"
           "c = x % 1.0\n"
           "x %= 1.0\n"
           "d = numpy.mod(x, 2.5)\n"
           "e = np.mod(i, n) + i % 4 + np.mod(i, 1) + np.floor(x % n)\n"
           "f = '%d' % 2\n")
    assert float_wraps(src) == [2, 3, 4, 5, 6]


def test_no_float_wrap_in_src():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src" / "torushj").glob("*.py"))
             for line in float_wraps(path.read_text())]
    assert found == []
