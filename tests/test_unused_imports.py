"""Every name a file imports is loaded by that file or listed in its
`__all__`, across the package, the tests and the scripts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/torushj", "tests", "scripts")


def unused_imports(source: str):
    """Names bound by the import statements of `source` (at any depth) that
    it never loads and its `__all__` does not export, in source order."""
    tree = ast.parse(source)
    imported, loaded, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [name for _, name in sorted(imported) if name not in loaded | exported]


def test_unused_imports_are_found():
    src = ("from __future__ import annotations\nimport os, os.path\n"
           "import numpy as np\nfrom a import b, c as d\nfrom e import f\n"
           "__all__ = ['f']\n"
           "def g():\n    import json\n    return np.zeros(1), b\n")
    assert unused_imports(src) == ["os", "os", "d", "json"]


def test_every_import_is_used():
    found = {f"{path.relative_to(ROOT)}: {name}"
             for top in SCANNED for path in sorted((ROOT / top).glob("*.py"))
             for name in unused_imports(path.read_text())}
    assert sorted(found) == []
