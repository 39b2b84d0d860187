"""Every script under scripts/ imports, with the sys.path entries it sets
itself, and defines `main`.  No other test runs the scripts, so a name that
they import from the package, the tests or the benchmark could go missing
unseen."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_the_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_imports_and_defines_main(path):
    # loaded under its own name, not as __main__, so that main does not run
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    assert callable(getattr(module, "main", None))
