"""The package imports nothing but numpy and the standard library."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "driftcast").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_src_imports_only_numpy_and_the_standard_library(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not `from .x`
            imported.add(node.module)
    tops = {name.split(".")[0] for name in imported}
    assert tops - {"numpy"} - sys.stdlib_module_names == set()
