"""The runtime is stdlib-only: every import in the package is stdlib or its own."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "macstab"


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) stays inside the package
            yield "macstab" if node.level else node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"macstab", "__future__"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {
        f"{path.name}: {root}"
        for path in sources
        for root in _imported_roots(ast.parse(path.read_text(), filename=str(path)))
        if root not in allowed
    }
    assert not outside, f"non-stdlib imports in macstab: {sorted(outside)}"
