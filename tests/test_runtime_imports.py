"""The runtime is stdlib-only: every import in the package is stdlib or its own,
and start-up imports only what every command needs."""

import ast
import subprocess
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


def _loaded_after(statement: str) -> set[str]:
    """Modules a fresh interpreter holds after `statement`, run without `site`
    (-S) so that no start-up hook of the host imports anything first."""
    code = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); {statement}; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_start_up_stays_lean():
    # records are plain classes, CSV is for `scan --csv` and the cellular
    # model for `oracle`: none of them is paid for by every command
    loaded = _loaded_after("import macstab.cli")
    assert "macstab.cli" in loaded
    assert not loaded & {"dataclasses", "csv", "macstab.cellular"}


def test_package_import_loads_no_submodule():
    loaded = _loaded_after("import macstab")
    assert "macstab" in loaded
    assert not {name for name in loaded if name.startswith("macstab.")}
