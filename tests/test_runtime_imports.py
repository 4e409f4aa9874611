"""The runtime is stdlib-only: every import in the package is stdlib or its own,
start-up imports only what every command needs, and each command only the
layers it runs."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_the_package_has_no_floating_point():
    # arithmetic is exact throughout: no float literal, and no use of `float`
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{path.name}:{node.lineno}: float")
    assert not found, f"floating point in macstab: {found}"


def _decorator_name(node) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")


def test_no_module_level_function_caches_for_the_life_of_the_process():
    # a cache on a module-level function outlives the command that filled it;
    # the one exception is the cohomology cache, which `cli.main` clears and
    # `bench/traced.py` reads
    found = {
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list)
    }
    assert not found - {"homology.reduced_cohomology"}, f"module-level caches: {sorted(found)}"


def _loaded_after(statement: str) -> set[str]:
    """Modules a fresh interpreter holds after `statement`, run without `site`
    (-S) so that no start-up hook of the host imports anything first."""
    code = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); {statement}; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_start_up_stays_lean():
    # records are plain classes, CSV is for `scan --csv`, the cellular model
    # for `oracle`, families for a family input and Σ_m characters for the
    # commands that decompose: none of them is paid for by every command
    loaded = _loaded_after("import macstab.cli")
    assert "macstab.cli" in loaded
    assert not loaded & {"dataclasses", "csv", "macstab.cellular", "macstab.families",
                         "macstab.symrep"}


def test_package_import_loads_no_submodule():
    loaded = _loaded_after("import macstab")
    assert "macstab" in loaded
    assert not {name for name in loaded if name.startswith("macstab.")}


# a 4-cycle under its rotation group: small enough for every command
_CYCLE = {
    "vertices": [{"id": f"v{i}", "index": i, "tag": 0} for i in range(1, 5)],
    "facets": [["v1", "v2"], ["v2", "v3"], ["v3", "v4"], ["v4", "v1"]],
    "group": {"degree": 4, "generators": [[2, 3, 4, 1]]},
}


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["betti", "--input", "DOC"], {"macstab.families", "macstab.symrep"}),
        (["betti", "--family", "vccube", "--m", "3"], {"macstab.cellular", "macstab.symrep"}),
        (["oracle", "--input", "DOC"], {"macstab.families", "macstab.symrep"}),
        (["product", "--input", "DOC", "--check-equivariance"], {"macstab.symrep"}),
        (["product", "--family", "skeleton:0", "--m", "3"], {"macstab.symrep"}),
        (["scan", "--family", "skeleton:0", "--degree", "3", "--m", "2..3"],
         {"macstab.cellular"}),
        (["scan", "--family", "skeleton:0", "--degree", "3", "--m", "2..3", "--betti-only"],
         {"macstab.cellular", "macstab.symrep"}),
        (["decompose", "--input", "DOC", "--degree", "3"], {"macstab.cellular", "macstab.symrep"}),
    ],
    ids=["betti-input", "betti-family", "oracle-input", "product-input", "product-family", "scan",
         "scan-betti-only", "decompose"],
)
def test_each_command_loads_only_the_layers_it_runs(tmp_path, argv, unloaded):
    doc = tmp_path / "cycle.json"
    doc.write_text(json.dumps(_CYCLE))
    argv = [str(doc) if a == "DOC" else a for a in argv]
    argv += ["--output", str(tmp_path / "report.json")]
    loaded = _loaded_after(f"from macstab.cli import main; assert main({argv!r}) == 0")
    assert "macstab.hochster" in loaded
    assert not loaded & unloaded
