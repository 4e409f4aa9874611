"""The benchmark's traced run wraps program functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)  # stdlib imports only at module level
    missing = []
    for module, attr, _ in traced.TARGETS:
        obj = importlib.import_module(f"macstab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing, f"traced targets missing from macstab: {missing}"
