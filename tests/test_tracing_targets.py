"""The benchmark's traced run wraps program functions by name and reads some
of their arguments and results; its set-up probe resolves family specs.  Both
must keep working on the program as it is."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from macstab.documents import serialize_complex

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "bench" / "traced.py"
PROBE = ROOT / "bench" / "probe.py"


def _traced_module():
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)  # stdlib imports only at module level
    return traced


def test_every_traced_target_resolves():
    traced = _traced_module()
    missing = []
    for module, attr, _ in traced.TARGETS:
        obj = importlib.import_module(f"macstab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing, f"traced targets missing from macstab: {missing}"


def _python(*argv):
    """A fresh interpreter importing macstab from this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=ROOT, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture()
def square_path(square, c4, tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(serialize_complex(square, c4)))
    return str(path)


def test_traced_spans_read_the_rank_and_the_orbit_counts(monkeypatch, capsys):
    # the traced run keys `betti_at_degree` by its fourth argument's degree and
    # counts from the tables `subset_orbit_reps` returns; wrapped here in place
    from macstab import cli, families, hochster

    tracer = _traced_module().Tracer()
    for module, attr, name in [(families, "betti_at_degree", "families.betti_at_degree"),
                               (hochster, "subset_orbit_reps", "perms.orbit_table")]:
        monkeypatch.setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
    assert cli.main(["scan", "--family", "skeleton:0", "--degree", "4", "--m", "4..6",
                     "--betti-only"]) == 0
    assert [key for name, *_, key in tracer.spans] == [4, 5, 6]
    assert cli.main(["decompose", "--family", "skeleton:0", "--m", "4", "--degree", "3"]) == 0
    capsys.readouterr()
    # degree 3 reaches subsets of at most 3 of the 4 points: 15, in 4 orbits of Σ_4
    assert tracer.counters["perms.subsets_visited"] == 15
    assert tracer.counters["perms.orbits"] == 4


# one small command of each kind
COMMANDS = {
    "betti-input": ["betti", "--input", "DOC"],
    "betti-family": ["betti", "--family", "vccube", "--m", "3"],
    "scan": ["scan", "--family", "skeleton:0", "--degree", "4", "--m", "4..6"],
    "scan-betti-only": ["scan", "--family", "skeleton:0", "--degree", "4", "--m", "4..6",
                        "--betti-only"],
    "decompose-irreducibles": ["decompose", "--family", "vccube", "--m", "3", "--degree", "5",
                               "--irreducibles"],
    "oracle": ["oracle", "--input", "DOC"],
    "product": ["product", "--family", "skeleton:0", "--m", "3", "--check-equivariance"],
    "check-family": ["check-family", "--family", "skeleton:0", "--m", "2..3", "--max-r", "1",
                     "--max-stab-size", "1"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_traced_run_reports_what_the_command_line_reports(square_path, tmp_path, argv):
    argv = [square_path if a == "DOC" else a for a in argv]
    plain = _python("-m", "macstab.cli", *argv)
    spans_path = tmp_path / "spans.json"
    traced = _python(str(TRACED), str(spans_path), *argv)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    spans = json.loads(spans_path.read_text())
    assert spans["spans"] and spans["main_s"] > 0


def test_set_up_probe_resolves_every_kind_of_input(square_path, tmp_path):
    items = [{"input": square_path}, {"family": "skeleton:1", "ms": [3, 4]},
             {"family": "join:0,0", "ms": [2]}, {"family": "vccube", "ms": [3]}]
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(items))
    probe = _python(str(PROBE), str(inputs))
    assert probe.returncode == 0 and probe.stdout == "", probe.stderr
