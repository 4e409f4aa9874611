import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from macstab.documents import dumps_report, make_report, parse_complex, serialize_complex
from macstab.errors import ValidationError
from macstab.simplicial import skeleton, vc_cube_dual


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv, stdin=None):
    # the child imports macstab from this checkout, as the tests do
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "macstab.cli", *argv],
        capture_output=True,
        text=True,
        input=stdin,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


def report_of(out):
    return json.loads(out)["report"]


@pytest.fixture()
def square_doc(square, c4, tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(serialize_complex(square, c4)))
    return str(path)


def test_roundtrip(square, c4):
    doc = serialize_complex(square, c4)
    K, G = parse_complex(doc)
    assert K == square
    assert G.degree == 4 and [tuple(g) for g in G.generators] == [(2, 3, 4, 1)]
    again = serialize_complex(K, G)
    assert again == doc


def test_roundtrip_unindexed_vertices():
    doc = serialize_complex(vc_cube_dual(2))
    K, G = parse_complex(doc)
    assert K == vc_cube_dual(2) and G is None


def test_parse_validation_errors():
    with pytest.raises(ValidationError):
        parse_complex({"facets": []})
    with pytest.raises(ValidationError):
        parse_complex({"vertices": [{"id": "a"}, {"id": "a"}], "facets": []})
    with pytest.raises(ValidationError):
        parse_complex({"vertices": [{"id": "a"}], "facets": [["b"]]})
    with pytest.raises(ValidationError):
        parse_complex(
            {"vertices": [{"id": "a", "index": 1}], "facets": [["a"]],
             "group": {"degree": 2, "generators": [[1, 1]]}}
        )
    with pytest.raises(ValidationError):
        parse_complex(
            {"vertices": [{"id": "a", "index": 3}], "facets": [["a"]],
             "group": {"degree": 2, "generators": [[2, 1]]}}
        )


def test_report_serialisation_is_stable():
    doc = make_report("betti", {"degrees": {"0": 1}}, {"subsets": 8})
    text = dumps_report(doc)
    assert dumps_report(json.loads(text)) == text
    assert json.loads(text)["tool"] == "macstab"


def test_cli_betti_document(square_doc):
    rc, out, _ = run_cli("betti", "--input", square_doc)
    assert rc == 0
    assert report_of(out)["degrees"] == {"0": 1, "3": 2, "6": 1}


def test_cli_betti_family():
    rc, out, _ = run_cli("betti", "--family", "skeleton:0", "--m", "4")
    assert rc == 0
    assert report_of(out)["degrees"] == {"0": 1, "3": 6, "4": 8, "5": 3}


def test_cli_reads_stdin(square, c4):
    doc = json.dumps(serialize_complex(square, c4))
    rc, out, _ = run_cli("betti", "--input", "-", stdin=doc)
    assert rc == 0
    assert report_of(out)["degrees"] == {"0": 1, "3": 2, "6": 1}


def test_cli_betti_empty_complex_document(tmp_path):
    doc = {"vertices": [{"id": "x", "index": 1, "tag": 0}], "facets": [[]]}
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli("betti", "--input", str(path))
    assert rc == 0
    assert report_of(out)["degrees"] == {"0": 1, "1": 1}


def test_cli_betti_per_multidegree(square_doc):
    rc, out, _ = run_cli("betti", "--input", square_doc, "--per-multidegree")
    rep = report_of(out)
    assert rep["multidegrees"]["{1,3}"] == {"3": 1}


def test_cli_decompose(square_doc):
    rc, out, _ = run_cli("decompose", "--input", square_doc, "--degree", "3")
    rep = report_of(out)
    assert rc == 0 and rep["betti"] == 2
    (comp,) = rep["components"]
    assert comp["orbit_representative"] == "{1,3}"
    assert comp["orbit_size"] == 2 and comp["stabilizer_order"] == 2


def test_cli_decompose_irreducibles():
    rc, out, _ = run_cli(
        "decompose", "--family", "skeleton:0", "--m", "5", "--degree", "3",
        "--irreducibles",
    )
    rep = report_of(out)
    assert rep["irreducibles"] == {"()": 1, "(1)": 1, "(2)": 1}


def test_cli_scan_and_csv(tmp_path):
    csv_path = tmp_path / "scan.csv"
    rc, out, _ = run_cli(
        "scan", "--family", "skeleton:0", "--degree", "4", "--m", "4..9",
        "--csv", str(csv_path),
    )
    rep = report_of(out)
    assert rc == 0
    assert rep["onset"] == 5 and rep["certified_within_window"]
    assert rep["growth"]["degree"] == 3
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0].startswith("family,degree,m,betti")
    assert len(rows) == 7


def test_cli_scan_betti_only():
    rc, out, _ = run_cli(
        "scan", "--family", "vccube", "--degree", "3", "--m", "2..6",
        "--betti-only",
    )
    rep = report_of(out)
    assert rc == 0
    assert rep["betti_values"] == {"2": 5, "3": 6, "4": 8, "5": 10, "6": 12}
    assert rep["growth"]["degree"] == 1 and rep["growth"]["onset_m"] == 3
    assert "multiplicities" not in rep


def test_cli_check_family():
    rc, out, _ = run_cli("check-family", "--family", "join:0,0", "--m", "1..5")
    rep = report_of(out)
    assert rc == 0 and rep["all_passed"]


def test_cli_check_family_reports_name_their_window(capsys):
    from macstab.cli import main

    reports = []
    for window in ("4..6", "4..7"):
        assert main(["check-family", "--family", "skeleton:1", "--m", window]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] != reports[1]
    assert [report_of(out)["m_range"] for out in reports] == [[4, 6], [4, 7]]


def test_cli_check_family_runs_past_m_factorial(capsys):
    # the stabiliser is checked on Sym(support), b! elements, not on all of Σ_12
    from macstab.cli import main

    assert main(["check-family", "--family", "skeleton:1", "--m", "4..12"]) == 0
    assert report_of(capsys.readouterr().out)["all_passed"] is True


def test_cli_check_family_fails_a_support_split_that_drops_an_element(monkeypatch, capsys):
    import macstab.families as families
    from macstab.cli import main

    real = families.support_split

    def dropping(*args):
        support, finite, comp = real(*args)
        return support, finite[:-1], comp

    monkeypatch.setattr(families, "support_split", dropping)
    assert main(["check-family", "--family", "skeleton:1", "--m", "4..6"]) == 3
    assert report_of(capsys.readouterr().out)["all_passed"] is False


def _merge_two_fibres(monkeypatch):
    """Patch in a `fibre_blocks` that merges a subset's first two fibres."""
    import macstab.families as families
    import macstab.hochster as hochster
    from macstab.perms import fibre_blocks

    def merging(J, support):
        blocks = fibre_blocks(J, support)
        return [blocks[0] + blocks[1], *blocks[2:]] if len(blocks) > 1 else blocks

    for module in (families, hochster):
        monkeypatch.setattr(module, "fibre_blocks", merging)


def test_cli_check_family_fails_fibre_blocks_that_merge_two_fibres(monkeypatch, capsys):
    from macstab.cli import main

    _merge_two_fibres(monkeypatch)
    # the subsets are the orbit representatives at the window's last rank:
    # {1, 2.1} has the fibres {0} and {1}, and only the identity fixes it
    assert main(["check-family", "--family", "vccube", "--m", "2..4"]) == 3
    checked = report_of(capsys.readouterr().out)["stabiliser_consistent"]
    assert checked["{1,2.1}"] is False and checked["{1,2}"] is True


@pytest.mark.parametrize("family, window", [("vccube", "1..6"), ("join:0,0", "1..5")])
def test_cli_check_family_from_rank_one_fails_merged_fibres(monkeypatch, capsys, family, window):
    # K_1 has one index, but the subsets come from the window's last rank
    from macstab.cli import main

    _merge_two_fibres(monkeypatch)
    assert main(["check-family", "--family", family, "--m", window]) == 3
    assert report_of(capsys.readouterr().out)["all_passed"] is False


def test_cli_check_family_builds_each_rank_once(monkeypatch, capsys):
    import macstab.families  # noqa: F401  (binds vc_cube_dual for the counter)
    from macstab.cli import main

    built = _count_bound_calls(monkeypatch, "simplicial", "vc_cube_dual")
    assert main(["check-family", "--family", "vccube", "--m", "4..8"]) == 0
    # consistency reads ranks 4..9, and stability at r = 0, 1, 2 reads 1, 2, 3
    assert sorted(built) == list(range(1, 10))


def test_cli_oracle(square_doc):
    rc, out, _ = run_cli("oracle", "--input", square_doc)
    assert rc == 0 and report_of(out)["verdict"] == "no discrepancies"


def test_cli_oracle_flip_koszul(square_doc):
    rc, out, _ = run_cli("oracle", "--input", square_doc, "--flip-koszul")
    assert rc == 3
    assert report_of(out)["discrepancies"]


def test_cli_product(square_doc):
    rc, out, _ = run_cli("product", "--input", square_doc, "--check-equivariance")
    assert rc == 0 and report_of(out)["equivariant"] is True


def test_cli_deterministic_output():
    args = ("betti", "--family", "skeleton:1", "--m", "5")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2
    args = ("scan", "--family", "skeleton:0", "--degree", "3", "--m", "3..6")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_cli_exit_codes(tmp_path):
    rc, _, err = run_cli("betti")
    assert rc == 1 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, _ = run_cli("betti", "--input", str(bad))
    assert rc == 1
    rc, _, err = run_cli(
        "betti", "--family", "skeleton:0", "--m", "6", "--cap-subsets", "10"
    )
    assert rc == 2 and "cap" in err


# usage errors exit 1 like any malformed input (2 is the cap code), each naming its flag
USAGE_ERRORS = {
    ("betti", "--family", "skeleton:0", "--m", "x"): "--m",
    ("betti", "--bogus"): "--bogus",
    ("scan", "--family", "skeleton:0", "--m", "3..4"): "--degree",
    ("check-family", "--family", "skeleton:0", "--m", "3..4", "--d", "5"): "--d",
    ("betti", "--family", "skeleton:0", "--m", "3", "--cap-subsets", "-1"): "--cap-subsets",
    ("decompose", "--family", "skeleton:0", "--m", "3", "--degree", "3", "--cap-group", "-1"):
        "--cap-group",
    ("scan", "--family", "skeleton:0", "--degree", "3", "--m", "3..4", "--cap-support", "-1"):
        "--cap-support",
    ("oracle", "--family", "skeleton:0", "--m", "3", "--cap-oracle", "-1"): "--cap-oracle",
}


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (("betti", "--input", "/nonexistent.json"), None),
        (("betti", "--family", "skeleton:x", "--m", "3"), None),
        (("scan", "--family", "skeleton:0", "--degree", "3", "--m", "3..x"), None),
        (("betti", "--family", "join:1,,", "--m", "3"), None),
        (("betti", "--input", "-"), json.dumps({"vertices": [1, 2], "facets": [[1, 2]]})),
        (("betti", "--family", "custom:-", "--m", "1"), "[1, 2]"),
        (("betti", "--family", "custom:-", "--m", "1"),
         json.dumps({"complexes": {"x": {"vertices": [], "facets": []}}})),
        (("betti", "--input", "-"),
         json.dumps({"vertices": [{"id": "a", "index": "q"}], "facets": [["a"]]})),
        (("betti", "--input", "-"),
         json.dumps({"vertices": [{"id": "a", "tag": "z"}], "facets": [["a"]]})),
        (("betti", "--input", "-"),
         json.dumps({"vertices": [{"id": "a", "index": 1}], "facets": [["a"]],
                     "group": {"generators": ["x"]}})),
        (("betti", "--input", "-"), json.dumps({"vertices": 5, "facets": []})),
        (("betti", "--input", "-"), json.dumps({"vertices": [], "facets": 3})),
        (("betti", "--input", "-"), json.dumps({"vertices": [], "facets": [], "group": [1]})),
        (("oracle", "--input", "-", "--degrees", "1,x"),
         json.dumps({"vertices": [{"id": "a", "index": 1}], "facets": [["a"]]})),
        (("oracle", "--family", "vccube", "--m", "3", "--d", "2"), None),
        (("product", "--family", "skeleton:0", "--m", "3", "--d", "0"), None),
        (("check-family", "--family", "skeleton:0", "--m", "5..3"), None),
        # bounds that check nothing: "all_passed" would read true for any family
        (("check-family", "--family", "skeleton:0", "--m", "3..4", "--max-r", "-1"), None),
        (("check-family", "--family", "skeleton:0", "--m", "3..4", "--max-stab-size", "0"),
         None),
        (("scan", "--family", "skeleton:0", "--degree", "3", "--m", "5..3", "--betti-only"),
         None),
        (("betti", "--family", "skeleton:0", "--m", "3", "--output", "/nonexistent/x.json"),
         None),
        (("scan", "--family", "skeleton:0", "--degree", "3", "--m", "3..4",
          "--csv", "/nonexistent/x.csv"), None),
        *((argv, None) for argv in USAGE_ERRORS),
    ],
    ids=["missing-file", "skeleton-arg", "range-end", "join-arg", "bare-int-vertices",
         "custom-list", "custom-rank-key", "index-q", "tag-z", "generator-x",
         "vertices-int", "facets-int", "group-list", "degrees-x", "oracle-d", "product-d",
         "check-family-empty-range", "check-family-max-r", "check-family-max-stab-size",
         "scan-empty-range", "output-missing-dir", "csv-missing-dir",
         "m-not-int", "unknown-flag", "scan-no-degree", "check-family-d", "cap-subsets",
         "cap-group", "cap-support", "cap-oracle"],
)
def test_cli_malformed_input_is_a_validation_error(argv, stdin):
    rc, _, err = run_cli(*argv, stdin=stdin)
    assert rc == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    for flag in ("--d", "--max-r", "--max-stab-size"):
        if flag in argv:
            assert flag in err
    if "5..3" in argv:
        assert "'5..3'" in err
    for path in ("/nonexistent/x.json", "/nonexistent/x.csv"):
        if path in argv:
            assert path in err
    if argv in USAGE_ERRORS:
        assert USAGE_ERRORS[argv] in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("betti", "--input", ""), "cannot read ''"),
        (("betti", "--family", "", "--m", "3"), "unknown family ''"),
    ],
    ids=["input", "family"],
)
def test_cli_an_empty_input_value_is_named(argv, message):
    # the flag was given: the error names its value, not a missing input
    rc, out, err = run_cli(*argv)
    assert rc == 1 and out == "" and err.startswith(f"error: {message}")


_POINTS = [{"id": str(i), "index": i} for i in (1, 2, 3)]


@pytest.mark.parametrize(
    "group, message",
    [
        ({"generators": [[1, 1, 3]]}, "group generator #0 is not a bijection"),
        ({"degree": 4, "generators": [[2, 1, 3]]},
         "group generator #0 has 3 entries, but the group degree is 4"),
        ({"degree": 2, "generators": [[2, 1]]},
         "group degree smaller than the largest vertex index"),
        ({"generators": [[2, 1, 3], [1, 3, 2, 4]]},
         "group generator #1 has 4 entries, but generator #0 has 3"),
        ({"degree": -1, "generators": []}, "group degree must be >= 0, not -1"),
    ],
    ids=["not-a-bijection", "length-not-degree", "degree-below-index", "two-lengths",
         "negative-degree"],
)
@pytest.mark.parametrize("command", [("betti",), ("decompose", "--degree", "3")])
def test_cli_group_is_checked_where_the_document_enters(group, message, command):
    # the engine acts on vertices with no degree check of its own: a group that
    # cannot act on the document's indices stops here, with exit 1
    doc = {"vertices": _POINTS, "facets": [[v["id"]] for v in _POINTS], "group": group}
    rc, out, err = run_cli(*command, "--input", "-", stdin=json.dumps(doc))
    assert rc == 1 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [("--help",), ("scan", "--help")])
def test_cli_help_exits_0(argv):
    rc, out, err = run_cli(*argv)
    assert rc == 0 and out.startswith("usage: macstab") and err == ""


@pytest.mark.parametrize("command", [("betti",), ("decompose", "--degree", "3"), ("oracle",),
                                     ("product",)])
@pytest.mark.parametrize("extra", [("--family", "skeleton:0", "--m", "3"), ("--m", "3"),
                                   ("--family", "skeleton:0")])
@pytest.mark.parametrize("path", ["/nonexistent.json", "document"])
def test_cli_input_with_a_family_flag_is_a_conflict(tmp_path, capsys, command, extra, path):
    import macstab.cli as cli

    if path == "document":  # a readable document: the conflict, not the file, is refused
        path = tmp_path / "points.json"
        path.write_text(json.dumps(serialize_complex(skeleton(3, 0))))
    assert cli.main([*command, "--input", str(path), *extra]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --input conflicts with")
    for flag in ("--family", "--m"):
        assert (flag in err) == (flag in extra)


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--family", "skeleton:0", "--degree", "3", "--m", "3..5", "--cap-subsets", "1"),
        ("scan", "--family", "skeleton:0", "--degree", "3", "--m", "3..5", "--cap-subsets", "1",
         "--betti-only"),
        ("scan", "--family", "vccube", "--degree", "5", "--m", "5..5", "--cap-support", "1"),
        ("scan", "--family", "skeleton:0", "--degree", "10", "--m", "10..12"),
        ("oracle", "--family", "skeleton:0", "--m", "4", "--cap-subsets", "1"),
        ("check-family", "--family", "skeleton:0", "--m", "3..4", "--cap-subsets", "1"),
        ("check-family", "--family", "skeleton:0", "--m", "3..4", "--cap-support", "1"),
        ("product", "--family", "skeleton:0", "--m", "3", "--cap-subsets", "1"),
        ("decompose", "--family", "skeleton:0", "--m", "3", "--degree", "3", "--cap-subsets", "1"),
        ("decompose", "--family", "vccube", "--m", "3", "--degree", "5", "--cap-group", "1"),
    ],
    ids=["scan", "scan-betti-only", "scan-support", "scan-default-support", "oracle",
         "check-family", "check-family-support", "product", "decompose",
         "decompose-group"],
)
def test_cli_every_command_honours_its_caps(capsys, argv):
    from macstab.cli import main

    assert main(list(argv)) == 2
    assert "cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [(), ("--betti-only",)], ids=["full", "betti-only"])
def test_cli_pattern_scan_caps_the_representatives_it_lists(capsys, extra):
    from macstab.cli import main

    # at m = 12, 1 + 12 + 66 + 220 = 299 subsets of at most 3 points reach
    # degree 3, in the 4 orbits of the subsets of sizes 0..3
    argv = ["scan", "--family", "skeleton:0", "--degree", "3", "--m", "3..12", *extra]
    assert main([*argv, "--cap-subsets", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["caps"]["subsets"] == 4
    assert main([*argv, "--cap-subsets", "3"]) == 2
    assert "orbit representatives exceed the subset cap 3" in capsys.readouterr().err


def test_cli_decompose_traces_each_stabiliser_element_once(monkeypatch, capsys, tmp_path):
    from macstab.cli import main

    argv = ["decompose", "--family", "vccube", "--m", "3", "--degree", "5"]
    traced = _count_bound_calls(monkeypatch, "homology", "cohomology_trace")
    assert main(argv) == 0
    components = report_of(capsys.readouterr().out)["components"]
    assert len(traced) == sum(c["stabilizer_order"] for c in components) == 12
    # a stabiliser past the group cap is a cap that is hit: no trace, no report
    traced.clear()
    out = tmp_path / "report.json"
    assert main([*argv, "--cap-group", "1", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "cap exceeded: the stabiliser of {1,2,3} exceeds the group cap 1\n"
    assert traced == [] and not out.exists()


@pytest.mark.parametrize(
    "family, m, degree, betti",
    [("vccube", 3, 5, 2), ("skeleton:1", 5, 5, 10), ("skeleton:0", 5, 3, 10),
     ("join:1,0", 4, 6, 3)],
)
def test_cli_decompose_betti_is_the_betti_commands(capsys, family, m, degree, betti):
    # the sum of orbit size times dimension over the components, against the
    # dimensions `betti` reads off K's own coboundary rows
    from macstab.cli import main

    argv = ["--family", family, "--m", str(m)]
    assert main(["decompose", *argv, "--degree", str(degree)]) == 0
    decomposed = report_of(capsys.readouterr().out)["betti"]
    assert main(["betti", *argv]) == 0
    assert decomposed == report_of(capsys.readouterr().out)["degrees"][str(degree)] == betti


@pytest.mark.parametrize(
    "d, degree, ms, betti",
    [(1, 5, range(3, 7), [2, 4, 10, 20]), (1, 7, range(3, 7), [6, 7, 11, 21]),
     (0, 4, range(3, 6), [0, 1, 41]), (2, 7, range(3, 6), [6, 10, 15])],
    ids=["d1-degree5", "d1-degree7", "d0-degree4", "d2-degree7"],
)
def test_cli_scan_betti_is_the_betti_commands(capsys, d, degree, ms, betti):
    # both scan routes skip the summands the facet masks show to vanish;
    # `betti` reads every subset off K's own coboundary rows, with no skip.
    # The full scan needs d >= 1; the betti-only scan runs at every d.
    from macstab.cli import main

    scan = ["scan", "--family", "vccube", "--degree", str(degree), "--m", f"{ms[0]}..{ms[-1]}",
            "--d", str(d)]
    assert main([*scan, "--betti-only"]) == 0
    betti_only = report_of(capsys.readouterr().out)["betti_values"]
    plain = []
    for m in ms:
        assert main(["betti", "--family", "vccube", "--m", str(m), "--d", str(d)]) == 0
        plain.append(report_of(capsys.readouterr().out)["degrees"].get(str(degree), 0))
    assert [betti_only[str(m)] for m in ms] == plain == betti
    if d >= 1:
        assert main(scan) == 0
        scanned = report_of(capsys.readouterr().out)["betti"]
        assert [scanned[str(m)] for m in ms] == betti


def test_cli_scan_has_one_loop_for_both_reports(monkeypatch, capsys):
    # a betti-only scan reads b_i(m) once per rank and computes no summand;
    # a full scan reads b_i(m) off its summands, never by `betti_at_degree`
    from macstab import cli, families, hochster

    calls = {"betti_at_degree": 0, "_summand_data": 0}
    for module, name in [(families, "betti_at_degree"), (hochster, "_summand_data")]:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    hochster.summand_memo.clear()
    argv = ["scan", "--family", "skeleton:0", "--degree", "4", "--m", "4..6"]
    assert cli.main([*argv, "--betti-only"]) == 0
    assert calls == {"betti_at_degree": 3, "_summand_data": 0}
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls["betti_at_degree"] == 3 and calls["_summand_data"] > 0


# the flags each command does not read, and abbreviations of the flags it does
NOT_TAKEN = [
    ("betti", "--family", "skeleton:0", "--m", "3", "--cap-group", "5"),
    ("betti", "--family", "skeleton:0", "--m", "3", "--cap-support", "5"),
    ("betti", "--family", "skeleton:0", "--m", "3", "--cap-oracle", "5"),
    ("decompose", "--family", "skeleton:0", "--m", "3", "--degree", "3", "--cap-oracle", "5"),
    ("scan", "--family", "skeleton:0", "--degree", "3", "--m", "3..4", "--cap-group", "5"),
    ("scan", "--family", "skeleton:0", "--degree", "3", "--m", "3..4", "--cap-oracle", "5"),
    ("check-family", "--family", "skeleton:0", "--m", "3..4", "--cap-oracle", "5"),
    ("check-family", "--family", "skeleton:0", "--m", "3..4", "--cap-group", "5"),
    ("oracle", "--family", "skeleton:0", "--m", "3", "--cap-group", "5"),
    ("oracle", "--family", "skeleton:0", "--m", "3", "--cap-support", "5"),
    ("oracle", "--family", "skeleton:0", "--m", "3", "--d", "1"),
    ("product", "--family", "skeleton:0", "--m", "3", "--cap-group", "5"),
    ("product", "--family", "skeleton:0", "--m", "3", "--cap-support", "5"),
    ("product", "--family", "skeleton:0", "--m", "3", "--cap-oracle", "5"),
    ("product", "--family", "skeleton:0", "--m", "3", "--d", "1"),
    ("decompose", "--family", "vccube", "--m", "3", "--degree", "5", "--irr"),
    ("betti", "--fam", "skeleton:0", "--m", "3", "--cap-sub", "5"),
    # not `--degrees 2`
    ("oracle", "--family", "vccube", "--m", "3", "--d", "2"),
]


@pytest.mark.parametrize("argv", NOT_TAKEN, ids=[" ".join(a) for a in NOT_TAKEN])
def test_cli_refuses_a_flag_the_command_does_not_take(capsys, argv):
    from macstab.cli import main

    assert main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: unrecognized arguments: ")
    for flag in argv:
        if flag.startswith("--") and flag not in ("--family", "--m", "--degree"):
            assert flag in err


def test_cli_each_command_takes_the_flags_it_reads():
    import argparse

    from macstab.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, p in sub.choices.items()
    }
    document = ["--input", "--family", "--m"]
    assert surface == {
        "betti": [*document, "--d", "--output", "--cap-subsets", "--per-multidegree"],
        "decompose": [*document, "--d", "--output", "--cap-subsets", "--cap-group",
                      "--cap-support", "--degree", "--irreducibles"],
        "scan": ["--family", "--d", "--output", "--cap-subsets", "--cap-support", "--degree",
                 "--m-range", "--m", "--betti-only", "--csv"],
        "check-family": ["--family", "--output", "--cap-subsets", "--cap-support", "--m-range",
                         "--m", "--max-r", "--max-stab-size"],
        "oracle": [*document, "--output", "--cap-subsets", "--cap-oracle", "--degrees",
                   "--flip-koszul"],
        "product": [*document, "--output", "--cap-subsets", "--check-equivariance"],
    }
    # one settable value per action: 47 across the six commands
    assert sum(len(p._actions) - 1 for p in sub.choices.values()) == 47


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--family", "skeleton:0", "--m", "5", "--degree", "3"),
         "a341bf162898a1c2ba1b87df77751a7a461f7344cf41b84c8ea0e2243485c8fe"),
        (("--family", "skeleton:1", "--m", "5", "--degree", "5"),
         "738947d59a35c8540aabda24e176c2c7d31a1f2ce7a6dadc1d61d02268dd8391"),
        (("--family", "vccube", "--m", "3", "--degree", "5"),
         "66dea6ea98b4f8781b00f09723824a45e31ec7578caab5ae45af4a9c2863d0ec"),
    ],
    ids=["skeleton0-m5-deg3", "skeleton1-m5-deg5", "vccube-m3-deg5"],
)
def test_cli_decompose_report_is_pinned(capsys, argv, digest):
    # the reports print the Schreier generators of each stabilizer, which
    # depend on the order of the orbit breadth-first search
    from macstab.cli import main

    assert main(["decompose", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--family", "vccube", "--m", "3"),
         "02673aa7c325a4f8c3d93c0113813d84667c874214149e7cc85d94ce224384b2"),
        (("--family", "skeleton:1", "--m", "4"),
         "2a673b48b6a3cf1e35e17346e8c411bd28fbf14a6fedecdba065318a15ad99a9"),
    ],
    ids=["vccube-m3", "skeleton1-m4"],
)
def test_cli_oracle_discrepancy_report_is_pinned(capsys, argv, digest):
    # the benchmark pins only reports with no discrepancies; a corrupted
    # smash twist lists them
    from macstab.cli import main

    assert main(["oracle", *argv, "--flip-koszul"]) == 3
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_oracle_checks_every_vanishing_the_scans_skip(monkeypatch, capsys):
    # negative control: a vanishing rule that skips every summand must meet a
    # non-zero cellular block
    import macstab.cellular as cellular
    from macstab.cli import main

    monkeypatch.setattr(cellular, "vanishes", lambda masks, p: True)
    assert main(["oracle", "--family", "vccube", "--m", "3"]) == 3
    found = report_of(capsys.readouterr().out)["discrepancies"]
    assert found and {d["kind"] for d in found} == {"vanishing"}
    assert all(d["combinatorial"] == "0" and d["cellular"] != "0" for d in found)


def _count_stabilizer_calls(monkeypatch):
    """Record the representative of every OrbitTable.stabilizer_gens call."""
    from macstab.perms import OrbitTable

    original = OrbitTable.stabilizer_gens
    calls = []

    def counting(self, rep):
        calls.append(rep)
        return original(self, rep)

    monkeypatch.setattr(OrbitTable, "stabilizer_gens", counting)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--family", "vccube", "--degree", "5", "--m", "3..4"),
        ("scan", "--family", "vccube", "--degree", "5", "--m", "3..4", "--betti-only"),
        ("betti", "--family", "vccube", "--m", "3"),
        ("decompose", "--family", "vccube", "--m", "3", "--degree", "5"),
    ],
    ids=["scan", "scan-betti-only", "betti", "decompose"],
)
def test_cli_stabilizer_generators_only_where_read(monkeypatch, capsys, argv):
    from macstab.cli import main

    calls = _count_stabilizer_calls(monkeypatch)
    assert main(list(argv)) == 0
    if argv[0] == "decompose":
        components = report_of(capsys.readouterr().out)["components"]
        assert len(calls) == len(set(calls)) == len(components) > 0
    else:
        assert calls == []


def test_cli_oracle_builds_stabilizer_generators_once_per_orbit(monkeypatch, tmp_path):
    from macstab.cli import main

    # a 4-cycle plus an unindexed point: the whole vertex set restricts to a
    # circle and a point, so its summand is non-zero in two ambient degrees
    names = "abcd"
    doc = {
        "vertices": [{"id": n, "index": k} for k, n in enumerate(names, 1)] + [{"id": "x"}],
        "facets": [[names[k], names[(k + 1) % 4]] for k in range(4)] + [["x"]],
        "group": {"degree": 4, "generators": [[2, 3, 4, 1]]},
    }
    path = tmp_path / "cycle_and_point.json"
    path.write_text(json.dumps(doc))
    calls = _count_stabilizer_calls(monkeypatch)
    assert main(["oracle", "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
    assert len(calls) == len(set(calls)) > 0


@pytest.mark.parametrize(
    "argv",
    [("betti",), ("oracle",), ("betti", "--per-multidegree"), ("product",),
     ("decompose", "--degree", "1")],
    ids=["betti", "oracle", "betti-per-multidegree", "product", "decompose"],
)
def test_cli_group_must_preserve_the_complex(argv):
    doc = {"vertices": [{"id": "a", "index": 3}], "facets": [],
           "group": {"degree": 3, "generators": [[1, 3, 2]]}}
    rc, _, err = run_cli(*argv, "--input", "-", stdin=json.dumps(doc))
    assert rc == 1 and "does not preserve the complex" in err


def test_cli_oracle_without_group_covers_every_index():
    doc = {"vertices": [{"id": "a", "index": 2}], "facets": [["a"]]}
    rc, out, _ = run_cli("oracle", "--input", "-", stdin=json.dumps(doc))
    assert rc == 0 and report_of(out)["verdict"] == "no discrepancies"


def test_cli_custom_family(tmp_path):
    complexes = {}
    for m in (1, 2, 3):
        K = skeleton(m, 0)
        complexes[str(m)] = serialize_complex(K)
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"name": "points", "complexes": complexes}))
    rc, out, _ = run_cli("betti", "--family", f"custom:{path}", "--m", "3")
    assert rc == 0
    assert report_of(out)["degrees"] == {"0": 1, "3": 3, "4": 2}


def test_cli_custom_family_must_be_closed_under_the_symmetric_group(tmp_path):
    # paths 1–2–…–m: Σ_m moves the edge {1,2} to the non-edge {1,3}, and the
    # orbit sums of a scan would miss J = {1,2,4}, an edge plus a point
    def path_complex(m):
        vertices = [{"id": f"v{i}", "index": i} for i in range(1, m + 1)]
        return {"vertices": vertices, "facets": [[f"v{i}", f"v{i + 1}"] for i in range(1, m)]}

    path = tmp_path / "paths.json"
    path.write_text(json.dumps({"name": "paths", "complexes": {"4": path_complex(4)}}))
    rc, out, err = run_cli("scan", "--family", f"custom:{path}", "--degree", "4", "--m", "4..4")
    assert rc == 1 and out == ""
    assert str(path) in err and "m=4" in err and "Traceback" not in err
    rc, out, _ = run_cli("betti", "--input", "-", stdin=json.dumps(path_complex(4)))
    assert rc == 0 and report_of(out)["degrees"]["4"] == 2
    # a vertex index above the rank is named as such, before the closure check
    bad = {"vertices": [{"id": "a", "index": 1}, {"id": "b", "index": 3}], "facets": [["a", "b"]]}
    path.write_text(json.dumps({"name": "bad", "complexes": {"2": bad}}))
    rc, out, err = run_cli("scan", "--family", f"custom:{path}", "--degree", "2", "--m", "2..2")
    assert rc == 1 and out == ""
    assert str(path) in err and "m=2" in err and "1..2" in err and "Traceback" not in err


def test_cli_custom_family_errors_name_the_file_and_the_rank(tmp_path):
    path = tmp_path / "points.json"
    points = {str(m): serialize_complex(skeleton(m, 0)) for m in (2, 3)}
    # a name that is not a string would reach the report as a Python repr
    path.write_text(json.dumps({"name": {"oops": 1}, "complexes": points}))
    rc, out, err = run_cli("scan", "--family", f"custom:{path}", "--degree", "3", "--m", "2..3")
    assert rc == 1 and out == "" and err.startswith("error: ")
    assert str(path) in err and "'name'" in err and "Traceback" not in err
    # an error inside one rank's document names the file and that rank
    path.write_text(json.dumps({"name": "points", "complexes": {**points, "3": "nope"}}))
    rc, out, err = run_cli("betti", "--family", f"custom:{path}", "--m", "2")
    assert rc == 1 and out == "" and err.startswith("error: ")
    assert str(path) in err and "m=3" in err and "'nope'" in err and "Traceback" not in err


def _points_family(tmp_path, ranks):
    path = tmp_path / "points.json"
    points = {str(m): serialize_complex(skeleton(m, 0)) for m in ranks}
    path.write_text(json.dumps({"name": "points", "complexes": points}))
    return path


def test_cli_custom_family_missing_rank_names_the_file(tmp_path):
    path = _points_family(tmp_path, (2, 3, 4))
    rc, out, err = run_cli("scan", "--family", f"custom:{path}", "--degree", "3", "--m", "2..5")
    assert rc == 1 and out == ""
    assert err == f"error: custom family {str(path)!r} has no complex for m=5\n"


def test_cli_check_family_names_the_check_that_reads_a_rank_outside_its_window(tmp_path):
    # vertex stability at r compares with rank r + 1, here rank 1 below the window
    path = _points_family(tmp_path, (2, 3, 4))
    rc, out, err = run_cli("check-family", "--family", f"custom:{path}", "--m", "2..3")
    assert rc == 1 and out == ""
    assert err == (f"error: vertex stability at r=0 reads rank 1: "
                   f"custom family {str(path)!r} has no complex for m=1\n")


def test_cli_check_family_refuses_a_family_not_closed_under_the_symmetric_group(
    tmp_path, capsys
):
    # points on 1..m and an unindexed point x joined to index 1 alone: Σ_2
    # moves the edge {1, x} to the non-edge {2, x}
    from macstab.cli import main

    def lopsided(m):
        vertices = [{"id": f"v{i}", "index": i} for i in range(1, m + 1)] + [{"id": "x"}]
        return {"vertices": vertices,
                "facets": [[f"v{i}"] for i in range(2, m + 1)] + [["v1", "x"]]}

    path = tmp_path / "lopsided.json"
    path.write_text(json.dumps({"name": "lopsided",
                                "complexes": {str(m): lopsided(m) for m in (2, 3)}}))
    assert main(["check-family", "--family", f"custom:{path}", "--m", "2..3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {str(path)!r}: the complex for m=2 is not closed under Σ_2\n"


def test_cli_check_family_fails_a_rank_that_drops_a_face(tmp_path, capsys):
    # edges on 1..m up to rank 2, points from rank 3 on: each rank is closed
    # under Σ_m, but K_2's edge is no face of K_3
    from macstab.cli import main

    path = tmp_path / "shrinking.json"
    complexes = {str(m): serialize_complex(skeleton(m, 1 if m <= 2 else 0)) for m in range(1, 5)}
    path.write_text(json.dumps({"name": "shrinking", "complexes": complexes}))
    assert main(["check-family", "--family", f"custom:{path}", "--m", "2..3"]) == 3
    assert report_of(capsys.readouterr().out)["consistent"] is False


def test_cli_check_family_consistency_counts_toward_the_subset_cap(capsys):
    # K_9 of vccube has more than 100 orbit representatives up to its facet size
    from macstab.cli import main

    assert main(["check-family", "--family", "vccube", "--m", "9..10", "--cap-subsets", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cap exceeded: ")


@pytest.mark.parametrize(
    "command", [("betti",), ("oracle",), ("product", "--check-equivariance")],
    ids=["betti", "oracle", "product"],
)
def test_cli_checks_a_documents_group_once(monkeypatch, capsys, square_doc, command):
    # where the document enters, in `_resolve_input`, and nowhere after
    import macstab.cellular  # noqa: F401  (loaded, so its bindings are counted too)
    from macstab.cli import main

    checked = _count_bound_calls(monkeypatch, "perms", "is_g_complex")
    assert main([*command, "--input", square_doc]) == 0
    assert len(checked) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("betti", "--family", "skeleton:0", "--m", "3", "--output", ""), "cannot write ''"),
        (("scan", "--family", "skeleton:0", "--degree", "3", "--m", "3..4", "--csv", ""),
         "cannot write ''"),
        (("oracle", "--family", "skeleton:0", "--m", "3", "--degrees", ""),
         "--degrees entry must be an integer, not ''"),
    ],
    ids=["betti-output", "scan-csv", "oracle-degrees"],
)
def test_cli_refuses_an_empty_flag_value(capsys, argv, message):
    from macstab.cli import main

    assert main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err


def _count_bound_calls(monkeypatch, module, name):
    """Replace macstab.<module>.<name>, and every `from ... import` binding of
    it, by a wrapper recording the first argument of each call."""
    original = getattr(sys.modules[f"macstab.{module}"], name)
    calls = []

    def counting(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "macstab" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("extra", [(), ("--betti-only",)], ids=["full", "betti-only"])
def test_cli_scan_builds_one_orbit_table_per_rank(monkeypatch, capsys, extra):
    from macstab.cli import main

    listed = _count_bound_calls(monkeypatch, "perms", "pattern_orbit_reps")
    searched = _count_bound_calls(monkeypatch, "perms", "subset_orbit_reps")
    argv = ["scan", "--family", "skeleton:0", "--degree", "4", "--m", "4..6", *extra]
    assert main(argv) == 0
    assert [len(K.vertices) for K in listed] == [4, 5, 6]
    assert searched == []  # the scans list orbits by fibre pattern, with no search
    rep = report_of(capsys.readouterr().out)
    # b_4 = 2·C(m, 3): each 3-point restriction has H̃^0 of rank 2
    assert rep["betti_values"] == {"4": 8, "5": 20, "6": 40}
    if not extra:
        assert rep["betti"] == rep["betti_values"]


def test_cli_betti_on_a_family_runs_no_orbit_search(monkeypatch, capsys):
    from macstab.cli import main

    listed = _count_bound_calls(monkeypatch, "perms", "pattern_orbit_reps")
    searched = _count_bound_calls(monkeypatch, "perms", "subset_orbit_reps")
    assert main(["betti", "--family", "vccube", "--m", "5"]) == 0
    assert [len(K.vertices) for K in listed] == [11]
    assert searched == []


def _betti_degrees(capsys, *argv):
    from macstab.cli import main

    assert main(["betti", *argv]) == 0
    return report_of(capsys.readouterr().out)["degrees"]


@pytest.mark.parametrize("spec", ["skeleton:0", "skeleton:1", "join:0,0", "join:1,0", "vccube"])
def test_cli_betti_routes_agree_on_a_family(capsys, tmp_path, spec):
    # the fibre-pattern listing, the plain sum over every subset of the same
    # complex as a document, and the orbit search over the document's Σ_m
    from macstab.families import parse_family

    fam = parse_family(spec)
    for m in range(3, 6):
        K, G = fam.instantiate(m)
        plain, grouped = tmp_path / "plain.json", tmp_path / "grouped.json"
        plain.write_text(json.dumps(serialize_complex(K)))
        grouped.write_text(json.dumps(serialize_complex(K, G)))
        for d in ("0", "1", "2"):
            listed = _betti_degrees(capsys, "--family", spec, "--m", str(m), "--d", d)
            assert listed == _betti_degrees(capsys, "--input", str(plain), "--d", d), (m, d)
            assert listed == _betti_degrees(capsys, "--input", str(grouped), "--d", d), (m, d)


def test_cli_betti_cap_on_a_family_counts_every_subset(capsys):
    # the cap counts the 2^13 subsets before any orbit is listed, not the
    # representatives that the fibre patterns would list
    from macstab.cli import main

    assert main(["betti", "--family", "vccube", "--m", "6", "--cap-subsets", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "cap exceeded: subsets of 13 vertices exceed the subset cap 100\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("betti", "--family", "skeleton:0", "--m", "3", "--d", "-1"), "--d -1: need at least 0"),
        (("scan", "--family", "skeleton:0", "--degree", "3", "--m", "2..3", "--d", "-1",
          "--betti-only"), "--d -1: need at least 0"),
        (("betti", "--family", "skeleton:0", "--m", "0"), "--m 0: need at least 1"),
        (("scan", "--family", "skeleton:0", "--degree", "3", "--m", "0..2"),
         "--m 0..2: need at least 1"),
        (("check-family", "--family", "skeleton:0", "--m", "0..2"), "--m 0..2: need at least 1"),
        (("decompose", "--family", "skeleton:0", "--m", "3", "--degree", "3", "--d", "0",
          "--irreducibles"), "--d 0: --irreducibles needs at least 1"),
        (("scan", "--family", "skeleton:0", "--degree", "3", "--m", "2..3", "--d", "0"),
         "--d 0: a scan without --betti-only needs at least 1"),
    ],
    ids=["betti-d", "scan-d", "betti-m", "scan-m", "check-family-m", "irreducibles-d",
         "scan-full-d"],
)
def test_cli_refusals_name_their_flag_before_any_work(monkeypatch, capsys, argv, message):
    from macstab.cli import main

    searched = _count_bound_calls(monkeypatch, "perms", "subset_orbit_reps")
    assert main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"  # one line: no traceback
    assert searched == []


def test_cli_summands_are_induced_by_young_class_once_each(monkeypatch, capsys):
    from macstab.cli import main
    from macstab.hochster import summand_memo

    traced = _count_bound_calls(monkeypatch, "hochster", "summand_character")
    induced = _count_bound_calls(monkeypatch, "symrep", "induce_from_young")
    brute_force = [_count_bound_calls(monkeypatch, "symrep", "induce_to_sym"),
                   _count_bound_calls(monkeypatch, "perms", "support_split")]
    # one orbit summand, J = {1..5}, met at all seven ranks: one call traces
    # its seven Young classes, and one induction fuses them
    assert main(["scan", "--family", "skeleton:0", "--degree", "6", "--m", "6..12"]) == 0
    assert len(summand_memo) == 1 and len(induced) == 1 and len(traced) == 1
    induced.clear()
    argv = ["decompose", "--family", "vccube", "--m", "3", "--degree", "5", "--irreducibles"]
    assert main(argv) == 0
    assert len(summand_memo) == 2 and len(induced) == 2
    # neither the explicit subgroup nor the explicit induction is built
    assert brute_force == [[], []]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--family", "skeleton:0", "--degree", "6", "--m", "6..12"),
         "10c4642e408896a4aa741dbfd0627bad9e238567e0929188add1629f1bdc9dbe"),
        (("--family", "vccube", "--degree", "5", "--m", "3..7"),
         "4598ff775d3c83bfbeca6a47bcb45042012ec7bf3866d22f53159505414016f1"),
        (("--family", "join:0,0", "--degree", "5", "--m", "3..7"),
         "e25b66e723f16cf4967eda51519ce5b083ec5270e63a95826d5418d935955886"),
    ],
    ids=["skeleton0-d6-m6..12", "vccube-d5-m3..7", "join0,0-d5-m3..7"],
)
def test_cli_scan_report_is_pinned(capsys, argv, digest):
    # the benchmark's scan reports, byte for byte as the orbit search gave them
    from macstab.cli import main

    assert main(["scan", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, bases",
    [
        (("--family", "skeleton:0", "--degree", "6", "--m", "6..12"), 1),
        (("--family", "vccube", "--degree", "5", "--m", "3..7"), 4),
        (("--family", "join:0,0", "--degree", "5", "--m", "3..7"), 2),
    ],
    ids=["skeleton0-d6-m6..12", "vccube-d5-m3..7", "join0,0-d5-m3..7"],
)
def test_cli_scan_builds_a_basis_only_where_the_masks_leave_a_summand(
    monkeypatch, capsys, argv, bases
):
    # the benchmark's scans: every other representative is decided from the
    # facet masks, with no restriction listed
    from macstab.cli import main
    from macstab.homology import CohomologyBasis

    built = []
    _count_calls(monkeypatch, CohomologyBasis, "__init__", built)
    assert main(["scan", *argv]) == 0
    assert len(built) == bases


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--family", "skeleton:0", "--degree", "6", "--m", "6..8"),
        ("decompose", "--family", "vccube", "--m", "3", "--degree", "5", "--irreducibles"),
    ],
    ids=["scan", "decompose-irreducibles"],
)
def test_cli_dropped_pieri_strip_is_an_internal_mismatch(monkeypatch, capsys, argv):
    # negative control: the irreducible dimensions must add up to b_i(m)
    import macstab.symrep as symrep
    from macstab.cli import main

    pieri = symrep.pieri_induce
    monkeypatch.setattr(symrep, "pieri_induce", lambda mu, m: pieri(mu, m)[1:])
    assert main(list(argv)) == 3
    assert "internal mismatch" in capsys.readouterr().err


def test_cli_wrong_young_centraliser_is_an_internal_mismatch(monkeypatch, capsys):
    # negative control: a wrong weight on the identity class of the Young
    # subgroup must not reach a report
    import macstab.symrep as symrep
    from macstab.cli import main

    order = symrep.young_centraliser_order

    def corrupted(mus):
        identity = all(part == 1 for mu in mus for part in mu)
        return order(mus) + 1 if identity else order(mus)

    monkeypatch.setattr(symrep, "young_centraliser_order", corrupted)
    assert main(["scan", "--family", "skeleton:0", "--degree", "6", "--m", "6..8"]) == 3
    assert "internal mismatch" in capsys.readouterr().err


_MALFORMED_DOCS = [[1, 2], 5, {"facets": []}, {"vertices": 5, "facets": 3},
                   {"vertices": [], "facets": [], "group": [1]}]


@st.composite
def _document(draw):
    """A complex document on at most 5 vertices, sometimes malformed."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_MALFORMED_DOCS))
    labels = draw(st.lists(st.tuples(st.sampled_from([None, 1, 2, 3]), st.integers(0, 1)),
                           max_size=5, unique=True))
    ids = [f"v{k}" for k in range(len(labels))]
    vertices = [{"id": i, "index": index, "tag": tag} for i, (index, tag) in zip(ids, labels)]
    if vertices and draw(st.integers(0, 9)) == 0:
        vertices[0][draw(st.sampled_from(["index", "tag"]))] = draw(st.sampled_from(["q", 0, None]))
    pool = ids + ["x"] if draw(st.integers(0, 9)) == 0 else ids
    facets = draw(st.lists(st.lists(st.sampled_from(pool), max_size=3), max_size=4)) if pool else []
    doc = {"vertices": vertices, "facets": facets}
    if draw(st.booleans()):
        perms = st.permutations(list(range(1, 4)))
        doc["group"] = draw(st.one_of(
            st.fixed_dictionaries({"degree": st.just(3), "generators": st.lists(perms, max_size=2)}),
            st.sampled_from([{"generators": [["x"]]}, {"degree": "x"}, {"generators": [[1, 1, 3]]}]),
        ))
    return doc


_flags = st.one_of(
    st.tuples(st.just("betti"), st.sampled_from([(), ("--per-multidegree",)])),
    st.tuples(st.just("decompose"),
              st.sampled_from([("--degree", x) for x in ("-1", "0", "3", "5")]
                              + [("--degree", "3", "--irreducibles")])),
    st.tuples(st.just("oracle"), st.sampled_from([(), ("--degrees", "0,3,4"), ("--degrees", "1,x")])),
    st.tuples(st.just("product"), st.sampled_from([(), ("--check-equivariance",)])),
)


@settings(max_examples=100, deadline=None)
@given(doc=_document(), flags=_flags, d=st.sampled_from(["0", "1", "2", "-1"]))
def test_cli_fuzz_returns_an_exit_code(doc, flags, d):
    from macstab.cli import main

    command, extra = flags
    # each command with its own flags only: the pair for betti and decompose,
    # the cellular model's cap for oracle
    own = {"betti": ["--d", d], "decompose": ["--d", d], "oracle": ["--cap-oracle", "5"]}
    argv = [command, "--input", "-", "--cap-subsets", "64", *own.get(command, []), *extra]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
            redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), (argv, doc, err.getvalue())
    assert "unrecognized arguments" not in err.getvalue(), argv


def test_cli_decompose_irreducibles_builds_one_orbit_table(monkeypatch, capsys):
    from macstab.cli import main

    searched = _count_bound_calls(monkeypatch, "perms", "subset_orbit_reps")
    listed = _count_bound_calls(monkeypatch, "perms", "pattern_orbit_reps")
    argv = ["decompose", "--family", "skeleton:1", "--m", "6", "--degree", "5", "--irreducibles"]
    assert main(argv) == 0
    # one search for the components' stabilisers, one fibre-pattern listing
    # for the irreducibles
    assert [len(K.vertices) for K in searched] == [6]
    assert [len(K.vertices) for K in listed] == [6]
    rep = report_of(capsys.readouterr().out)
    assert rep["components"] and rep["irreducibles"]


def test_cli_cohomology_cache_is_scoped_to_one_command(monkeypatch, capsys):
    import macstab.cli as cli
    from macstab.homology import reduced_cohomology

    original = cli.cmd_scan
    at_start = []

    def recording(args):
        at_start.append(reduced_cohomology.cache_info().currsize)
        return original(args)

    monkeypatch.setattr(cli, "cmd_scan", recording)
    for _ in range(2):
        assert cli.main(["scan", "--family", "skeleton:0", "--degree", "3", "--m", "3..4"]) == 0
        # kept after the command returns, so its statistics can be read
        assert reduced_cohomology.cache_info().currsize > 0
    assert at_start == [0, 0]


def _count_calls(monkeypatch, owner, name, calls):
    """Wrap owner.name so that every call appends its first argument to `calls`."""
    original = getattr(owner, name)

    def counting(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_cli_betti_builds_no_cohomology_basis(monkeypatch, tmp_path):
    from macstab.cli import main

    path = tmp_path / "vccube4.json"
    path.write_text(json.dumps(serialize_complex(vc_cube_dual(4))))
    # coboundaries are ranked as sparse rows: no representative, no dense matrix
    matrices, built = _count_basis_work(monkeypatch)
    assert main(["betti", "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
    assert built == [] and matrices == []


def _record_complexes(monkeypatch):
    """Every SimplicialComplex built, and how often each facet's faces were listed.

    Listing a complex's faces runs `combinations(facet, r)` for r = 0.. on each
    facet, so the r = 0 calls count listings facet by facet.
    """
    from collections import Counter

    import macstab.simplicial as simplicial

    built, listed = [], Counter()
    init, combinations = simplicial.SimplicialComplex.__init__, simplicial.combinations

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def counting_combinations(items, r):
        if r == 0:
            listed[frozenset(items)] += 1
        return combinations(items, r)

    monkeypatch.setattr(simplicial.SimplicialComplex, "__init__", recording_init)
    monkeypatch.setattr(simplicial, "combinations", counting_combinations)
    return built, listed


def test_cli_betti_builds_one_complex_and_no_restriction(monkeypatch, tmp_path):
    # every summand is read off the complex's own coboundary rows: one complex,
    # each facet's faces listed once, and no restriction or cohomology built;
    # the subsets come in prefix order, so each one is a single push of the
    # echelon stack, and no rank is taken from scratch
    from collections import Counter

    from macstab.cli import main
    from macstab.homology import CohomologyBasis, RestrictionDims
    from macstab.linalg import CochainComplex

    path = tmp_path / "vccube4.json"
    path.write_text(json.dumps(serialize_complex(vc_cube_dual(4))))
    built, listed = _record_complexes(monkeypatch)
    restricted = _count_bound_calls(monkeypatch, "simplicial", "full_subcomplex")
    ranked = _count_bound_calls(monkeypatch, "linalg", "rank")
    bases, complexes, pushes = [], [], []
    _count_calls(monkeypatch, CohomologyBasis, "__init__", bases)
    _count_calls(monkeypatch, CochainComplex, "__init__", complexes)
    _count_calls(monkeypatch, RestrictionDims, "_push", pushes)
    assert main(["betti", "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
    assert len(built) == 1 and len(built[0].vertices) == 9
    assert listed == Counter(built[0].facets)
    assert restricted == [] and bases == []
    assert ranked == [] and complexes == []
    assert len(pushes) == 2 ** 9 - 1


def test_cli_betti_per_multidegree_computes_each_summand_once(monkeypatch, tmp_path):
    # the Betti numbers are the sums of the split's rows: one pass over the subsets
    from macstab.cli import main
    from macstab.homology import RestrictionDims

    path, out = tmp_path / "vccube4.json", tmp_path / "out.json"
    path.write_text(json.dumps(serialize_complex(vc_cube_dual(4))))
    calls = []
    _count_calls(monkeypatch, RestrictionDims, "dims", calls)
    assert main(["betti", "--input", str(path), "--per-multidegree", "--output", str(out)]) == 0
    assert len(calls) == 2 ** 9
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "29a95d7702507c460d091aae360f0e32ca9f2bc7369711ae693e6ee066b41dca"
    )


def test_cli_cap_on_a_large_family_exits_before_any_quadratic_work():
    # 20,000 vertices: the subset count has too many digits to print, and the
    # complex, the closure check and the cap check must each stay near linear
    rc, out, err = run_cli("betti", "--family", "skeleton:0", "--m", "20000")
    assert rc == 2 and out == ""
    assert err.startswith("cap exceeded:") and err.count("\n") == 1
    assert "20000 vertices" in err and "Traceback" not in err


def test_cli_product_builds_each_restriction_once(monkeypatch, capsys):
    from macstab.cli import main

    built, _ = _record_complexes(monkeypatch)
    argv = ["product", "--family", "skeleton:0", "--m", "4", "--check-equivariance"]
    assert main(argv) == 0
    assert report_of(capsys.readouterr().out)["equivariant"] is True
    assert len(built) <= 1 + 2 ** 4  # the complex and one restriction per subset


def _count_basis_work(monkeypatch):
    """Record every `Matrix` constructed and every call of
    `CochainComplex.representatives`: the basis work that only the ring code
    should do, and that no command does densely."""
    from macstab.linalg import CochainComplex, Matrix

    matrices, built = [], []
    _count_calls(monkeypatch, Matrix, "__init__", matrices)
    _count_calls(monkeypatch, CochainComplex, "representatives", built)
    return matrices, built


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--family", "skeleton:0", "--degree", "6", "--m", "6..8"],
        ["oracle", "--family", "skeleton:1", "--m", "5"],
        ["decompose", "--family", "vccube", "--m", "4", "--degree", "5", "--irreducibles"],
    ],
    ids=["scan", "oracle", "decompose-irreducibles"],
)
def test_cli_traces_build_no_basis(monkeypatch, capsys, argv):
    from macstab.cli import main
    from macstab.linalg import CochainComplex

    matrices, built = _count_basis_work(monkeypatch)
    traced = []
    _count_calls(monkeypatch, CochainComplex, "trace", traced)
    assert main(argv) == 0
    assert traced  # the characters were taken, from the cocycle kernels
    assert matrices == [] and built == []


def test_cli_product_builds_representatives_without_a_matrix(monkeypatch, capsys):
    from macstab.cli import main

    matrices, built = _count_basis_work(monkeypatch)
    argv = ["product", "--family", "skeleton:0", "--m", "4", "--check-equivariance"]
    assert main(argv) == 0
    assert report_of(capsys.readouterr().out)["equivariant"] is True
    assert built and matrices == []


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--family", "skeleton:1", "--m", "6", "--per-multidegree"],
        ["scan", "--family", "vccube", "--degree", "5", "--m", "3..5"],
        ["decompose", "--family", "skeleton:1", "--m", "5", "--degree", "5", "--irreducibles"],
        ["oracle", "--family", "vccube", "--m", "3"],
        ["product", "--family", "skeleton:1", "--m", "5", "--check-equivariance"],
        ["check-family", "--family", "skeleton:1", "--m", "3..5"],
    ],
    ids=["betti", "scan", "decompose-irreducibles", "oracle", "product", "check-family"],
)
def test_cli_constructs_no_matrix(monkeypatch, capsys, argv):
    from macstab.cli import main

    matrices, _ = _count_basis_work(monkeypatch)
    assert main(argv) == 0
    assert matrices == []


def test_cli_scan_ranks_each_coboundary_it_reads_once(monkeypatch, capsys):
    # dim H̃^p reads the ranks of d_{p-1} and d_p only, and the traces reuse them
    import macstab.linalg as linalg
    from macstab.cli import main
    from macstab.homology import CohomologyBasis

    ranks, bases = [], []
    _count_calls(monkeypatch, linalg, "rank", ranks)
    _count_calls(monkeypatch, CohomologyBasis, "__init__", bases)
    assert main(["scan", "--family", "vccube", "--degree", "5", "--m", "3..7"]) == 0
    assert bases and len(ranks) <= 2 * len(bases)


def test_cli_equivariance_check_moves_each_class_once_per_generator(monkeypatch, capsys):
    from macstab.cli import main
    from macstab.hochster import spanning_classes

    moved = _count_bound_calls(monkeypatch, "hochster", "transported_action")
    argv = ["product", "--family", "skeleton:0", "--m", "4", "--check-equivariance"]
    assert main(argv) == 0
    assert report_of(capsys.readouterr().out)["equivariant"] is True
    n = len(spanning_classes(skeleton(4, 0)))
    # Σ_4 has two generators; each moves every class once and every product once
    assert len(moved) == 2 * (n + n * n)


def test_cli_product_computes_each_product_once(monkeypatch, capsys):
    from macstab.cli import main
    from macstab.hochster import spanning_classes

    products = _count_bound_calls(monkeypatch, "hochster", "cup_product")
    argv = ["product", "--family", "skeleton:0", "--m", "4", "--check-equivariance"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "218639f662638a1a6ed21654d567bd711aaa581b33d4f39819c181a06865fc84"
    )
    n = len(spanning_classes(skeleton(4, 0)))
    # each a⋆b once, shared by the table and the check, then (ga)⋆(gb) for
    # each of Σ_4's two generators
    assert len(products) == 3 * n * n == 972


def test_cli_rank_off_by_one_is_an_internal_mismatch(monkeypatch, capsys, tmp_path):
    # negative control: the ranks give the Betti numbers, which must not be
    # negative, and the cocycle kernels and the representatives must agree
    # with them wherever they are built; `betti` reads its ranks off the
    # echelon stack of `RestrictionDims`, so that seam is off by one too
    import macstab.linalg as linalg
    from macstab.cli import main
    from macstab.hochster import summand_memo
    from macstab.homology import RestrictionDims, reduced_cohomology

    path = tmp_path / "vccube4.json"
    path.write_text(json.dumps(serialize_complex(vc_cube_dual(4))))
    rank, ranks = linalg.rank, RestrictionDims._ranks
    monkeypatch.setattr(linalg, "rank", lambda rows: rank(rows) + 1)
    monkeypatch.setattr(RestrictionDims, "_ranks", lambda self: [r + 1 for r in ranks(self)])
    for argv in (
        ["scan", "--family", "skeleton:0", "--degree", "4", "--m", "4..5"],
        ["product", "--family", "skeleton:0", "--m", "4", "--check-equivariance"],
        ["betti", "--input", str(path)],
    ):
        try:
            assert main(argv) == 3
        finally:
            # drop the bases, and any summand data, built with the wrong ranks
            reduced_cohomology.cache_clear()
            summand_memo.clear()
        assert "internal mismatch" in capsys.readouterr().err


def test_cli_non_cocycle_zero_test_is_an_internal_mismatch(monkeypatch, capsys):
    # negative control: a corrupted product is no cocycle, and the zero test
    # in cohomology must refuse it rather than answer
    import macstab.hochster as hochster
    from macstab.cli import main

    cup = hochster.cup_product

    def corrupted(K, a, b):
        out = cup(K, a, b)
        if not out.cochain:
            return out
        cochain = (out.cochain[0] + 1,) + out.cochain[1:]
        return hochster.CohomologyClass(out.subset, out.degree, cochain)

    monkeypatch.setattr(hochster, "cup_product", corrupted)
    # vccube at m = 3 has products in degrees with a coboundary out of them
    assert main(["product", "--family", "vccube", "--m", "3"]) == 3
    err = capsys.readouterr().err
    assert "internal mismatch" in err and "non-cocycle" in err


def test_cli_non_cocycle_projection_is_an_internal_mismatch(monkeypatch, capsys):
    # negative control: a corrupted cochain action sends cocycles to
    # non-cocycles, a fault of the program, not of its input
    import macstab.homology as homology
    from macstab.cli import main

    action = homology.cochain_action

    def swapped(g, K, p):
        # swap two rows of the action's matrix: the images landing on the last
        # two faces trade places
        out = action(g, K, p)
        n = len(out)
        rows = {} if g.is_identity() else {n - 1: n - 2, n - 2: n - 1}
        return [(rows.get(target, target), sign) for target, sign in out]

    monkeypatch.setattr(homology, "cochain_action", swapped)
    assert main(["scan", "--family", "vccube", "--degree", "4", "--m", "3..4"]) == 3
    err = capsys.readouterr().err
    assert "internal mismatch" in err and "non-cocycle" in err


def test_cli_non_cocycle_block_action_is_an_internal_mismatch(monkeypatch, capsys):
    # the cellular twin: a corrupted block action makes the oracle's own
    # traces fail their cocycle check
    import macstab.cellular as cellular
    from macstab.cli import main

    action = cellular.block_action

    def swapped(Z, g, J, i):
        out = action(Z, g, J, i)
        n = len(out)
        rows = {} if g.is_identity() or n < 2 else {n - 1: n - 2, n - 2: n - 1}
        return [(rows.get(target, target), sign) for target, sign in out]

    monkeypatch.setattr(cellular, "block_action", swapped)
    assert main(["oracle", "--family", "skeleton:1", "--m", "5"]) == 3
    err = capsys.readouterr().err
    assert "internal mismatch" in err and "non-cocycle" in err


def test_cli_scan_refuses_one_file_for_the_report_and_the_csv(monkeypatch, tmp_path, capsys):
    # the report would be written over the CSV
    import macstab.cli as cli

    monkeypatch.chdir(tmp_path)
    argv = ["scan", "--family", "skeleton:0", "--degree", "4", "--m", "4..6"]
    assert cli.main([*argv, "--output", str(tmp_path / "scan.out"), "--csv", "./scan.out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--output" in err and "--csv" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "unwritable", ["--output", "--csv"], ids=["output", "csv"]
)
def test_cli_checks_output_paths_before_computing(monkeypatch, tmp_path, capsys, unwritable):
    import macstab.cli as cli
    import macstab.families as families

    def unreachable(*args, **kwargs):
        raise AssertionError("computed before checking the output paths")

    monkeypatch.setattr(families, "multiplicity_scan", unreachable)
    paths = {"--output": str(tmp_path / "x.json"), "--csv": str(tmp_path / "s.csv")}
    paths[unwritable] = "/nonexistent/x"
    argv = ["scan", "--family", "skeleton:0", "--degree", "6", "--m", "6..12"]
    for flag, path in paths.items():
        argv += [flag, path]
    assert cli.main(argv) == 1
    assert "/nonexistent/x" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # the writable path is left as it was
