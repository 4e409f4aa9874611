import json
import subprocess
import sys

import pytest

from macstab.documents import dumps_report, make_report, parse_complex, serialize_complex
from macstab.errors import ValidationError
from macstab.simplicial import skeleton, vc_cube_dual


def run_cli(*argv, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "macstab.cli", *argv],
        capture_output=True,
        text=True,
        input=stdin,
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
    assert G.degree == 4 and [g.images for g in G.generators] == [(2, 3, 4, 1)]
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


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (("betti", "--input", "/nonexistent.json"), None),
        (("betti", "--family", "skeleton:x", "--m", "3"), None),
        (("scan", "--family", "skeleton:0", "--degree", "3", "--m", "3..x"), None),
        (("betti", "--family", "join:1,,", "--m", "3"), None),
        (("betti", "--input", "-"), json.dumps({"vertices": [1, 2], "facets": [[1, 2]]})),
    ],
    ids=["missing-file", "skeleton-arg", "range-end", "join-arg", "bare-int-vertices"],
)
def test_cli_malformed_input_is_a_validation_error(argv, stdin):
    rc, _, err = run_cli(*argv, stdin=stdin)
    assert rc == 1 and err.startswith("error: ")
    assert "Traceback" not in err


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
