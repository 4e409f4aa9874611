import json
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from macstab.documents import serialize_complex
from macstab.errors import ValidationError
from macstab.families import (
    Family,
    _newton_to_monomial,
    betti_at_degree,
    betti_growth,
    check_consistent,
    check_r_face_stable,
    check_r_vertex_stable,
    check_stabiliser_consistent,
    join_of_skeleta,
    multiplicity_scan,
    parse_family,
)
from macstab.hochster import MOMENT_ANGLE, betti
from macstab.perms import (
    PermGroup,
    enumerate_group,
    is_g_complex,
    pattern_orbit_reps,
    subset_orbit_reps,
)
from macstab.simplicial import SimplicialComplex, Vertex, skeleton, vc_cube_dual
from macstab.symrep import hook_dim
from oracles import (
    consistent_by_generators,
    face_stable_by_relabelling,
    vertex_stable_by_relabelling,
)

FAMILIES = [
    parse_family("skeleton:0"),
    parse_family("skeleton:1"),
    parse_family("skeleton:2"),
    parse_family("join:0,0"),
    parse_family("join:1,0"),
    parse_family("vccube"),
]


def test_instantiate_examples():
    K, G = parse_family("skeleton:0").instantiate(4)
    assert len(K.faces_of_dim(0)) == 4 and K.dim == 0
    assert G.degree == 4 and len(enumerate_group(list(G.generators))) == 24
    Kj, _ = parse_family("join:0,0").instantiate(2)
    assert len(Kj.vertices) == 4 and len(Kj.faces_of_dim(1)) == 4
    Kv, _ = parse_family("vccube").instantiate(2)
    assert len(Kv.vertices) == 5 and len(Kv.faces_of_dim(1)) == 5


def test_parse_family(tmp_path):
    for fam in FAMILIES:
        assert parse_family(fam.description) == fam
    assert parse_family("skeleton:2") == Family("skeleton:2", skeleton, (2,))
    assert parse_family("join:0,1") == Family("join:0,1", join_of_skeleta, (0, 1))
    assert parse_family("vccube") == Family("vccube", vc_cube_dual)
    with pytest.raises(ValidationError):
        parse_family("frieze:7")
    # a custom file loads through the spec alone, as the command line reads it
    path = tmp_path / "points.json"
    complexes = {str(m): serialize_complex(skeleton(m, 0)) for m in (2, 3)}
    path.write_text(json.dumps({"name": "points", "complexes": complexes}))
    fam = parse_family(f"custom:{path}")
    assert fam.description == "custom:points"
    K, G = fam.instantiate(3)
    assert K.facets == skeleton(3, 0).facets and G == PermGroup.symmetric(3)
    with pytest.raises(ValidationError, match="no complex for m=4"):
        fam.instantiate(4)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.description)
def test_families_are_group_complexes(fam):
    for m in range(1, 6):
        K, G = fam.instantiate(m)
        assert is_g_complex(K, G)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.description)
def test_families_consistent(fam):
    assert check_consistent(fam, range(1, 6))


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.description)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_vertex_stability_at_r_plus_one(fam, r):
    assert check_r_vertex_stable(fam, r, r + 1, range(1, 7))


@pytest.mark.parametrize("fam,r", [
    (parse_family("skeleton:0"), 0), (parse_family("skeleton:1"), 1),
    (parse_family("join:0,0"), 1),
])
def test_face_stability_examples(fam, r):
    assert check_r_face_stable(fam, r, r + 1, range(1, 6))


def test_vc_face_stability_needs_higher_degree():
    # the deleted-corner pole is a ghost vertex at rank 1, so 0-faces only
    # stabilise from rank 2 onwards
    fam = parse_family("vccube")
    assert not check_r_face_stable(fam, 0, 1, range(1, 5))
    assert check_r_face_stable(fam, 0, 2, range(2, 6))


def _late_tag(m: int) -> SimplicialComplex:
    """Points on the indices 1..m, with a second tag's points from rank 3 on."""
    verts = [Vertex(i, t) for i in range(1, m + 1) for t in ((0, 1) if m >= 3 else (0,))]
    return SimplicialComplex(verts, [[v] for v in verts])


LATE_TAG = Family("custom:late-tag", _late_tag)


def test_vertex_stability_fails_for_a_tag_that_appears_late():
    for check in (check_r_vertex_stable, vertex_stable_by_relabelling):
        assert not check(LATE_TAG, 0, 1, range(1, 7))
        assert check(LATE_TAG, 0, 3, range(1, 7))


def _shrinking(m: int) -> SimplicialComplex:
    """Edges on the indices 1..m up to rank 2, points from rank 3 on: closed
    under Σ_m at every rank, but K_2's edge is no face of K_3."""
    return skeleton(m, 1 if m <= 2 else 0)


SHRINKING = Family("custom:shrinking", _shrinking)


def test_consistency_fails_where_a_rank_drops_a_face():
    assert not check_consistent(SHRINKING, range(2, 4))
    assert check_consistent(SHRINKING, range(3, 6))


@pytest.mark.parametrize("window", [range(1, 7), range(2, 8)], ids=["1..6", "2..7"])
@pytest.mark.parametrize(
    "fam", FAMILIES + [LATE_TAG, SHRINKING], ids=lambda f: f.description
)
def test_consistency_agrees_with_the_generator_walk(fam, window):
    # one facet per Σ_m-orbit against every facet and its image under each generator
    assert check_consistent(fam, window) == consistent_by_generators(fam, window)


def test_consistency_reads_one_facet_per_orbit(monkeypatch):
    # the consistency walk of `check-family --family vccube --m 4..10`
    looked_up = []
    has_face = SimplicialComplex.has_face

    def counting(K, face):
        looked_up.append(face)
        return has_face(K, face)

    monkeypatch.setattr(SimplicialComplex, "has_face", counting)
    fam = parse_family("vccube")
    assert check_consistent(fam, range(4, 11))
    facet_reps = []
    for m in range(4, 11):
        K, _ = fam.instantiate(m)
        reps = pattern_orbit_reps(K, m, K.dim + 1)
        facet_reps += [J for J in reps if J in K.facets]
    assert looked_up == facet_reps and len(looked_up) == 56


@pytest.mark.parametrize("window", [range(1, 7), range(2, 8)], ids=["1..6", "2..7"])
@pytest.mark.parametrize("fam", FAMILIES + [LATE_TAG], ids=lambda f: f.description)
def test_stability_checks_agree_with_the_relabelling_search(fam, window):
    # the checks read one orbit representative per subset class; the search
    # tries every subset (or face) at rank m under every relabelling into 1..d
    for r in (0, 1, 2):
        for d in (r + 1, r + 2):
            assert check_r_vertex_stable(fam, r, d, window) == vertex_stable_by_relabelling(
                fam, r, d, window
            ), (r, d)
            assert check_r_face_stable(fam, r, d, window) == face_stable_by_relabelling(
                fam, r, d, window
            ), (r, d)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.description)
def test_stabiliser_consistency_small_subsets(fam):
    K1, _ = fam.instantiate(1)
    for size in (1, 2):
        for J in combinations(K1.vertices, size):
            assert check_stabiliser_consistent(fam, frozenset(J), range(1, 6))


def test_stabiliser_consistency_vc_with_cone_point():
    fam = parse_family("vccube")
    star = Vertex(None, 0)
    assert check_stabiliser_consistent(fam, frozenset({star}), range(1, 6))
    J = frozenset({star, Vertex(1, 0), Vertex(1, 1)})
    assert check_stabiliser_consistent(fam, J, range(2, 6))


def test_multiplicity_scan_i3():
    report = multiplicity_scan(parse_family("skeleton:0"), MOMENT_ANGLE, 3, range(3, 9))
    assert report.tables[3] == {(): 1, (1,): 1}
    stable = {(): 1, (1,): 1, (2,): 1}
    for m in range(4, 9):
        assert report.tables[m] == stable
    assert report.onset == 4 and report.certified
    assert report.weight == 2
    assert report.betti == {m: m * (m - 1) // 2 for m in range(3, 9)}


def test_multiplicity_scan_i4():
    report = multiplicity_scan(parse_family("skeleton:0"), MOMENT_ANGLE, 4, range(4, 10))
    stable = {(1,): 1, (2,): 1, (1, 1): 1, (2, 1): 1}
    assert report.onset == 5 and report.certified
    for m in range(5, 10):
        assert report.tables[m] == stable
    assert report.weight == 3


def test_scan_dimension_identity():
    report = multiplicity_scan(parse_family("skeleton:0"), MOMENT_ANGLE, 4, range(4, 9))
    for m, table in report.tables.items():
        total = sum(mult * hook_dim((m - sum(b),) + b) for b, mult in table.items())
        assert total == report.betti[m]


def test_scan_weight_at_most_degree():
    for i in (3, 4, 5):
        report = multiplicity_scan(
            parse_family("skeleton:0"), MOMENT_ANGLE, i, range(max(3, i), max(3, i) + 3)
        )
        assert report.weight <= i


def test_scan_matches_single_orbit_rule():
    # for the k-skeleton family in the stable degrees, exactly one orbit
    # contributes, with support size i - k - 1
    from macstab.hochster import orbit_summands

    k, i = 1, 6  # i >= 2k + 3
    for m in (6, 7):
        K, _ = parse_family(f"skeleton:{k}").instantiate(m)
        summands = orbit_summands(K, MOMENT_ANGLE, i, m)
        assert len(summands) == 1
        assert len(summands[0].support) == i - k - 1


def test_betti_growth_quadratic():
    fit, values, _ = betti_growth(parse_family("skeleton:0"), MOMENT_ANGLE, 3, range(3, 9))
    assert values == [m * (m - 1) // 2 for m in range(3, 9)]
    assert fit.degree == 2
    assert fit.coefficients == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))
    assert all(fit.predict(m) == m * (m - 1) // 2 for m in range(3, 30))


def test_betti_growth_cubic():
    fit, values, _ = betti_growth(parse_family("skeleton:0"), MOMENT_ANGLE, 4, range(4, 10))
    assert fit.degree == 3
    assert all(fit.predict(m) == m * (m - 1) * (m - 2) // 3 for m in range(4, 30))


def test_betti_growth_vc_linear_tail():
    fit, values, _ = betti_growth(parse_family("vccube"), MOMENT_ANGLE, 3, range(2, 7))
    assert values == [5, 6, 8, 10, 12]
    assert fit.degree == 1 and fit.onset_m == 3
    assert fit.coefficients == (Fraction(0), Fraction(2))


def test_betti_growth_insufficient_window():
    fit, values, _ = betti_growth(parse_family("skeleton:0"), MOMENT_ANGLE, 4, range(4, 6))
    assert fit is None


def test_betti_growth_refuses_an_empty_window():
    with pytest.raises(ValidationError, match="empty scan range"):
        betti_growth(parse_family("skeleton:0"), MOMENT_ANGLE, 4, range(6, 4))


@settings(max_examples=300)
@given(st.integers(-20, 20), st.lists(st.integers(-50, 50), min_size=1, max_size=7))
def test_newton_expansion_evaluates_to_the_newton_form(m0, diffs):
    # the monomial coefficients of Σ_k Δ^k · C(m - m0, k), checked by evaluating
    # both forms at t + 3 points, more than the t + 1 that fix a degree-t polynomial
    coeffs = _newton_to_monomial(m0, diffs)
    assert all(type(c) is Fraction for c in coeffs)
    # C(m - m0, k) has degree k, so the degree is the last nonzero Δ^k's: no trailing 0
    assert len(coeffs) - 1 == max((k for k, d in enumerate(diffs) if d), default=0)
    for m in range(m0, m0 + len(diffs) + 2):
        expected = sum(d * comb(m - m0, k) for k, d in enumerate(diffs))
        assert sum(c * m**k for k, c in enumerate(coeffs)) == expected


def test_betti_at_degree_matches_full_table():
    for fam in (parse_family("skeleton:1"), parse_family("vccube")):
        for m in (3, 4):
            K, G = fam.instantiate(m)
            full = betti(K, MOMENT_ANGLE, subset_orbit_reps(K, G).orbit_sizes)
            for i in (3, 4, 5):
                assert betti_at_degree(K, MOMENT_ANGLE, i, G) == full.get(i, 0)


@pytest.mark.parametrize(
    "spec, i, ms",
    [("skeleton:0", 5, range(3, 8)), ("skeleton:1", 6, range(3, 7)),
     ("skeleton:-1", 3, range(2, 7)), ("vccube", 5, range(3, 7)),
     ("join:0,0", 5, range(3, 7))],
    ids=["skeleton0", "skeleton1", "skeleton-1", "vccube", "join0,0"],
)
def test_summand_memo_is_exact(spec, i, ms):
    # a scan computes each summand once; recomputing every rank from scratch,
    # with no memo, gives the same tables and Betti numbers
    from macstab.hochster import orbit_summands, padded_table, summand_memo

    fam = parse_family(spec)
    summand_memo.clear()
    scan = multiplicity_scan(fam, MOMENT_ANGLE, i, ms)
    computed = len(summand_memo)
    met = 0
    for m in ms:
        summand_memo.clear()
        K, _ = fam.instantiate(m)
        summands = orbit_summands(K, MOMENT_ANGLE, i, m)
        met += len(summands)
        assert scan.tables[m] == padded_table(summands, m)
        assert scan.betti[m] == sum(s.orbit_size * s.dim for s in summands)
    assert computed < met  # the scan met some summand at several ranks


def test_summand_memo_keys_on_the_subset():
    # K_J = {∅} for every J of skeleton:-1, so only J tells its summands apart
    from macstab.hochster import summand_memo, sym_irreducible_decomposition
    from macstab.simplicial import skeleton

    K = skeleton(5, -1)
    summand_memo.clear()
    shared = [sym_irreducible_decomposition(K, MOMENT_ANGLE, i, 5) for i in (2, 3, 4)]
    fresh = []
    for i in (2, 3, 4):
        summand_memo.clear()
        fresh.append(sym_irreducible_decomposition(K, MOMENT_ANGLE, i, 5))
    assert shared == fresh
