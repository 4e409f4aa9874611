"""Acceptance suite: one test per numbered criterion, printing a PASS/FAIL
line each (visible with -s or on failure).

Criteria 3 and 7 pin the stable decompositions, the onset and the weight of
the disjoint-points family.  For the moment-angle pair (D^2, S^1) an element
stabilising J acts on the J-summand by its action on H~*(K_J) times the sign
of permuting the odd-sphere smash factors of J (Bahri-Bendersky-Cohen-Gitler,
"The polyhedral product functor", 2010); criterion 3 also pins the tables of
the even-sphere pair (D^3, S^2), where that sign is trivial.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations
from math import comb

from macstab.cellular import MomentAngleCellComplex, compare_with_hochster
from macstab.families import (
    betti_growth,
    check_consistent,
    check_r_vertex_stable,
    check_stabiliser_consistent,
    multiplicity_scan,
    parse_family,
)
from macstab.hochster import (
    MOMENT_ANGLE,
    SpherePair,
    betti,
    sym_irreducible_decomposition,
)
from macstab.perms import (
    PermGroup,
    Permutation,
    enumerate_group,
    is_g_complex,
    subset_orbit_reps,
)
from macstab.simplicial import SimplicialComplex, Vertex, skeleton, vc_cube_dual
from macstab.symrep import hook_dim

from oracles import summand_routes


@contextmanager
def criterion(number: str, label: str):
    try:
        yield
    except AssertionError:
        print(f"criterion {number:>3}: FAIL  {label}")
        raise
    else:
        print(f"criterion {number:>3}: PASS  {label}")


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_square_example(square, c4):
    with criterion("1", "square with the cyclic action: Betti, orbits, stabilizer"):
        start = time.perf_counter()
        assert betti(square) == {0: 1, 3: 2, 6: 1}
        table = subset_orbit_reps(square, c4)
        v = {w.index: w for w in square.vertices}
        expected = {
            frozenset(),
            frozenset({v[1]}),
            frozenset({v[1], v[2]}),
            frozenset({v[1], v[3]}),
            frozenset({v[1], v[2], v[3]}),
            frozenset({v[1], v[2], v[3], v[4]}),
        }
        assert set(table.representatives) == expected
        stab = enumerate_group(list(table.stabilizer_gens(frozenset({v[1], v[3]}))))
        assert len(stab) == 2
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_skeleton_betti_formula():
    with criterion("2", "skeleton Betti tables match the closed formula"):
        start = time.perf_counter()
        for k in (0, 1):
            for m in range(k + 2, 8):
                expected = {0: 1}
                for j in range(k + 2, m + 1):
                    expected[j + k + 1] = comb(m, j) * comb(j - 1, k + 1)
                K = skeleton(m, k)
                got = betti(K, orbits=subset_orbit_reps(K, PermGroup.symmetric(m)).orbit_sizes)
                assert got == expected, f"k={k} m={m}: {got} != {expected}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------- criterion 3

# For K = m points, H^i(Z_K) is the sum over |J| = i - 1 of H~^0(J points),
# the standard representation V_(i-2,1) of the stabiliser factor S_{i-1},
# twisted by sign(g|_J)^d and induced from S_{i-1} x S_{m-i+1} with the
# trivial representation on the second factor.  Induction is Pieri's rule:
# add m - i + 1 boxes to the twisted shape, no two in one column.  Keys are
# padded coordinates (the first row dropped).
#
# Moment-angle pair (d = 1), degree i: V_(i-2,1) (x) sgn = V_(2,1^{i-3}), and
# Pieri on (2,1^{i-3}) gives (1^{i-3}) + (2,1^{i-4}) + (1^{i-2}) + (2,1^{i-3})
# for i >= 4, and () + (1,) + (2,) for i = 3.  In degree 4 the twist is
# invisible, because V_(2,1) (x) sgn = V_(2,1).
STABLE_TABLES = {
    3: {(): 1, (1,): 1, (2,): 1},
    4: {(1,): 1, (2,): 1, (1, 1): 1, (2, 1): 1},
    5: {(1, 1): 1, (2, 1): 1, (1, 1, 1): 1, (2, 1, 1): 1},
    6: {(1, 1, 1): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1, (2, 1, 1, 1): 1},
}

# Even-sphere pair (D^3, S^2), degree 2i - 1 (the J-summands with |J| = i - 1):
# no twist, and Pieri on (i-2,1) gives (k,) and (k,1) for k = 1..i-2.
EVEN_SPHERE_STABLE_TABLES = {
    3: {(1,): 1, (1, 1): 1},
    4: {(1,): 1, (2,): 1, (1, 1): 1, (2, 1): 1},
    5: {(1,): 1, (2,): 1, (1, 1): 1, (3,): 1, (2, 1): 1, (3, 1): 1},
    6: {(1,): 1, (2,): 1, (1, 1): 1, (3,): 1, (2, 1): 1, (4,): 1, (3, 1): 1,
        (4, 1): 1},
}

# Ranks inside both stable ranges: the padded shape (2,1^{i-3}) needs
# m >= i + 1, and (i-2,1) needs m >= 2i - 3.
STABLE_RANGES = {3: range(4, 9), 4: range(5, 10), 5: range(7, 11), 6: range(9, 12)}

EVEN_SPHERE = SpherePair(2)


def _check_stable_tables(i: int):
    for m in STABLE_RANGES[i]:
        got = sym_irreducible_decomposition(skeleton(m, 0), MOMENT_ANGLE, i, m)
        assert got == STABLE_TABLES[i], (
            f"moment-angle pair, degree {i}, rank {m}: "
            f"computed {got} != stable table {STABLE_TABLES[i]}"
        )
        got = sym_irreducible_decomposition(skeleton(m, 0), EVEN_SPHERE, 2 * i - 1, m)
        assert got == EVEN_SPHERE_STABLE_TABLES[i], (
            f"even-sphere pair, degree {2 * i - 1}, rank {m}: "
            f"computed {got} != stable table {EVEN_SPHERE_STABLE_TABLES[i]}"
        )


def test_criterion_03a_reference_table_degree_3():
    with criterion("3a", "stable tables in degree 3, both twist parities"):
        _check_stable_tables(3)
        # rank 3 lies before the stable range: V_(1,2) does not exist, which
        # leaves the permutation module on 2-subsets
        got = sym_irreducible_decomposition(skeleton(3, 0), MOMENT_ANGLE, 3, 3)
        assert got == {(): 1, (1,): 1}, f"rank 3: computed {got}"
        got = sym_irreducible_decomposition(skeleton(3, 0), EVEN_SPHERE, 5, 3)
        assert got == EVEN_SPHERE_STABLE_TABLES[3], f"even sphere, rank 3: {got}"


def test_criterion_03b_reference_table_degree_4():
    with criterion("3b", "stable tables in degree 4, both twist parities"):
        _check_stable_tables(4)


def test_criterion_03c_reference_table_degree_5():
    with criterion("3c", "stable tables in degree 5, both twist parities"):
        _check_stable_tables(5)


def test_criterion_03d_reference_table_degree_6():
    with criterion("3d", "stable tables in degree 6, both twist parities"):
        _check_stable_tables(6)


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_dimension_cross_check():
    with criterion("4", "hook dimension totals at (4,5) and (5,7)"):
        t45 = sym_irreducible_decomposition(skeleton(5, 0), MOMENT_ANGLE, 4, 5)
        s45 = sum(mult * hook_dim((5 - sum(b),) + b) for b, mult in t45.items())
        assert s45 == 20 == 2 * comb(5, 3)
        t57 = sym_irreducible_decomposition(skeleton(7, 0), MOMENT_ANGLE, 5, 7)
        s57 = sum(mult * hook_dim((7 - sum(b),) + b) for b, mult in t57.items())
        assert s57 == 105 == 3 * comb(7, 4)


# ---------------------------------------------------------------- criterion 5


def _random_five_vertex_complex(rng):
    verts = [Vertex(i) for i in range(1, 6)]
    pool = [frozenset(c) for r in (2, 3) for c in combinations(verts, r)]
    picked = rng.sample(pool, rng.randint(2, 7))
    return SimplicialComplex(verts, picked + [frozenset([v]) for v in verts])


def _full_symmetry_subgroup(K, n=5):
    from itertools import permutations as iter_permutations

    found = []
    for imgs in iter_permutations(range(1, n + 1)):
        g = Permutation(imgs)
        if g.is_identity():
            continue
        if all(K.has_face(frozenset(g.act_vertex(v) for v in f)) for f in K.facets):
            found.append(g)
    return PermGroup(n, tuple(found) or (Permutation.identity(n),))


def test_criterion_05_oracle_equivalence(square, c4):
    with criterion("5", "cellular model agrees with the split pipeline"):
        start = time.perf_counter()
        jobs = [(square, c4, range(0, 9))]
        for m in (2, 3, 4, 5):
            jobs.append((skeleton(m, 0), PermGroup.symmetric(m), range(0, 2 * m + 1)))
        jobs.append((skeleton(4, 1), PermGroup.symmetric(4), range(0, 9)))
        jobs.append((vc_cube_dual(2), PermGroup.symmetric(2), range(0, 11)))
        rng = random.Random(51_2024)
        for _ in range(10):
            K = _random_five_vertex_complex(rng)
            G = _full_symmetry_subgroup(K)
            assert is_g_complex(K, G)
            jobs.append((K, G, range(0, 11)))
        for K, G, degrees in jobs:
            diff = compare_with_hochster(K, G, degrees)
            assert diff == [], f"discrepancies: {diff[:3]}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------- criterion 6

ROUTE_WINDOWS = {3: range(3, 9), 4: range(5, 10), 5: range(7, 11), 6: range(9, 12)}


def test_criterion_06_induction_route_equivalence():
    with criterion("6", "class-fusion route equals horizontal-strip route"):
        for i, ms in ROUTE_WINDOWS.items():
            for m in ms:
                routes = summand_routes(skeleton(m, 0), MOMENT_ANGLE, i, m)
                assert routes, f"no summands at degree {i}, rank {m}"
                for rep, fusion, strips in routes:
                    assert fusion == strips, (
                        f"routes differ at degree {i}, rank {m} on "
                        f"{sorted(map(str, rep))}"
                    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_07a_stability_onset_degree_4():
    with criterion("7a", "degree-4 scan stabilises from rank 5"):
        report = multiplicity_scan(parse_family("skeleton:0"), MOMENT_ANGLE, 4, range(4, 10))
        assert report.certified and report.onset == 5


def test_criterion_07b_stability_onset_degree_3():
    with criterion("7b", "degree-3 scan stabilises from rank 4"):
        report = multiplicity_scan(parse_family("skeleton:0"), MOMENT_ANGLE, 3, range(3, 9))
        assert report.certified
        # V_(m-2,2) enters at rank 4; rank 3 has the two one-row-short shapes
        assert report.onset == 4, f"onset {report.onset}: {report.tables}"
        assert report.tables[3] == {(): 1, (1,): 1}, report.tables[3]


def test_criterion_07c_scan_weight_bound():
    with criterion("7c", "scan weight equals degree minus one"):
        # H^i is induced from a rank-(i-1) support, so it is generated in
        # degree i - 1, and Pieri puts every mu |- i - 1 under a long first
        # row: the weight is exactly i - 1
        for i, window in ((3, range(3, 9)), (4, range(4, 10))):
            report = multiplicity_scan(parse_family("skeleton:0"), MOMENT_ANGLE, i, window)
            assert report.weight == i - 1, (
                f"degree {i}: weight {report.weight}, tables {report.tables}"
            )


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_polynomial_growth():
    with criterion("8", "exact Betti polynomials for the points family"):
        fit3, _, _ = betti_growth(parse_family("skeleton:0"), MOMENT_ANGLE, 3, range(3, 10))
        assert fit3 is not None and fit3.degree == 2
        assert all(fit3.predict(m) == m * (m - 1) // 2 for m in range(3, 40))
        fit4, _, _ = betti_growth(parse_family("skeleton:0"), MOMENT_ANGLE, 4, range(4, 11))
        assert fit4 is not None and fit4.degree == 3
        assert all(
            fit4.predict(m) == m * (m - 1) * (m - 2) // 3 for m in range(4, 40)
        )


# ---------------------------------------------------------------- criterion 9

ACCEPTANCE_FAMILIES = [
    parse_family("skeleton:0"),
    parse_family("skeleton:1"),
    parse_family("skeleton:2"),
    parse_family("join:0,0"),
    parse_family("join:1,0"),
    parse_family("vccube"),
]


def test_criterion_09_family_checks():
    with criterion("9", "consistency, vertex stability, stabiliser splitting"):
        window = range(1, 7)
        for fam in ACCEPTANCE_FAMILIES:
            assert check_consistent(fam, window), fam.description
            for r in (0, 1, 2):
                assert check_r_vertex_stable(fam, r, r + 1, window), (
                    f"{fam.description} r={r}"
                )
            K2, _ = fam.instantiate(2)
            for size in (1, 2, 3):
                for J in combinations(K2.vertices, size):
                    assert check_stabiliser_consistent(fam, frozenset(J), range(2, 7)), (
                        f"{fam.description} J={sorted(map(str, J))}"
                    )


# --------------------------------------------------------------- criterion 10


def test_criterion_10_manifold_duality():
    with criterion("10", "vertex-cut family: pipelines agree, duality holds"):
        stated_reference_b3 = {m: m for m in (2, 3, 4)}  # reported alongside
        for m in (2, 3, 4):
            K = vc_cube_dual(m)
            hoch = betti(K)
            cell = MomentAngleCellComplex(K, cap=2 * m + 1).betti()
            assert hoch == cell, f"m={m}: {hoch} != {cell}"
            top = 3 * m + 1
            for i in range(top + 1):
                assert hoch.get(i, 0) == hoch.get(top - i, 0), f"m={m} i={i}"
            computed_b3 = hoch.get(3, 0)
            print(
                f"    rank {m}: computed b3 = {computed_b3}, "
                f"externally stated value = {stated_reference_b3[m]}"
            )
            assert computed_b3 == (5 if m == 2 else 2 * m)


# --------------------------------------------------------------- criterion 11


def test_criterion_11_negative_control(square, c4):
    with criterion("11", "corrupting the smash twist breaks the oracle"):
        diff = compare_with_hochster(square, c4, range(0, 8), flip_koszul=True)
        assert diff != []
