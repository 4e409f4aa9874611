from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from macstab.errors import CapExceeded, ValidationError
from macstab.hochster import (
    MOMENT_ANGLE,
    REAL_MOMENT_ANGLE,
    CohomologyClass,
    SpherePair,
    basis_classes,
    betti,
    betti_split,
    class_is_zero_in_cohomology,
    cup_product,
    equivariant_decomposition,
    g_algebra_equivariance_check,
    orbit_summands,
    product_table,
    spanning_classes,
    summand_character,
    summand_memo,
    sym_irreducible_decomposition,
    transported_action,
)
from macstab.homology import induced_cohomology_map, reduced_cohomology
from macstab.perms import (
    PermGroup,
    Permutation,
    pattern_orbit_reps,
    restriction_sign,
    subset_orbit_reps,
    support_split,
)
from macstab.simplicial import (
    SimplicialComplex,
    Vertex,
    full_subcomplex,
    skeleton,
    vc_cube_dual,
)
from macstab.symrep import decompose, hook_dim, induce_to_sym, mn_character, partitions

from oracles import (
    classes_equal_in_cohomology,
    cup_product_by_faces,
    representative_coordinates,
    sigma_closed_complexes,
    summand_routes,
    sym_decomposition_by_fusion,
)


def test_betti_square(square):
    assert betti(square) == {0: 1, 3: 2, 6: 1}


def test_betti_two_points():
    assert betti(skeleton(2, 0)) == {0: 1, 3: 1}


@pytest.mark.parametrize("m,k", [(3, 0), (4, 0), (5, 0), (4, 1), (5, 1)])
def test_betti_skeleton_formula(m, k):
    K = skeleton(m, k)
    table = betti(K, orbits=subset_orbit_reps(K, PermGroup.symmetric(m)).orbit_sizes)
    expected = {0: 1}
    for j in range(k + 2, m + 1):
        expected[j + k + 1] = comb(m, j) * comb(j - 1, k + 1)
    assert table == expected


def test_betti_group_matches_plain(square, c4):
    assert betti(square, orbits=subset_orbit_reps(square, c4).orbit_sizes) == betti(square)
    K = vc_cube_dual(2)
    assert betti(K, orbits=pattern_orbit_reps(K, 2)) == betti(K)


def test_betti_sphere_dim_zero(square):
    # the real pair: one circle factor per vertex of the empty complex
    assert betti(skeleton(1, -1), REAL_MOMENT_ANGLE) == {0: 2}
    assert betti(skeleton(2, 0), REAL_MOMENT_ANGLE) == {0: 1, 1: 1}
    assert betti(skeleton(1, -1), MOMENT_ANGLE) == {0: 1, 1: 1}
    # the real product over the 4-cycle is a torus
    assert betti(square, REAL_MOMENT_ANGLE) == {0: 1, 1: 2, 2: 1}


def test_betti_higher_sphere():
    # two disjoint points with a 2-sphere pair give a 5-sphere
    assert betti(skeleton(2, 0), SpherePair(2)) == {0: 1, 5: 1}
    assert betti(skeleton(3, 0), SpherePair(2)) == {0: 1, 5: 3, 7: 2}


def test_even_sphere_has_no_twist():
    # with an even sphere the smash twist is trivial, so the pair summand
    # carries the bare sign character and the decomposition flips
    for m in (4, 5, 6):
        table = sym_irreducible_decomposition(skeleton(m, 0), SpherePair(2), 5, m)
        assert table == {(1,): 1, (1, 1): 1}


def test_points_lefschetz_numbers_vanish():
    # Any g in S_m fixes Z_{K^g} in Z_K, and for K = m points (m >= 2) the
    # fixed complex K^g is never a full simplex, so chi(Z_K^g) = 0.  By the
    # Lefschetz fixed-point theorem the alternating sum of the characters of
    # g on H^*(Z_K) is that 0; it fails without the odd-sphere smash twist.
    for m in range(2, 6):
        K = skeleton(m, 0)
        tables = {
            i: sym_irreducible_decomposition(K, MOMENT_ANGLE, i, m)
            for i in range(3, m + 2)
        }
        for mu in partitions(m):
            lefschetz = 1 + sum(
                (-1) ** i * mult * mn_character((m - sum(b),) + b, mu)
                for i, table in tables.items()
                for b, mult in table.items()
            )
            assert lefschetz == 0, f"m={m}, cycle type {mu}: {lefschetz}"


def test_betti_split_square(square):
    split = betti_split(square)
    v = {w.index: w for w in square.vertices}
    assert split[frozenset()] == {0: 1}
    assert split[frozenset({v[1], v[3]})] == {3: 1}
    assert split[frozenset(square.vertices)] == {6: 1}
    assert len(split) == 4  # the two diagonals, the top, the empty set


def test_equivariant_decomposition_square(square, c4):
    components = equivariant_decomposition(square, c4, MOMENT_ANGLE, 3)
    assert sum(c.orbit_size * c.dim for c in components) == 2
    (comp,) = components
    v = {w.index: w for w in square.vertices}
    assert comp.rep == frozenset({v[1], v[3]})
    assert comp.orbit_size == 2 and comp.dim == 1
    assert len(comp.character) == 2
    g = Permutation.from_cycles(4, (1, 3), (2, 4))
    assert comp.character[g] == 1  # -1 trace times -1 twist


def test_equivariant_decomposition_degree_zero(square, c4):
    (comp,) = equivariant_decomposition(square, c4, MOMENT_ANGLE, 0)
    assert comp.rep == frozenset() and comp.dim == 1
    assert all(v == 1 for v in comp.character.values())


def test_equivariant_decomposition_skeleton_i3():
    m = 5
    K, G = skeleton(m, 0), PermGroup.symmetric(m)
    components = equivariant_decomposition(K, G, MOMENT_ANGLE, 3)
    (comp,) = components
    assert comp.rep == frozenset({Vertex(1), Vertex(2)})
    assert comp.dim == 1 and comp.orbit_size == comb(m, 2)
    assert sum(c.orbit_size * c.dim for c in components) == comb(m, 2)


def test_character_constant_on_classes_and_dim(square, c4):
    components = equivariant_decomposition(square, c4, MOMENT_ANGLE, 3)
    comp = components[0]
    ident = Permutation.identity(4)
    assert comp.character[ident] == comp.dim
    # conjugation inside the stabilizer preserves the character
    elems = list(comp.character)
    for a in elems:
        for b in elems:
            conj = a * b * a.inverse()
            if conj in comp.character:
                assert comp.character[conj] == comp.character[b]


# -- stable decompositions -----------------------------------------------------

H3_STABLE = {(): 1, (1,): 1, (2,): 1}
H4_STABLE = {(1,): 1, (2,): 1, (1, 1): 1, (2, 1): 1}
H5_STABLE = {(1, 1): 1, (2, 1): 1, (1, 1, 1): 1, (2, 1, 1): 1}
H6_STABLE = {(1, 1, 1): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1, (2, 1, 1, 1): 1}


def test_disjoint_points_i3_table():
    assert sym_irreducible_decomposition(skeleton(3, 0), MOMENT_ANGLE, 3, 3) == {
        (): 1, (1,): 1,
    }
    for m in (4, 5, 6, 7):
        table = sym_irreducible_decomposition(skeleton(m, 0), MOMENT_ANGLE, 3, m)
        assert table == H3_STABLE


def test_disjoint_points_i4_table():
    assert sym_irreducible_decomposition(skeleton(4, 0), MOMENT_ANGLE, 4, 4) == {
        (1,): 1, (2,): 1, (1, 1): 1,
    }
    for m in (5, 6, 7):
        table = sym_irreducible_decomposition(skeleton(m, 0), MOMENT_ANGLE, 4, m)
        assert table == H4_STABLE


def test_disjoint_points_higher_degrees():
    for m in (7, 8):
        assert sym_irreducible_decomposition(skeleton(m, 0), MOMENT_ANGLE, 5, m) == H5_STABLE
    for m in (9, 10):
        assert sym_irreducible_decomposition(skeleton(m, 0), MOMENT_ANGLE, 6, m) == H6_STABLE


# Degree 10 by the closed form above STABLE_TABLES in the acceptance suite:
# (1^{i-3}) + (2,1^{i-4}) + (1^{i-2}) + (2,1^{i-3}), stable from m = i + 1.
H10_STABLE = {
    (1, 1, 1, 1, 1, 1, 1): 1,
    (2, 1, 1, 1, 1, 1, 1): 1,
    (1, 1, 1, 1, 1, 1, 1, 1): 1,
    (2, 1, 1, 1, 1, 1, 1, 1): 1,
}


def test_disjoint_points_past_the_default_support_cap():
    # the summand has support 9: 9! stabilising elements, but 30 Young classes
    for m in (11, 12):
        table = sym_irreducible_decomposition(skeleton(m, 0), MOMENT_ANGLE, 10, m, support_cap=9)
        assert table == H10_STABLE
    with pytest.raises(CapExceeded):
        sym_irreducible_decomposition(skeleton(11, 0), MOMENT_ANGLE, 10, 11)


def _character_by_elements(K, rep, support, p, pair, m):
    """ψ of a summand the element-by-element way: every stabilising element of
    Sym(support) by brute force, one trace each, explicit class fusion."""
    _, finite_part, _ = support_split(rep, K, m, cap=len(support))
    char = summand_character(K, rep, finite_part, p, pair)
    rank = {s: a + 1 for a, s in enumerate(support)}
    small = {Permutation(tuple(rank[h[s - 1]] for s in support)): t for h, t in char.items()}
    return induce_to_sym(list(small), small, cap=len(support))


@settings(max_examples=30, deadline=None)
@given(sigma_closed_complexes(max_m=6, max_tags=2, max_free=1), st.sampled_from([1, 2]))
def test_young_class_route_matches_the_element_route(drawn, d):
    K, m = drawn
    pair = SpherePair(d)
    degrees = set()
    for J in pattern_orbit_reps(K, m):
        for p, dim in reduced_cohomology(full_subcomplex(K, J)).dims().items():
            if dim:
                degrees.add(pair.ambient_degree(p, len(J)))
    summand_memo.clear()
    for i in sorted(degrees):
        for s in orbit_summands(K, pair, i, m, support_cap=6):
            p = pair.simplicial_degree(i, len(s.rep))
            psi = _character_by_elements(K, s.rep, s.support, p, pair, m)
            assert s.finite_character == psi, f"degree {i}, J = {sorted(map(str, s.rep))}"
            assert s.mu_multiplicities == decompose(psi)


@settings(max_examples=30, deadline=None)
@given(sigma_closed_complexes(max_m=4, max_tags=2, max_free=1))
def test_betti_over_orbits_matches_the_plain_sum(drawn):
    K, m = drawn
    for d in (0, 1, 2):
        pair = SpherePair(d)
        plain = betti(K, pair)
        assert betti(K, pair, subset_orbit_reps(K, PermGroup.symmetric(m)).orbit_sizes) == plain
        assert betti(K, pair, pattern_orbit_reps(K, m)) == plain


def test_decomposition_degree_zero():
    assert sym_irreducible_decomposition(skeleton(4, 0), MOMENT_ANGLE, 0, 4) == {(): 1}


@pytest.mark.parametrize("i,m", [(3, 4), (3, 6), (4, 5), (4, 7), (5, 7), (6, 9)])
def test_dimension_identity(i, m):
    K = skeleton(m, 0)
    table = sym_irreducible_decomposition(K, MOMENT_ANGLE, i, m)
    total = sum(mult * hook_dim((m - sum(b),) + b) for b, mult in table.items())
    assert total == betti(K, orbits=pattern_orbit_reps(K, m)).get(i, 0)


@pytest.mark.parametrize("i,m", [(3, 3), (3, 5), (4, 5), (4, 6), (5, 7)])
def test_fusion_route_agrees(i, m):
    K = skeleton(m, 0)
    assert sym_decomposition_by_fusion(K, MOMENT_ANGLE, i, m) == \
        sym_irreducible_decomposition(K, MOMENT_ANGLE, i, m)


def test_summand_routes_agree_per_orbit():
    for i, m in [(3, 5), (4, 6), (5, 8)]:
        for rep, fusion, strips in summand_routes(skeleton(m, 0), MOMENT_ANGLE, i, m):
            assert fusion == strips, f"routes differ on {sorted(map(str, rep))}"


def test_rep_routines_reject_flat_pair():
    with pytest.raises(ValidationError):
        sym_irreducible_decomposition(skeleton(3, 0), REAL_MOMENT_ANGLE, 3, 3)


def test_decomposition_join_family():
    from macstab.families import parse_family

    fam = parse_family("join:0,0")
    for m in (2, 3, 4):
        K, G = fam.instantiate(m)
        table = sym_irreducible_decomposition(K, MOMENT_ANGLE, 3, m)
        total = sum(mult * hook_dim((m - sum(b),) + b) for b, mult in table.items())
        assert total == betti(K, orbits=subset_orbit_reps(K, G).orbit_sizes).get(3, 0)


# -- transported action and ring structure -------------------------------------


def test_transported_action_matches_twisted(square):
    v = {w.index: w for w in square.vertices}
    cases = [
        (square, frozenset({v[1], v[3]}), 0, Permutation.from_cycles(4, (1, 3), (2, 4))),
        (square, frozenset(square.vertices), 1, Permutation.from_cycles(4, (1, 2, 3, 4))),
        (skeleton(4, 0), frozenset({Vertex(1), Vertex(2), Vertex(3)}), 0,
         Permutation.from_cycles(4, (1, 2))),
        (skeleton(4, 0), frozenset({Vertex(1), Vertex(2), Vertex(3)}), 0,
         Permutation.from_cycles(4, (1, 2, 3))),
    ]
    for K, J, p, g in cases:
        coh = reduced_cohomology(full_subcomplex(K, J))
        pure = induced_cohomology_map(g, K, J, p)
        twist = restriction_sign(g, J)
        for k, rep in enumerate(coh.representatives(p)):
            moved = transported_action(K, g, CohomologyClass(J, p, rep))
            coords = representative_coordinates(coh, p, moved.cochain)
            expected = tuple(twist * pure.data[r][k] for r in range(coh.dim(p)))
            assert coords == expected


def test_a_zero_class_moves_without_reading_a_face(monkeypatch):
    import macstab.hochster as hochster

    def refuse(K, J):
        raise AssertionError(f"the restriction to {sorted(map(str, J))} was read")

    K = vc_cube_dual(3)
    g = Permutation.from_cycles(3, (1, 2, 3))
    J = frozenset(v for v in K.vertices if v.index in (1, 2))
    monkeypatch.setattr(hochster, "full_subcomplex", refuse)
    moved = transported_action(K, g, CohomologyClass(J, 1, {}))
    assert (moved.subset, moved.degree, moved.cochain) == (g.act(J), 1, {})


def test_representatives_build_a_kernel_only_where_there_is_cohomology(monkeypatch):
    # the ring asks every degree of every subset for its basis; the ranks
    # already say where H^p = 0, so no cocycle kernel is built there
    import macstab.linalg as linalg

    kernel_basis, built = linalg.kernel_basis, []

    def counted(rows, n):
        built.append(n)
        return kernel_basis(rows, n)

    reduced_cohomology.cache_clear()  # no basis left from an earlier read
    monkeypatch.setattr(linalg, "kernel_basis", counted)
    classes = spanning_classes(vc_cube_dual(3))
    assert classes and len(built) == len({(c.subset, c.degree) for c in classes})


def test_cup_product_unit(square):
    unit = basis_classes(square, frozenset())[0]
    v = {w.index: w for w in square.vertices}
    a = basis_classes(square, frozenset({v[1], v[3]}))[0]
    assert classes_equal_in_cohomology(square, cup_product(square, unit, a), a)
    assert classes_equal_in_cohomology(square, cup_product(square, a, unit), a)


def test_cup_product_square_top(square):
    v = {w.index: w for w in square.vertices}
    a = basis_classes(square, frozenset({v[1], v[3]}))[0]
    b = basis_classes(square, frozenset({v[2], v[4]}))[0]
    prod = cup_product(square, a, b)
    assert not class_is_zero_in_cohomology(square, prod)
    # overlapping supports multiply to zero
    c = basis_classes(square, frozenset({v[1], v[3]}))[0]
    assert cup_product(square, a, c).cochain == {}


def test_cup_product_skeleton_pairs():
    # a discrete complex gives a wedge of spheres: disjoint-pair classes
    # multiply to zero because the union restriction has no 1-cocycles
    K = skeleton(4, 0)
    a = basis_classes(K, frozenset({Vertex(1), Vertex(2)}))[0]
    b = basis_classes(K, frozenset({Vertex(3), Vertex(4)}))[0]
    prod = cup_product(K, a, b)
    assert class_is_zero_in_cohomology(K, prod)
    # on the two-factor join the same pairing is nontrivial (torus-like block)
    from macstab.families import parse_family

    Kj, _ = parse_family("join:0,0").instantiate(2)
    zeros = sorted(v for v in Kj.vertices if v.tag == 0)
    ones = sorted(v for v in Kj.vertices if v.tag == 1)
    aj = basis_classes(Kj, frozenset(zeros))[0]
    bj = basis_classes(Kj, frozenset(ones))[0]
    assert not class_is_zero_in_cohomology(Kj, cup_product(Kj, aj, bj))


def _spanning(K):
    out = []
    from itertools import combinations

    for r in range(len(K.vertices) + 1):
        for J in combinations(K.vertices, r):
            out.extend(basis_classes(K, frozenset(J)))
    return out


@pytest.mark.parametrize("build", [
    lambda: skeleton(4, 0),
    lambda: vc_cube_dual(2),
])
def test_cup_product_graded_commutative(build, square):
    K = build()
    classes = _spanning(K)
    for a in classes:
        for b in classes:
            if a.subset & b.subset:
                continue
            ia = a.degree + len(a.subset) + 1
            ib = b.degree + len(b.subset) + 1
            left = cup_product(K, a, b)
            right = cup_product(K, b, a)
            sign = Fraction(-1 if (ia * ib) % 2 else 1)
            assert left.cochain == {k: sign * x for k, x in right.cochain.items()}


def test_cup_product_graded_commutative_square(square):
    classes = _spanning(square)
    for a in classes:
        for b in classes:
            if a.subset & b.subset:
                continue
            ia = a.degree + len(a.subset) + 1
            ib = b.degree + len(b.subset) + 1
            left = cup_product(square, a, b)
            right = cup_product(square, b, a)
            sign = Fraction(-1 if (ia * ib) % 2 else 1)
            assert left.cochain == {k: sign * x for k, x in right.cochain.items()}


@pytest.mark.parametrize("build", [
    lambda: skeleton(4, 0),
    lambda: vc_cube_dual(2),
    lambda: skeleton(5, 0),
])
def test_cup_product_associative(build):
    K = build()
    classes = [c for c in _spanning(K) if c.subset]  # unit handled separately
    for a in classes:
        for b in classes:
            if a.subset & b.subset:
                continue
            ab = cup_product(K, a, b)
            for c in classes:
                if (a.subset | b.subset) & c.subset:
                    continue
                lhs = cup_product(K, ab, c)
                rhs = cup_product(K, a, cup_product(K, b, c))
                assert lhs.cochain == rhs.cochain


def _check_product_loop(K, generators):
    # the product visits the pairs of faces of its two supports; the walk
    # over every face of K_{I∪J} must give the same class, and no class the
    # ring builds holds a zero entry
    classes = spanning_classes(K)
    assert all(0 not in c.cochain.values() for c in classes)
    for a in classes:
        for b in classes:
            prod, ref = cup_product(K, a, b), cup_product_by_faces(K, a, b)
            assert (prod.subset, prod.degree) == (ref.subset, ref.degree)
            assert prod.cochain == ref.cochain and 0 not in prod.cochain.values()
    for g in generators:
        assert all(0 not in transported_action(K, g, a).cochain.values() for a in classes)


@pytest.mark.parametrize("spec, m", [("vccube", 2), ("vccube", 3), ("join:0,0", 2)])
def test_cup_product_matches_the_walk_over_every_face(spec, m):
    from macstab.families import parse_family

    K, G = parse_family(spec).instantiate(m)
    _check_product_loop(K, G.generators)


@st.composite
def _small_complexes(draw):
    """A complex on at most 6 indexed vertices, and a permutation preserving
    it (the identity unless the one drawn does)."""
    n = draw(st.integers(1, 6))
    verts = [Vertex(i) for i in range(1, n + 1)]
    K = SimplicialComplex(verts, draw(st.lists(st.sets(st.sampled_from(verts)), max_size=5)))
    g = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    if {g.act(f) for f in K.facets} != K.facets:
        g = Permutation.identity(n)
    return K, g


@settings(max_examples=30, deadline=None)
@given(_small_complexes())
def test_cup_product_matches_the_walk_over_every_face_on_small_complexes(case):
    K, g = case
    _check_product_loop(K, [g])


def test_cup_product_refuses_an_index_past_the_face_basis(square):
    v = {w.index: w for w in square.vertices}
    a = basis_classes(square, frozenset({v[1], v[3]}))[0]
    b = basis_classes(square, frozenset({v[2], v[4]}))[0]
    n = len(full_subcomplex(square, a.subset).faces_of_dim(a.degree))
    past = CohomologyClass(a.subset, a.degree, {**a.cochain, n: 1})
    for left, right in ((past, b), (b, past)):
        with pytest.raises(ValidationError, match="class vector length does not match its face basis"):
            cup_product(square, left, right)


def _equivariant(K, G, classes) -> bool:
    return g_algebra_equivariance_check(K, G, classes, product_table(K, classes))


def test_equivariance_check(square, c4):
    assert _equivariant(square, c4, spanning_classes(square))
    assert _equivariant(skeleton(4, 0), PermGroup.symmetric(4), spanning_classes(skeleton(4, 0)))
    assert _equivariant(square, PermGroup.trivial(4), spanning_classes(square))
    assert _equivariant(vc_cube_dual(2), PermGroup.symmetric(2), spanning_classes(vc_cube_dual(2)))


def test_equivariance_check_honours_the_subset_cap(square, c4):
    with pytest.raises(CapExceeded):
        _equivariant(square, c4, spanning_classes(square, 15))
    assert _equivariant(square, c4, spanning_classes(square, 16))


def test_sphere_pair_validation():
    with pytest.raises(ValidationError):
        SpherePair(-1)
    assert SpherePair(2).ambient_degree(0, 2) == 5
