from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from macstab.errors import CapExceeded, ValidationError
from macstab.perms import (
    PermGroup,
    Permutation,
    enumerate_group,
    fibre_blocks,
    index_support,
    is_g_complex,
    pattern_orbit_reps,
    prefix_subsets,
    restriction_sign,
    subset_orbit_reps,
    support_split,
)
from macstab.simplicial import (
    SimplicialComplex,
    Vertex,
    face_key,
    join,
    skeleton,
    vc_cube_dual,
)

from oracles import g_full_subcomplex_matches, sigma_closed_complexes, stabilizer_order_in_sym


def perm(m, *cycles):
    return Permutation.from_cycles(m, *cycles)


def test_permutation_basics():
    g = perm(4, (1, 2, 3, 4))
    assert g[0] == 2 and g[3] == 1
    assert g.cycle_type() == (4,)
    assert g.sign() == -1
    assert (g * g).cycle_type() == (2, 2)
    assert (g.inverse() * g).is_identity()
    with pytest.raises(ValidationError):
        Permutation((1, 1, 3))


def test_act_on_subset_examples(square, c4):
    v = {w.index: w for w in square.vertices}
    g = perm(4, (1, 2, 3, 4))
    assert g.act({v[1], v[3]}) == {v[2], v[4]}
    ident = Permutation.identity(4)
    assert ident.act({v[1]}) == {v[1]}
    zero1 = Vertex(1, 0)
    star = Vertex(None, 0)
    g12 = perm(2, (1, 2))
    assert g12.act({zero1, star}) == {Vertex(2, 0), star}


def test_is_g_complex(square, c4):
    assert is_g_complex(square, c4)
    for m, k in [(3, 0), (4, 1), (5, 2)]:
        assert is_g_complex(skeleton(m, k), PermGroup.symmetric(m))
    # path 1-2-3 is not invariant under the transposition (1 2)
    v = [Vertex(i) for i in range(1, 4)]
    path = SimplicialComplex(v, [{v[0], v[1]}, {v[1], v[2]}])
    assert not is_g_complex(path, PermGroup(3, (perm(3, (1, 2)),)))


_LABELS = [Vertex(i, t) for i in (1, 2, 3) for t in (0, 1)] + [Vertex(None)]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sets(st.sampled_from(_LABELS), max_size=3), max_size=5),
    st.sets(st.sampled_from(_LABELS)),
    st.permutations([1, 2, 3]),
    st.booleans(),
)
def test_is_g_complex_matches_the_face_definition(drawn, ground, images, close):
    g = Permutation(tuple(images))
    facets = {frozenset(f) for f in drawn}
    if close:  # add the images under g and g², so that g preserves the facets
        for _ in range(2):
            facets |= {frozenset(g.act_vertex(v) for v in f) for f in facets}
    K = SimplicialComplex(ground.union(*facets), facets)
    expected = all(
        K.has_face(frozenset(g.act_vertex(v) for v in f)) for f in K.facets
    ) and all(g.act_vertex(v) in K.vertices for v in K.vertices)
    assert is_g_complex(K, PermGroup(3, (g,))) == expected


def test_enumerate_group():
    assert len(enumerate_group([perm(4, (1, 2, 3, 4))])) == 4
    assert len(enumerate_group([perm(3, (1, 2)), perm(3, (1, 2, 3))])) == 6
    assert len(enumerate_group([perm(4, (1, 3), (2, 4))])) == 2
    with pytest.raises(CapExceeded):
        enumerate_group([perm(6, (1, 2)), perm(6, tuple(range(1, 7)))], cap=100)


def test_subset_orbit_reps_square(square, c4):
    table = subset_orbit_reps(square, c4)
    v = {w.index: w for w in square.vertices}
    expected = [
        frozenset(),
        frozenset({v[1]}),
        frozenset({v[1], v[2]}),
        frozenset({v[1], v[3]}),
        frozenset({v[1], v[2], v[3]}),
        frozenset({v[1], v[2], v[3], v[4]}),
    ]
    assert set(table.representatives) == set(expected)
    assert table.total_subsets == 16
    assert sum(table.orbit_sizes.values()) == 16
    J13 = frozenset({v[1], v[3]})
    stab = enumerate_group(list(table.stabilizer_gens(J13)))
    assert sorted(tuple(g) for g in stab) == [(1, 2, 3, 4), (3, 4, 1, 2)]


@pytest.mark.parametrize("m,k", [(3, 0), (4, 0), (5, 1)])
def test_subset_orbit_reps_skeleton(m, k):
    K = skeleton(m, k)
    table = subset_orbit_reps(K, PermGroup.symmetric(m))
    assert len(table.representatives) == m + 1
    sizes = sorted(len(r) for r in table.representatives)
    assert sizes == list(range(m + 1))


def test_orbit_stabilizer_identity(square, c4):
    cases = [(square, c4, 4), (skeleton(5, 1), PermGroup.cyclic(5), 5)]
    for m in (2, 3, 4):
        G = PermGroup.symmetric(m)
        for K in (skeleton(m, 0), skeleton(m, 1), vc_cube_dual(m),
                  join(skeleton(m, 1), skeleton(m, 0))):
            cases.append((K, G, factorial(m)))
    for K, G, order in cases:
        table = subset_orbit_reps(K, G)
        covered = [s for rep in table.representatives for s in table.orbits[rep]]
        assert len(covered) == len(set(covered)) == table.total_subsets
        assert set(covered) == {
            frozenset(c) for r in range(len(K.vertices) + 1) for c in combinations(K.vertices, r)
        }
        for rep in table.representatives:
            assert rep == min(table.orbits[rep], key=face_key)
            stab_order = len(enumerate_group(list(table.stabilizer_gens(rep))))
            assert stab_order * table.orbit_sizes[rep] == order


def test_orbit_search_walks_the_prefix_order_without_a_sort(monkeypatch):
    # the seeds come in face_key order from the walk itself: no key is computed
    # (2^9 = 512 face_key calls when the subsets were listed by size and sorted)
    K = vc_cube_dual(4)
    calls = []

    def counting(face):
        calls.append(face)
        return face_key(face)

    monkeypatch.setattr("macstab.perms.face_key", counting)
    table = subset_orbit_reps(K, PermGroup.symmetric(4))
    assert calls == []
    assert table.representatives == sorted(table.representatives, key=face_key)


def test_transversal_carries_rep(square, c4):
    table = subset_orbit_reps(square, c4)
    for rep, orbit in table.orbits.items():
        for subset, g in orbit.items():
            assert g.act(rep) == subset


def test_full_subcomplex_equivariance(square, c4):
    v = list(square.vertices)
    for g in enumerate_group(list(c4.generators)):
        for J in [set(), {v[0]}, {v[0], v[2]}, {v[0], v[1], v[2]}, set(v)]:
            assert g_full_subcomplex_matches(square, g, J)


def test_support_split_skeleton():
    m = 6
    K = skeleton(m, 0)
    J = frozenset(Vertex(i) for i in (1, 2, 3))
    support, finite, comp = support_split(J, K, m)
    assert support == (1, 2, 3)
    assert len(finite) == 6  # all of Sym{1,2,3}
    assert comp == 3
    assert stabilizer_order_in_sym(J, m) == len(finite) * factorial(comp)


def test_support_split_vc():
    K = vc_cube_dual(3)
    star = Vertex(None, 0)
    support, finite, comp = support_split({star}, K, 3)
    assert support == () and len(finite) == 1 and comp == 3
    J = {Vertex(1, 0), Vertex(1, 1)}
    support, finite, comp = support_split(J, K, 3)
    assert support == (1,) and len(finite) == 1 and comp == 2


@settings(max_examples=40, deadline=None)
@given(sigma_closed_complexes())
def test_stabiliser_is_the_young_subgroup_of_the_fibres(drawn):
    # the brute-force count over Σ_m, the listed finite part and the fibre
    # blocks the scans read all give |stab(J)| = Π_S c_S! · (m - b)!
    K, m = drawn
    for J in prefix_subsets(K.vertices, 3):
        support = index_support(J)
        blocks = fibre_blocks(J, support)
        assert sorted(i for block in blocks for i in block) == list(support)
        young = prod(factorial(len(block)) for block in blocks)
        _, finite, comp = support_split(J, K, m)
        assert len(finite) == young
        assert stabilizer_order_in_sym(J, m) == young * factorial(comp)


def test_support_split_cap():
    K = skeleton(9, 0)
    J = frozenset(Vertex(i) for i in range(1, 10))
    with pytest.raises(CapExceeded):
        support_split(J, K, 9, cap=8)


def test_restriction_sign(square):
    v = {w.index: w for w in square.vertices}
    g = perm(4, (1, 3), (2, 4))
    assert restriction_sign(g, {v[1], v[3]}) == -1
    assert restriction_sign(g, {v[1], v[2], v[3], v[4]}) == 1
    with pytest.raises(ValidationError):
        restriction_sign(perm(4, (1, 2, 3, 4)), {v[1], v[3]})


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(1, 6)), st.permutations(range(1, 6)),
       st.sets(st.integers(min_value=1, max_value=5)))
def test_action_is_functorial(imgs_g, imgs_h, idx):
    g, h = Permutation(tuple(imgs_g)), Permutation(tuple(imgs_h))
    J = {Vertex(i) for i in idx}
    lhs = (g * h).act(J)
    rhs = g.act(h.act(J))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(sigma_closed_complexes(), st.data())
def test_pattern_orbits_match_the_search(case, data):
    K, m = case
    G = PermGroup.symmetric(m)
    max_size = data.draw(st.sampled_from([None, *range(-1, len(K.vertices) + 2)]))
    searched = subset_orbit_reps(K, G, max_size)
    listed = pattern_orbit_reps(K, m, max_size)
    assert list(listed) == searched.representatives
    assert listed == searched.orbit_sizes
    assert sum(listed.values()) == searched.total_subsets
    # the search caps the subsets it visits, the pattern listing the
    # representatives it lists, and the subset count is not capped
    reps = len(listed)
    subset_orbit_reps(K, G, max_size, cap=searched.total_subsets)
    with pytest.raises(CapExceeded, match="vertices exceed the subset cap"):
        subset_orbit_reps(K, G, max_size, cap=searched.total_subsets - 1)
    assert pattern_orbit_reps(K, m, max_size, cap=reps) == listed
    if reps:
        with pytest.raises(CapExceeded, match=f"orbit representatives exceed the subset cap {reps - 1}"):
            pattern_orbit_reps(K, m, max_size, cap=reps - 1)
    # a vertex set Σ_m does not preserve: an index above m, or a fibre left out
    broken = [list(K.vertices) + [Vertex(m + 1)]]
    if m > 1 and K.vertices and K.vertices[0].index is not None:
        broken.append(K.vertices[1:])
    for verts in broken:
        with pytest.raises(ValidationError):
            pattern_orbit_reps(SimplicialComplex(verts, []), m, max_size)


def test_subset_cap_names_the_vertex_count_and_the_cap():
    # the subset count of 20,000 vertices has too many digits to print
    with pytest.raises(CapExceeded, match="20000 vertices exceed the subset cap 2097152"):
        prefix_subsets(range(20000), cap=2**21)
    # raised exactly when the total passes the cap, an empty size range included
    assert len(list(prefix_subsets(range(4), 2, cap=11))) == 1 + 4 + 6
    with pytest.raises(CapExceeded):
        prefix_subsets(range(4), 2, cap=10)
    assert list(prefix_subsets(range(4), -1, cap=0)) == []
    with pytest.raises(CapExceeded):
        prefix_subsets(range(4), -1, cap=-1)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=7).flatmap(lambda n: st.tuples(
    st.permutations([Vertex(i) for i in range(1, n + 1)]),
    st.one_of(st.none(), st.integers(min_value=-1, max_value=n + 1)),
)))
def test_prefix_subsets_walk_each_subset_up_to_the_bound_once_in_prefix_order(case):
    verts, max_size = case
    n = len(verts)
    top = n if max_size is None else min(max_size, n)
    walked = list(prefix_subsets(verts, max_size))
    by_size = [frozenset(c) for r in range(top + 1) for c in combinations(verts, r)]
    assert len(set(walked)) == len(walked)
    assert set(walked) == set(by_size)
    # lexicographic on sorted positions: each subset after its prefix
    position = {v: k for k, v in enumerate(verts)}
    keys = [sorted(position[v] for v in J) for J in walked]
    assert keys == sorted(keys)
    # a stable sort on size recovers the size-by-size `combinations` order
    assert sorted(walked, key=len) == by_size
    table = subset_orbit_reps(SimplicialComplex(verts, []), PermGroup.trivial(max(n, 1)), max_size)
    assert table.total_subsets == len(walked)


def test_pattern_table_has_no_schreier_words():
    orbits = pattern_orbit_reps(vc_cube_dual(3), 3)
    v = {(w.index, w.tag): w for w in vc_cube_dual(3).vertices}
    # two equal fibres {0} on a support of two: 3!/(1! · 2!) subsets
    assert orbits[frozenset({v[1, 0], v[2, 0]})] == 3
