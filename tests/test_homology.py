from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from macstab.cellular import MomentAngleCellComplex
from macstab.errors import ValidationError
from macstab.homology import (
    RestrictionDims,
    coboundaries,
    cohomology_trace,
    induced_cohomology_map,
    lefschetz_cochain_sum,
    reduced_cohomology,
    vanishes,
)
from macstab.linalg import Matrix, extend_to_basis
from macstab.perms import PermGroup, Permutation, enumerate_group
from macstab.simplicial import (
    SimplicialComplex,
    Vertex,
    full_subcomplex,
    point,
    skeleton,
    vc_cube_dual,
)

from oracles import (
    character_on_cohomology,
    densify,
    lefschetz_cohomology_sum,
    representative_coordinates,
    sigma_closed_complexes,
)


def _dd_is_zero(K, composes_to_zero):
    d = coboundaries(K)
    return all(composes_to_zero(d[p + 1], d[p]) for p in range(-1, K.dim - 1))


def test_dd_zero_corpus(square, composes_to_zero):
    for K in [point(), skeleton(1, -1), square, vc_cube_dual(2), skeleton(5, 1),
              vc_cube_dual(3), skeleton(4, 2)]:
        assert _dd_is_zero(K, composes_to_zero)


def test_reduced_cohomology_examples(square):
    assert reduced_cohomology(point()).dims() == {}
    assert reduced_cohomology(skeleton(1, -1)).dims() == {-1: 1}
    assert reduced_cohomology(skeleton(2, 0)).dims() == {0: 1}
    assert reduced_cohomology(square).dims() == {1: 1}
    assert reduced_cohomology(vc_cube_dual(2)).dims() == {1: 1}


@pytest.mark.parametrize("j,k", [(3, 0), (4, 0), (5, 0), (4, 1), (5, 1), (6, 2)])
def test_skeleton_cohomology_formula(j, k):
    # the k-skeleton of a (j-1)-simplex has reduced rank C(j-1, k+1) in degree k
    K = skeleton(j, k)
    expected = {k: comb(j - 1, k + 1)} if comb(j - 1, k + 1) else {}
    assert reduced_cohomology(K).dims() == expected


def test_euler_characteristic_corpus(square):
    # closed forms: a point is contractible, the square is a circle,
    # vc_cube_dual(m) is an (m-1)-sphere, and the 1-skeleton of the 4-simplex
    # is a connected graph with 10 - 5 + 1 = 6 independent cycles
    cases = [(point(), {}), (square, {1: 1}), (vc_cube_dual(2), {1: 1}),
             (vc_cube_dual(3), {2: 1}), (skeleton(5, 1), {1: 6})]
    for K, dims in cases:
        assert reduced_cohomology(K).dims() == dims


def test_representatives_read_as_unit_coordinates(square):
    coh = reduced_cohomology(full_subcomplex(square, square.vertices))
    for p in coh.cochain_dims:
        for k, rep in enumerate(coh.representatives(p)):
            coords = representative_coordinates(coh, p, rep)
            assert coords == tuple(
                Fraction(1 if i == k else 0) for i in range(coh.dim(p))
            )
            assert not coh.is_coboundary(p, rep)


def test_induced_map_examples(square):
    v = {w.index: w for w in square.vertices}
    J = frozenset({v[1], v[3]})
    ident = Permutation.identity(4)
    assert induced_cohomology_map(ident, square, J, 0).data == [[Fraction(1)]]
    g = Permutation.from_cycles(4, (1, 3), (2, 4))
    M = induced_cohomology_map(g, square, J, 0)
    assert M.data == [[Fraction(-1)]]
    assert M.mul(M).data == [[Fraction(1)]]


def test_induced_map_requires_stabilizer(square):
    v = {w.index: w for w in square.vertices}
    g = Permutation.from_cycles(4, (1, 2, 3, 4))
    with pytest.raises(ValidationError):
        induced_cohomology_map(g, square, {v[1], v[3]}, 0)


def test_functoriality_on_top_degree(square):
    V = frozenset(square.vertices)
    elements = enumerate_group([Permutation.from_cycles(4, (1, 2, 3, 4))])
    mats = {g: induced_cohomology_map(g, square, V, 1) for g in elements}
    for g in elements:
        for h in elements:
            assert mats[g * h].data == mats[g].mul(mats[h]).data


def test_cohomology_trace_at_the_edge_degrees(square):
    v = {w.index: w for w in square.vertices}
    V = frozenset(square.vertices)
    rotation = Permutation.from_cycles(4, (1, 2, 3, 4))
    # the top degree has no coboundary out: a rotation keeps the circle's
    # class, a reflection negates it
    assert cohomology_trace(rotation, square, V, 1) == 1
    assert cohomology_trace(Permutation.from_cycles(4, (2, 4)), square, V, 1) == -1
    # degree -1 has no coboundary in: K_∅ = {∅}
    assert cohomology_trace(rotation, square, (), -1) == 1
    # two points in degree 0: the cocycles of degree -1 are zero
    assert cohomology_trace(Permutation.from_cycles(4, (1, 3)), square, {v[1], v[3]}, 0) == -1
    # a degree without cohomology, and one past the top
    assert cohomology_trace(rotation, square, V, 0) == 0
    assert cohomology_trace(rotation, square, V, 2) == 0
    with pytest.raises(ValidationError):
        cohomology_trace(rotation, square, {v[1], v[3]}, 0)


@settings(max_examples=80, deadline=None)
@given(sigma_closed_complexes(), st.data())
def test_cohomology_trace_matches_the_basis_route(case, data):
    # every degree from -1 to one past the top, against the trace of the
    # matrix of g on the representative basis
    K, m = case
    sym = enumerate_group(list(PermGroup.symmetric(m).generators))
    picked = data.draw(st.sets(st.sampled_from(K.vertices))) if K.vertices else set()
    closure = frozenset(g.act_vertex(v) for v in picked for g in sym)
    for J in (frozenset(picked), closure, frozenset(K.vertices)):
        g = data.draw(st.sampled_from([h for h in sym if h.act(J) == J]))
        for p in range(-1, full_subcomplex(K, J).dim + 2):
            assert cohomology_trace(g, K, J, p) == induced_cohomology_map(g, K, J, p).trace()


def test_character_examples(square):
    v = {w.index: w for w in square.vertices}
    J = frozenset({v[1], v[3]})
    g = Permutation.from_cycles(4, (1, 3), (2, 4))
    stab = enumerate_group([g])
    ch = character_on_cohomology(square, J, stab, 0)
    ident = Permutation.identity(4)
    assert ch[ident] == 1
    assert ch[g] == -1


def test_character_identity_equals_dim():
    K = skeleton(5, 0)
    J = frozenset(Vertex(i) for i in (1, 2, 3, 4))
    ch = character_on_cohomology(K, J, [Permutation.identity(5)], 0)
    assert ch[Permutation.identity(5)] == 3


def test_hopf_trace_identity(square):
    groups = {
        square: [Permutation.from_cycles(4, (1, 2, 3, 4))],
        skeleton(4, 1): [Permutation.from_cycles(4, (1, 2)), Permutation.from_cycles(4, (1, 2, 3, 4))],
        vc_cube_dual(2): [Permutation.from_cycles(2, (1, 2))],
    }
    for K, gens in groups.items():
        for g in enumerate_group(gens):
            assert lefschetz_cochain_sum(K, g) == lefschetz_cohomology_sum(K, g)


@st.composite
def small_complexes(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    verts = [Vertex(i) for i in range(1, n + 1)]
    pool = [frozenset(c) for r in (1, 2, 3) for c in combinations(verts, r)]
    picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
    return SimplicialComplex(verts, picked)


@settings(max_examples=40, deadline=None)
@given(small_complexes())
def test_dd_zero_and_euler_random(composes_to_zero, K):
    assert _dd_is_zero(K, composes_to_zero)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    small_complexes(),
    sigma_closed_complexes(max_m=3, max_tags=2, max_free=1).map(lambda drawn: drawn[0]),
))
def test_restriction_dims_match_the_built_restrictions(K):
    # K's own rows at the faces inside J give the cohomology of K_J, for every J
    restricted = RestrictionDims(K)
    for r in range(len(K.vertices) + 1):
        for J in combinations(K.vertices, r):
            assert restricted.dims(J) == reduced_cohomology(full_subcomplex(K, J)).dims()


@st.composite
def complexes_with_idle_vertices(draw):
    """A small complex, {∅} or the void complex, with up to two more ground
    vertices that lie in no face."""
    K = draw(st.one_of(
        small_complexes(),
        st.integers(min_value=1, max_value=3).map(lambda n: skeleton(n, -1)),
        st.just(SimplicialComplex([], [])),
    ))
    idle = [Vertex(None, t) for t in range(draw(st.integers(min_value=0, max_value=2)))]
    return SimplicialComplex(list(K.vertices) + idle, K.facets)


@settings(max_examples=40, deadline=None)
@given(complexes_with_idle_vertices(), st.data())
def test_restriction_dims_do_not_depend_on_the_call_order(K, data):
    # the echelon stack pops to the prefix a subset shares with the last one:
    # subsets in any order, repeated, ∅ among them and a superset after a
    # subset, each give the cohomology of the built restriction
    subsets = [frozenset(J) for r in range(len(K.vertices) + 1)
               for J in combinations(K.vertices, r)]
    picked = data.draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=12))
    calls = data.draw(st.permutations(picked + picked[:3] + [frozenset()]))
    calls.append(calls[-1] | data.draw(st.sampled_from(subsets)))
    restricted = RestrictionDims(K)
    for J in calls:
        assert restricted.dims(J) == reduced_cohomology(full_subcomplex(K, J)).dims()


def _dense_representatives(coh, p):
    """The dense route: `Matrix.nullspace` of d_p, then `extend_to_basis` over
    the dense columns of d_{p-1}."""
    n, n_in = coh.cochain_dims.get(p, 0), coh.cochain_dims.get(p - 1, 0)
    d_out, d_in = coh.coboundary(p) or [], coh.coboundary(p - 1) or []
    cocycles = Matrix(len(d_out), n, [[row.get(j, 0) for j in range(n)] for row in d_out])
    image = [tuple(row.get(j, 0) for row in d_in) for j in range(n_in)]
    return extend_to_basis(image, cocycles.nullspace())


def _check_ring_reads(coh, data):
    # the sparse representatives are the dense route's; a cochain built as
    # Σ c_k·rep_k + d(y) is a coboundary exactly when c = 0, and the dense
    # solve of [columns of d_{p-1} | representatives] x = cochain reads c
    coefficient = st.integers(min_value=-3, max_value=3)
    for p, n in coh.cochain_dims.items():
        reps = coh.representatives(p)
        assert [densify(rep, n) for rep in reps] == _dense_representatives(coh, p)
        c = data.draw(st.lists(coefficient, min_size=len(reps), max_size=len(reps)))
        cochain = [sum(ck * rep.get(j, 0) for ck, rep in zip(c, reps)) for j in range(n)]
        if coh.coboundary(p - 1) is not None:
            n_in = coh.cochain_dims[p - 1]
            y = data.draw(st.lists(coefficient, min_size=n_in, max_size=n_in))
            d_y = [sum(x * y[j] for j, x in row.items()) for row in coh.coboundary(p - 1)]
            cochain = [a + b for a, b in zip(cochain, d_y)]
        cochain = dict(enumerate(cochain))
        assert coh.is_coboundary(p, cochain) == (not any(c))
        assert representative_coordinates(coh, p, cochain) == tuple(c)


@settings(max_examples=40, deadline=None)
@given(small_complexes(), st.data())
def test_sparse_ring_reads_match_the_dense_reference(K, data):
    _check_ring_reads(reduced_cohomology(K), data)


@settings(max_examples=25, deadline=None)
@given(small_complexes(), st.data())
def test_sparse_ring_reads_match_the_dense_reference_on_cellular_blocks(K, data):
    for block in MomentAngleCellComplex(K).blocks.values():
        _check_ring_reads(block, data)


def _masks(K):
    return K.restriction_masks(K.vertices)


def test_vanishing_from_facet_masks_examples(square):
    a, b, c, d, apex = (Vertex(i) for i in range(1, 6))
    cone = SimplicialComplex([*square.vertices, apex],
                             [f | {apex} for f in square.facets])
    # a path on three vertices is the cone over its ends, apex the middle
    # vertex; one on four is collapsible and no cone
    paths = [SimplicialComplex([a, b, c], [{a, b}, {b, c}]),
             SimplicialComplex([a, b, c, d], [{a, b}, {b, c}, {c, d}])]
    void = SimplicialComplex([], [])
    degrees = range(-3, 5)
    assert [p for p in degrees if not vanishes(_masks(skeleton(2, -1)), p)] == [-1]
    assert [p for p in degrees if not vanishes(_masks(void), p)] == list(degrees)
    assert [p for p in degrees if not vanishes(_masks(cone), p)] == []
    for path in paths:
        assert [p for p in degrees if not vanishes(_masks(path), p)] == []
    # the circle is kept where its cohomology is, and a point is never kept
    assert [p for p in degrees if not vanishes(_masks(square), p)] == [1]
    assert [p for p in degrees if not vanishes(_masks(point()), p)] == []
    # two points: H̃^0 = 1, and no rule may claim otherwise
    assert [p for p in degrees if not vanishes(_masks(skeleton(2, 0)), p)] == [0]
    # the masks of a restriction, not of K: the square's two opposite corners
    assert not vanishes(square.restriction_masks([Vertex(1), Vertex(3)]), 0)
    assert vanishes(square.restriction_masks([Vertex(1), Vertex(2), Vertex(3)]), 0)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    complexes_with_idle_vertices(),
    sigma_closed_complexes(max_m=3, max_tags=2, max_free=1).map(lambda drawn: drawn[0]),
))
def test_vanishing_from_facet_masks_is_never_wrong(K):
    # every skip the scans make is a zero of the built restriction's cohomology
    for r in range(len(K.vertices) + 1):
        for J in combinations(K.vertices, r):
            masks = K.restriction_masks(J)
            dims = reduced_cohomology(full_subcomplex(K, J)).dims()
            for p in range(-3, r + 2):
                if vanishes(masks, p):
                    assert p not in dims, (J, p)
