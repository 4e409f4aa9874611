import copy
import os
import pickle
import subprocess
import sys
from collections import Counter
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from macstab.errors import ValidationError
from macstab.perms import Permutation
from macstab.simplicial import (
    SimplicialComplex,
    Vertex,
    face_key,
    full_subcomplex,
    join,
    point,
    skeleton,
    sphere_zero,
    vc_cube_dual,
)


def test_skeleton_examples():
    k0 = skeleton(4, 0)
    assert len(k0.faces_of_dim(0)) == 4
    assert k0.faces_of_dim(1) == []
    k1 = skeleton(3, 1)
    assert len(k1.facets) == 3 and all(len(f) == 2 for f in k1.facets)
    assert len(skeleton(5, 1).faces_of_dim(1)) == 10


@pytest.mark.parametrize("m,k", [(4, 0), (5, 1), (6, 2), (5, 4)])
def test_skeleton_face_counts(m, k):
    K = skeleton(m, k)
    counts = K.face_counts()
    for j in range(-1, k + 1):
        assert counts.get(j, 0) == comb(m, j + 1)


def test_join_examples():
    edge = join(point(), point())
    assert edge.dim == 1 and len(edge.facets) == 1
    sq = join(sphere_zero(1), sphere_zero(2))
    assert sq.dim == 1
    assert len(sq.vertices) == 4 and len(sq.faces_of_dim(1)) == 4
    # a 4-cycle: every vertex lies on exactly two edges
    for v in sq.vertices:
        assert sum(1 for e in sq.faces_of_dim(1) if v in e) == 2
    sq2 = join(skeleton(2, 0), skeleton(2, 0))
    assert len(sq2.vertices) == 4 and len(sq2.faces_of_dim(1)) == 4


def test_join_dim_additive():
    cases = [(skeleton(3, 1), skeleton(2, 0)), (point(), sphere_zero(1)),
             (skeleton(4, 2), skeleton(3, 1))]
    for K, L in cases:
        assert join(K, L).dim == K.dim + L.dim + 1


def test_full_subcomplex_examples(square):
    v = {w.index: w for w in square.vertices}
    K13 = full_subcomplex(square, {v[1], v[3]})
    assert K13.dim == 0 and len(K13.faces_of_dim(0)) == 2
    K_empty = full_subcomplex(square, set())
    assert K_empty.faces_of_dim(-1) == [frozenset()]
    assert K_empty.dim == -1 and not K_empty.is_void
    K3 = full_subcomplex(skeleton(5, 0), [Vertex(1), Vertex(2), Vertex(3)])
    assert len(K3.faces_of_dim(0)) == 3 and K3.dim == 0


def test_full_subcomplex_identity_and_restriction(square):
    assert full_subcomplex(square, square.vertices) == square
    J = set(list(square.vertices)[:3])
    J2 = set(list(square.vertices)[:2])
    once = full_subcomplex(full_subcomplex(square, J), J2)
    direct = full_subcomplex(square, J2)
    assert once == direct


def test_vc_cube_dual_small():
    k1 = vc_cube_dual(1)
    assert len(k1.facets) == 2 and all(len(f) == 1 for f in k1.facets)
    k2 = vc_cube_dual(2)
    assert len(k2.vertices) == 5
    assert len(k2.faces_of_dim(1)) == 5
    for v in k2.vertices:
        if k2.has_face([v]):
            assert sum(1 for e in k2.faces_of_dim(1) if v in e) == 2
    k3 = vc_cube_dual(3)
    assert len(k3.vertices) == 7
    assert len(k3.facets) == 10


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_vc_cube_dual_pseudomanifold(m):
    # closed (m-1)-pseudomanifold: every ridge lies in exactly two facets
    K = vc_cube_dual(m)
    assert len(K.vertices) == 2 * m + 1
    facets = [f for f in K.facets if len(f) == m]
    assert facets == sorted(K.facets, key=len)  # pure
    ridge_count = Counter()
    for f in facets:
        for ridge in combinations(sorted(f), m - 1):
            ridge_count[frozenset(ridge)] += 1
    assert set(ridge_count.values()) == {2}


def test_void_vs_empty_complex():
    void = SimplicialComplex([], [])
    empty = SimplicialComplex([], [frozenset()])
    assert void.is_void and not empty.is_void
    assert void != empty
    assert void.faces_of_dim(-1) == []
    assert empty.faces_of_dim(-1) == [frozenset()]
    assert skeleton(3, -1).faces_of_dim(-1) == [frozenset()]
    assert len(skeleton(3, -1).vertices) == 3


def test_facet_maximality_and_membership():
    a, b, c = Vertex(1), Vertex(2), Vertex(3)
    K = SimplicialComplex([a, b, c], [{a, b}, {a}, {b, c}])
    assert frozenset([a]) not in K.facets
    assert K.has_face({a}) and K.has_face(set()) and not K.has_face({a, c})


def test_facet_outside_vertex_list_rejected():
    with pytest.raises(ValidationError):
        SimplicialComplex([Vertex(1)], [{Vertex(1), Vertex(2)}])


@st.composite
def random_complexes(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    verts = [Vertex(i) for i in range(1, n + 1)]
    pool = [frozenset(c) for r in (1, 2, 3) for c in combinations(verts, r)]
    picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    return SimplicialComplex(verts, [f for f in picked] + [frozenset([v]) for v in verts])


@settings(max_examples=40, deadline=None)
@given(random_complexes(), random_complexes())
def test_join_dim_property(K, L):
    assert join(K, L).dim == K.dim + L.dim + 1


@st.composite
def any_complexes(draw):
    """Complexes on indexed, tagged and unindexed vertices, void and {∅} included."""
    pool = [Vertex(1), Vertex(2), Vertex(2, 1), Vertex(3), Vertex(None), Vertex(None, 1)]
    verts = draw(st.lists(st.sampled_from(pool), unique=True, max_size=6))
    facets = draw(st.lists(
        st.lists(st.sampled_from(verts), unique=True, max_size=4) if verts else st.just([]),
        max_size=5,
    ))
    return SimplicialComplex(verts, facets)


def brute_force_faces(K):
    return {frozenset(c) for f in K.facets for r in range(len(f) + 1) for c in combinations(f, r)}


@settings(max_examples=200, deadline=None)
@given(K=any_complexes(), data=st.data())
def test_face_table_matches_brute_force(K, data):
    faces = brute_force_faces(K)
    listed = K.all_faces()
    assert len(listed) == len(faces) and set(listed) == faces
    assert K.face_counts() == Counter(len(f) - 1 for f in faces)
    for p in range(-2, K.dim + 2):
        assert K.faces_of_dim(p) == sorted((f for f in faces if len(f) == p + 1), key=face_key)
    with pytest.raises(AttributeError):
        K.facets = frozenset()

    J = frozenset(data.draw(st.lists(st.sampled_from(K.vertices), unique=True))
                  if K.vertices else frozenset())
    KJ = full_subcomplex(K, J)
    assert full_subcomplex(K, J) is KJ
    fresh = full_subcomplex(SimplicialComplex(K.vertices, K.facets), J)
    assert KJ == fresh and KJ.all_faces() == fresh.all_faces()
    assert set(KJ.all_faces()) == {f for f in faces if f <= J}
    assert KJ.vertices == tuple(sorted(v for v in J if K.has_face([v])))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.integers(0, 5), max_size=4), max_size=8))
@example([{0, 1, 2}, {1, 2, 3}, {1, 2}])  # equal-size facets and an edge of both: dropped
def test_facets_are_the_candidates_no_other_contains(drawn):
    # the size-by-size filter keeps what the pairwise definition keeps
    verts = [Vertex(i) for i in range(6)]
    candidates = {frozenset(verts[i] for i in f) for f in drawn}
    K = SimplicialComplex(verts, candidates)
    assert K.facets == {f for f in candidates if not any(f < g for g in candidates)}


_LABELS = st.tuples(st.one_of(st.none(), st.integers(1, 20)), st.integers(0, 3))


def _spelled(index, tag) -> str:
    """A vertex as reports print it: its index, ".tag" past tag 0, "*" for no index."""
    if index is None:
        return "*" if tag == 0 else f"*{tag}"
    return str(index) if tag == 0 else f"{index}.{tag}"


@settings(max_examples=200)
@given(st.lists(_LABELS, min_size=1, max_size=8))
def test_vertex_is_a_value_ordered_by_index_then_tag(labels):
    vertices = [Vertex(index, tag) for index, tag in labels]
    for (a, u), (b, v) in product(zip(labels, vertices), repeat=2):
        assert (u == v) == (a == b) and (u != v) == (a != b)
        assert a != b or hash(u) == hash(v)
    # indexed vertices by (index, tag), then the unindexed ones by tag
    order = sorted(labels, key=lambda t: (t[0] is None, t[0] or 0, t[1]))
    assert [(v.index, v.tag) for v in sorted(vertices)] == order
    for (index, tag), v in zip(labels, vertices):
        assert str(v) == repr(v) == _spelled(index, tag)
        for name in ("index", "tag", "added"):
            with pytest.raises(AttributeError):
                setattr(v, name, 1)
        assert (v.index, v.tag) == (index, tag)
        for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(twin) is Vertex and twin == v and str(twin) == str(v)


@settings(max_examples=100)
@given(st.permutations(range(1, 6)), st.permutations(range(1, 6)),
       st.sets(st.tuples(st.one_of(st.none(), st.integers(1, 5)), st.integers(0, 2))))
def test_permutation_is_a_tuple_of_its_images(imgs_g, imgs_h, labels):
    g, h = Permutation(imgs_g), Permutation(imgs_h)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(twin) is Permutation and twin == g and str(twin) == str(g)
    made = [
        (g * h, tuple(imgs_g[j - 1] for j in imgs_h)),  # apply h first
        (g.inverse(), tuple(imgs_g.index(j) + 1 for j in range(1, 6))),
        (Permutation.identity(5), (1, 2, 3, 4, 5)),
    ]
    for p, images in made:
        assert type(p) is Permutation and p == images and hash(p) == hash(images)
    J = {Vertex(index, tag) for index, tag in labels}
    image = {Vertex(None if i is None else imgs_g[i - 1], t) for i, t in labels}
    assert g.act(J) == image and len(image) == len(J)
    assert (g * h).act(J) == g.act(h.act(J))


def test_cone_vertex_hash_repeats_across_processes():
    # hash(None) is its address on some Python versions, so a label holding
    # None would order a set with the cone vertex differently in each run
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); from macstab.simplicial import Vertex; "
            "print(hash(Vertex(None, 0)), hash(Vertex(None, 1)))")
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    runs = [subprocess.run([sys.executable, "-S", "-c", code], env=env,
                           capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
