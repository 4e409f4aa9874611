"""Finite simplicial complexes with labelled vertices.

A vertex carries an optional coordinate index (the slot a symmetric group
permutes) and a small tag distinguishing vertices that share an index (join
components, the two poles of a 0-sphere).  Vertices without an index are
fixed by every index permutation.

Complexes are stored by their inclusion-maximal faces.  The complex whose
only face is the empty set ({∅}, reduced cohomology k in degree -1) is
distinguished from the void complex carrying no faces at all.  A complex may
also list ground vertices that appear in no face; restriction and the
degree bookkeeping of polyhedral products rely on that.
"""

from __future__ import annotations

from itertools import combinations, groupby

from .errors import ValidationError


class Vertex(tuple):
    """Immutable label (index, tag), stored as its own sort key: (0, index,
    tag), or (1, 0, tag) without an index.  Indexed vertices come first,
    ordered by (index, tag), and equality, hashing and order are the tuple's."""

    __slots__ = ()

    def __new__(cls, index: int | None, tag: int = 0):
        return tuple.__new__(cls, (1, 0, tag) if index is None else (0, index, tag))

    def __getnewargs__(self):
        # copy and pickle rebuild a vertex from its label, not from the tuple
        return (self.index, self.tag)

    @property
    def index(self) -> int | None:
        return None if self[0] else self[1]

    @property
    def tag(self) -> int:
        return self[2]

    def __str__(self) -> str:
        unindexed, index, tag = self
        if unindexed:
            return "*" if tag == 0 else f"*{tag}"
        return str(index) if tag == 0 else f"{index}.{tag}"

    __repr__ = __str__


Face = frozenset  # frozenset[Vertex]


def face_key(face) -> tuple:
    return tuple(sorted(face))


def subset_label(J) -> str:
    """A vertex set as reports and messages print it: "{1,2,3}", in vertex order."""
    return "{" + ",".join(str(v) for v in sorted(J)) + "}"


class SimplicialComplex:
    """Immutable complex given by facets.

    Its faces are listed once, on first read, into a table by dimension
    (each list sorted by `face_key`, [∅] at -1 unless void) that
    `faces_of_dim`, `face_counts` and `all_faces` read.  Its vertex bits and
    facet masks are listed once too (`vertex_bits`, `restriction_masks`).  Each
    restriction K_J is built once and kept on K by `full_subcomplex`; all of
    these live exactly as long as the complex.
    """

    __slots__ = ("vertices", "facets", "_hash", "_faces", "_masks", "_restrictions")

    def __init__(self, vertices, facets):
        ground = set(vertices)
        vs = tuple(sorted(ground))
        fs = set()
        for f in facets:
            fw = frozenset(f)
            if not fw <= ground:
                raise ValidationError("facet uses a vertex not in the vertex list")
            fs.add(fw)
        # drop non-maximal entries so the facet family is canonical: size by size, largest
        # first, against the kept larger facets through a candidate's first vertex
        maximal: list[Face] = []
        through: dict[Vertex, list[Face]] = {}
        for _, level in groupby(sorted(fs, key=len, reverse=True), key=len):
            kept = [f for f in level if not any(
                f < g for g in (through.get(next(iter(f)), ()) if f else maximal))]
            for f in kept:
                for v in f:
                    through.setdefault(v, []).append(f)
            maximal += kept
        self.vertices = vs
        self.facets = frozenset(maximal)
        self._restrictions = {}
        self._hash = hash((self.vertices, self.facets))

    def __setattr__(self, name, value):
        if hasattr(self, "_hash") and name != "_hash":
            raise AttributeError("SimplicialComplex is immutable")
        object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self.facets == other.facets
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fs = sorted(self.facets, key=face_key)
        shown = ", ".join(subset_label(f) for f in fs[:8])
        more = "" if len(fs) <= 8 else f", ... ({len(fs)} facets)"
        return f"SimplicialComplex(V={len(self.vertices)}, facets=[{shown}{more}])"

    # -- basic queries ----------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        if self.is_void:
            return -1
        return max(len(f) for f in self.facets) - 1

    def has_face(self, face) -> bool:
        fw = frozenset(face)
        return any(fw <= g for g in self.facets)

    def _face_table(self) -> dict[int, list[Face]]:
        try:
            return self._faces
        except AttributeError:
            object.__setattr__(self, "_faces", _list_faces(self.facets))
            return self._faces

    def _mask_table(self) -> tuple[dict[Vertex, int], tuple[int, ...]]:
        try:
            return self._masks
        except AttributeError:
            bits = {v: 1 << k for k, v in enumerate(self.vertices)}
            masks = tuple(sum(bits[v] for v in f) for f in self.facets)
            object.__setattr__(self, "_masks", (bits, masks))
            return self._masks

    def vertex_bits(self) -> dict[Vertex, int]:
        """{v: 1 << k} for v = `vertices[k]`: a vertex set as an int is the OR
        of its vertices' bits.  The complex's own table: read it, do not modify it."""
        return self._mask_table()[0]

    def restriction_masks(self, J) -> set[int]:
        """K_J as the masks {f & J} over K's facets, each the OR of its
        vertices' bits: its faces are their subsets, with no restriction
        built.  Void exactly when K is."""
        bits, facets = self._mask_table()
        mask = 0
        for v in J:
            mask |= bits[v]
        return {f & mask for f in facets}

    def all_faces(self) -> list[Face]:
        """Every face, including the empty face of a non-void complex, by dimension."""
        return [f for faces in self._face_table().values() for f in faces]

    def faces_of_dim(self, p: int) -> list[Face]:
        """Sorted list of p-faces; p = -1 yields [∅] unless the complex is void.

        The list is the complex's own table entry: read it, do not modify it.
        """
        return self._face_table().get(p, [])

    def face_counts(self) -> dict[int, int]:
        return {p: len(faces) for p, faces in self._face_table().items()}


def _list_faces(facets) -> dict[int, list[Face]]:
    """Every subset of every facet, by dimension from -1 up, each sorted by `face_key`."""
    faces: set[Face] = set()
    for f in facets:
        for r in range(len(f) + 1):
            faces.update(map(frozenset, combinations(f, r)))
    table: dict[int, list[Face]] = {}
    for f in sorted(faces, key=lambda f: (len(f), face_key(f))):
        table.setdefault(len(f) - 1, []).append(f)
    return table


# -- constructions ---------------------------------------------------------


def skeleton(m: int, k: int) -> SimplicialComplex:
    """All subsets of {1..m} of cardinality at most k+1, on indexed vertices.

    k = -1 yields the complex {∅} on m ground vertices.
    """
    if m < 1:
        raise ValidationError("skeleton needs m >= 1")
    if k < -1:
        raise ValidationError("skeleton needs k >= -1")
    verts = [Vertex(i) for i in range(1, m + 1)]
    size = min(k + 1, m)
    if size <= 0:
        return SimplicialComplex(verts, [frozenset()])
    facets = [frozenset(c) for c in combinations(verts, size)]
    return SimplicialComplex(verts, facets)


def point() -> SimplicialComplex:
    return skeleton(1, 0)


def sphere_zero(index: int) -> SimplicialComplex:
    """Two disjoint poles sharing one index, distinguished by tag."""
    verts = [Vertex(index, 0), Vertex(index, 1)]
    return SimplicialComplex(verts, [frozenset([v]) for v in verts])


def join(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Join with faces σ ⊔ τ; L's tags are shifted past K's to force disjointness."""
    if K.is_void or L.is_void:
        return SimplicialComplex([], [])
    shift = max((v.tag for v in K.vertices), default=-1) + 1
    relabel = {v: Vertex(v.index, v.tag + shift) for v in L.vertices}
    l_verts = [relabel[v] for v in L.vertices]
    facets = []
    for f in K.facets:
        for g in L.facets:
            facets.append(f | frozenset(relabel[v] for v in g))
    return SimplicialComplex(list(K.vertices) + l_verts, facets)


def full_subcomplex(K: SimplicialComplex, J) -> SimplicialComplex:
    """Restriction K_J = {σ ∩ J : σ ∈ K} on the vertices of J that are faces,
    which are the vertices of its facets.

    Built once per subset and kept on K, so repeated restrictions are lookups.
    Only code that acts on the faces of K_J builds one (traces, the ring code
    and `summand_memo` keys); Betti numbers are read off K's own rows
    (`homology.RestrictionDims`).
    """
    Jw = frozenset(J)
    if Jw in K._restrictions:
        return K._restrictions[Jw]
    if not Jw <= set(K.vertices):
        raise ValidationError("J is not a subset of the vertex set")
    if K.is_void:
        KJ = SimplicialComplex([], [])
    else:
        facets = {f & Jw for f in K.facets}
        KJ = SimplicialComplex(frozenset().union(*facets), facets)
    K._restrictions[Jw] = KJ
    return KJ


def vc_cube_dual(m: int) -> SimplicialComplex:
    """Boundary sphere of the vertex-cut m-cube, dualised.

    Start from the join of m index-labelled 0-spheres (a triangulated
    (m-1)-sphere on vertices 0_i, 1_i), delete the face {0_1, ..., 0_m} and
    cone its boundary off with one fixed vertex.  2m+1 vertices total.
    """
    if m < 1:
        raise ValidationError("vc_cube_dual needs m >= 1")
    zeros = [Vertex(i, 0) for i in range(1, m + 1)]
    ones = [Vertex(i, 1) for i in range(1, m + 1)]
    cone = Vertex(None, 0)
    deleted = frozenset(zeros)
    facets = []
    for choice in range(2**m):
        f = frozenset(ones[i] if (choice >> i) & 1 else zeros[i] for i in range(m))
        if f != deleted:
            facets.append(f)
    for i in range(m):
        rim = deleted - {zeros[i]}
        facets.append(rim | {cone})
    return SimplicialComplex(zeros + ones + [cone], facets)
