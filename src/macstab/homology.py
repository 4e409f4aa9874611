"""Reduced simplicial cohomology over Q, with the traces of symmetries on it.

The cochain complex is augmented: degree -1 is spanned by the dual of the
empty face, so the complex {∅} has reduced cohomology k in degree -1 and a
single point has none anywhere.  Orientations come from the global vertex
order; the action of a permutation g on a basis cochain picks up the sign of
the permutation that re-sorts the image vertex tuple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import OracleMismatch, ValidationError
from .linalg import CochainComplex, Matrix, _keep, _reduce, apply_signed
from .perms import Permutation, action_sign
from .simplicial import SimplicialComplex, full_subcomplex


def coboundaries(K: SimplicialComplex) -> dict[int, list[dict[int, int]]]:
    """d_p : C^p -> C^{p+1} for p = -1 .. dim-1 of the augmented complex."""
    return {p: _coboundary(K, p) for p in range(-1, K.dim)}


def _coboundary(K: SimplicialComplex, p: int) -> list[dict[int, int]]:
    """d_p as one {index of τ minus its j-th vertex: (-1)^j} row per (p+1)-face τ."""
    pos = {f: i for i, f in enumerate(K.faces_of_dim(p))}
    return [
        {pos[tau - {v}]: (-1) ** j for j, v in enumerate(sorted(tau))}
        for tau in K.faces_of_dim(p + 1)
    ]


class CohomologyBasis(CochainComplex):
    """The augmented cochain complex of K, whose cohomology is H̃^*(K; Q)."""

    def __init__(self, K: SimplicialComplex):
        self.complex = K
        super().__init__(K.face_counts(), lambda p: _coboundary(K, p))


@lru_cache(maxsize=None)
def reduced_cohomology(K: SimplicialComplex) -> CohomologyBasis:
    return CohomologyBasis(K)


class RestrictionDims:
    """dim H̃^p(K_J) for vertex subsets J of K, with no restriction built.

    A row's signs depend only on the global vertex order, so d_p(K_J) is
    d_p(K) at the rows of the (p+1)-faces inside J, and those rows' columns
    are exactly the p-faces inside J.  So the echelon forms of K_J's
    coboundaries are those of its prefix J − v (v the last vertex of J in
    K's order) with the rows of the faces through v inserted.  K's faces are
    listed once, by last vertex, each with its bit mask and its row of K's
    own coboundary; the columns are K's face indices in reverse, so a new
    row leads with a face through v, not with an old one.

    A stack holds the face counts and echelon forms of each prefix of the
    last J asked for; `dims(J)` pops it to the prefix J shares and pushes
    J's other vertices.  Any order of calls is correct, and in the prefix
    order of `perms.prefix_subsets` each J is one push.  A push copies its
    parent's pivot dicts, which share rows: elimination never mutates a row.
    """

    def __init__(self, K: SimplicialComplex):
        self._bits = K.vertex_bits()
        # (q, bit mask, row of d_{q-1}) for each q-face, listed under its last vertex
        self._faces: list[list[tuple[int, int, dict[int, int]]]] = [[] for _ in K.vertices]
        for p, rows in coboundaries(K).items():
            last = len(K.faces_of_dim(p)) - 1
            for tau, row in zip(K.faces_of_dim(p + 1), rows):
                mask = sum(self._bits[v] for v in tau)
                self._faces[mask.bit_length() - 1].append(
                    (p + 1, mask, {last - c: x for c, x in row.items()})
                )
        # one level per prefix of the last J, ∅ at the bottom: the position
        # pushed, the vertex mask, n_q for q = -1 .. dim and the pivots of d_q
        # for q = -1 .. dim - 1
        counts = [0 if K.is_void else 1] + [0] * (K.dim + 1)
        self._stack = [(-1, 0, counts, [{} for _ in range(K.dim + 1)])]

    def dims(self, J) -> dict[int, int]:
        """The non-zero dimensions of H̃^*(K_J), by degree."""
        ks = sorted(self._bits[v].bit_length() - 1 for v in J)
        shared = 0
        for k, level in zip(ks, self._stack[1:]):
            if k != level[0]:
                break
            shared += 1
        del self._stack[shared + 1:]
        for k in ks[shared:]:
            self._push(k)
        ranks = self._ranks()
        dims = {}
        for i, n in enumerate(self._stack[-1][2]):
            p, dim = i - 1, n - ranks[i] - ranks[i + 1]
            if dim < 0:
                # rank(d_{p-1}) + rank(d_p) <= n for any complex, so this is the rank's fault
                raise OracleMismatch(f"the ranks next to degree {p} exceed its {n} cochains")
            if dim:
                dims[p] = dim
        return dims

    def _push(self, k: int) -> None:
        """Push the top level's subset with the vertex at position k added,
        which comes after all of its vertices."""
        _, mask, counts, pivots = self._stack[-1]
        mask |= 1 << k
        counts = counts.copy()
        pivots = [dict(d) for d in pivots]
        for q, face, row in self._faces[k]:
            if face & mask == face:
                counts[q + 1] += 1
                _keep(pivots[q], _reduce(row, pivots[q]))
        self._stack.append((k, mask, counts, pivots))

    def _ranks(self) -> list[int]:
        """rank d_p for p = -2 .. dim of the top level's complex: its pivot
        counts, and 0 at both ends."""
        return [0, *map(len, self._stack[-1][3]), 0]


def vanishes(masks, p: int) -> bool:
    """Whether H̃^p = 0 follows from the facet masks alone, for the complex
    whose faces are the subsets of `masks` (vertex sets as bit masks, as
    `SimplicialComplex.restriction_masks` gives them).

    True only where it holds: p < -1 or p > dim; p = -1 and the complex is
    not {∅}; p = 0 and the masks are connected; or the complex
    strong-collapses to one vertex, so that it is contractible (Barmak and
    Minian, "Strong homotopy types, nerves and collapses", DCG 47, 2012).
    False for the void complex, and for {∅} at p = -1.
    """
    if not masks:
        return False
    top = max(map(int.bit_count, masks))
    if p < -1 or p >= top:
        return True
    if p == -1:
        return top > 0
    facets = _maximal(masks)
    return (p == 0 and _connected(facets)) or _collapses(facets)


def _maximal(masks) -> list[int]:
    """The inclusion-maximal masks, largest first."""
    kept: list[int] = []
    for f in sorted(masks, key=int.bit_count, reverse=True):
        for g in kept:
            if f & g == f:
                break
        else:
            kept.append(f)
    return kept


def _connected(facets: list[int]) -> bool:
    """Whether the facets span one connected complex (facets non-empty)."""
    reached, rest = facets[0], facets[1:]
    while rest:
        linked = [f for f in rest if f & reached]
        if not linked:
            return False
        for f in linked:
            reached |= f
        rest = [f for f in rest if not f & reached]
    return True


def _collapses(facets: list[int]) -> bool:
    """Whether the complex strong-collapses to one vertex: delete one vertex
    v dominated by another (every facet through v contains it: the AND of
    those facets has a bit besides v's) and repeat until one facet is left."""
    while len(facets) > 1:
        ground = 0
        for f in facets:
            ground |= f
        for k in range(ground.bit_length()):
            v = 1 << k
            if not ground & v:
                continue
            common = ground
            for f in facets:
                if f & v:
                    common &= f
            if common != v:
                facets = _maximal([f & ~v for f in facets])
                break
        else:
            return False
    return True


def cochain_action(g: Permutation, K: SimplicialComplex, p: int) -> list[tuple[int, int]]:
    """σ* ↦ ε(g,σ)(g·σ)* on C^p of K, as (index of g·σ, ε(g,σ)) per p-face σ."""
    faces = K.faces_of_dim(p)
    pos = {f: i for i, f in enumerate(faces)}
    action = []
    for sigma in faces:
        img = g.act(sigma)
        if img not in pos:
            raise ValidationError("image face missing from the complex")
        action.append((pos[img], action_sign(g, sigma)))
    return action


def _stabilised(g: Permutation, K: SimplicialComplex, J) -> CohomologyBasis:
    """The cohomology of K_J, after checking that g fixes J setwise."""
    Jw = frozenset(J)
    if g.act(Jw) != Jw:
        raise ValidationError("element does not stabilise J")
    return reduced_cohomology(full_subcomplex(K, Jw))


def cohomology_trace(g: Permutation, K: SimplicialComplex, J, p: int) -> Fraction:
    """Trace of g on H̃^p(K_J), read off the cocycle kernels; g must fix J setwise."""
    basis = _stabilised(g, K, J)
    if basis.dim(p) == 0:
        return Fraction(0)
    KJ = basis.complex
    return basis.trace(p, cochain_action(g, KJ, p), cochain_action(g, KJ, p - 1))


def induced_cohomology_map(
    g: Permutation, K: SimplicialComplex, J, p: int
) -> Matrix:
    """Matrix of g* on H̃^p(K_J) in the representative basis; g must fix J setwise.

    The tests' reference for `cohomology_trace`, through a full basis: each
    moved representative is written in the representatives modulo the
    coboundaries by one dense solve of [columns of d_{p-1} | representatives].
    """
    basis = _stabilised(g, K, J)
    b = basis.dim(p)
    if b == 0:
        return Matrix(0, 0)
    action = cochain_action(g, basis.complex, p)
    d_in = basis.coboundary(p - 1) or []
    image = [tuple(row.get(j, 0) for row in d_in) for j in range(basis.cochain_dims.get(p - 1, 0))]
    reps = basis.representatives(p)
    dense = [tuple(z.get(j, 0) for j in range(len(action))) for z in reps]
    system = Matrix.from_columns(image + dense, nrows=basis.cochain_dims[p])
    cols = []
    for z in reps:
        x = system.solve(apply_signed(action, z))
        if x is None:
            raise OracleMismatch("a symmetry maps a cocycle to a non-cocycle")
        cols.append(x[len(image):])
    return Matrix.from_columns(cols, nrows=b)


def lefschetz_cochain_sum(K: SimplicialComplex, g: Permutation) -> Fraction:
    """Alternating trace of g on the augmented cochain groups."""
    total = Fraction(0)
    for p in sorted(K.face_counts()):
        action = cochain_action(g, K, p)
        trace = sum(sign for j, (target, sign) in enumerate(action) if target == j)
        total += (-1 if p % 2 else 1) * trace
    return total

