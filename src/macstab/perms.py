"""Permutation groups acting on vertex labels through their index coordinate.

A permutation is the tuple of its images on {1..m} (one-line notation),
checked to be a bijection where it is built from outside images.  It acts on
vertex subsets by `Permutation.act`, which trusts its degree to cover every
index: inputs are checked where they enter.  A group is a generator list;
element lists are only materialised under a cap, and stabilizers come out of
orbit breadth-first search as Schreier generators, computed on request.
Under the index action of Σ_m an orbit of vertex subsets is fixed by its
fibre pattern, so `pattern_orbit_reps` lists those orbits without a search,
as a map {representative: orbit size}.
"""

from __future__ import annotations

from collections import Counter
from itertools import (
    combinations,
    combinations_with_replacement,
    permutations as iter_permutations,
)
from math import comb, factorial, prod

from .errors import CapExceeded, OracleMismatch, ValidationError
from .records import FrozenRecord
from .simplicial import SimplicialComplex, Vertex, face_key

DEFAULT_GROUP_CAP = 200_000
DEFAULT_SUBSET_CAP = 1 << 21
DEFAULT_SUPPORT_CAP = 8
DEFAULT_ORACLE_CAP = 7  # vertices of the cellular model (`cellular`)


class Permutation(tuple):
    """A bijection of {1..m} in one-line notation: g[i-1] = g(i).  A tuple of
    its images, so equality, hashing and order are the tuple's."""

    __slots__ = ()

    def __new__(cls, images):
        # the one check, for images from outside; products, inverses and the
        # identity are bijections already and are built with tuple.__new__
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValidationError("not a bijection of {1..m}")
        return tuple.__new__(cls, images)

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return tuple.__new__(cls, range(1, m + 1))

    @classmethod
    def from_cycles(cls, m: int, *cycles) -> "Permutation":
        images = list(range(1, m + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                images[a - 1] = b
            if cyc:
                images[cyc[-1] - 1] = cyc[0]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self ∘ other: apply `other` first."""
        if len(self) != len(other):
            raise ValidationError("degree mismatch")
        return tuple.__new__(Permutation, [self[j - 1] for j in other])

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, j in enumerate(self, start=1):
            inv[j - 1] = i
        return tuple.__new__(Permutation, inv)

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for i, j in enumerate(self, start=1):
            if i in seen or j == i:
                continue
            cyc = [i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self[j - 1]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, sorted descending."""
        lengths = sorted((len(c) for c in self.cycles()), reverse=True)
        fixed = self.degree - sum(lengths)
        return tuple(lengths) + (1,) * fixed

    def sign(self) -> int:
        return (-1) ** sum(len(c) - 1 for c in self.cycles())

    def act_vertex(self, v: Vertex) -> Vertex:
        """g·v; the degree covers every index, as checked where g and v enter."""
        unindexed, i, tag = v  # the vertex's sort key
        return v if unindexed else Vertex(self[i - 1], tag)

    def act(self, J) -> frozenset:
        """The image {g·v : v ∈ J} of a vertex subset."""
        return frozenset(map(self.act_vertex, J))

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


def sort_sign(keys: list) -> int:
    """Sign of the permutation sorting `keys` (assumed distinct)."""
    inversions = sum(
        1 for a, b in combinations(range(len(keys)), 2) if keys[a] > keys[b]
    )
    return -1 if inversions % 2 else 1


def action_sign(g: Permutation, face) -> int:
    """Sign ε(g, σ) of re-sorting the image of an oriented simplex."""
    return sort_sign([g.act_vertex(v) for v in sorted(face)])


def restriction_sign(g: Permutation, subset) -> int:
    """Sign of g as a permutation of the vertex subset it stabilises."""
    if g.act(subset) != set(subset):
        raise ValidationError("element does not stabilise the subset")
    return action_sign(g, subset)


class PermGroup(FrozenRecord):
    __slots__ = ("degree", "generators")

    def __init__(self, degree: int, generators: tuple[Permutation, ...]):
        for g in generators:
            if g.degree != degree:
                raise ValidationError("generator degree mismatch")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", generators)

    @classmethod
    def symmetric(cls, m: int) -> "PermGroup":
        if m <= 1:
            gens = (Permutation.identity(max(m, 1)),)
        elif m == 2:
            gens = (Permutation.from_cycles(2, (1, 2)),)
        else:
            gens = (
                Permutation.from_cycles(m, (1, 2)),
                Permutation.from_cycles(m, tuple(range(1, m + 1))),
            )
        return cls(max(m, 1), gens)

    @classmethod
    def cyclic(cls, m: int) -> "PermGroup":
        return cls(m, (Permutation.from_cycles(m, tuple(range(1, m + 1))),))

    @classmethod
    def trivial(cls, m: int) -> "PermGroup":
        return cls(m, (Permutation.identity(m),))

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)


def enumerate_group(
    gens: list[Permutation], cap: int = DEFAULT_GROUP_CAP, name: str = "the group"
) -> list[Permutation]:
    """Full element list by breadth-first closure, deterministic order; past
    `cap` elements, `CapExceeded` names the group by `name`."""
    if not gens:
        raise ValidationError("need at least one generator")
    ident = Permutation.identity(gens[0].degree)
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                e = g * h
                if e not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"{name} exceeds the group cap {cap}")
                    seen.add(e)
                    order.append(e)
                    nxt.append(e)
        frontier = nxt
    return order


def is_g_complex(K: SimplicialComplex, G: PermGroup) -> bool:
    """True iff every generator maps every facet of K into K.

    Generators suffice: the action preserves face cardinality and groups are
    closed under composition.
    """
    vertices = frozenset(K.vertices)
    for g in G.generators:
        if g.act(vertices) != vertices:
            return False
        # a vertex bijection that maps K into K is an automorphism, so it maps
        # facets onto facets
        if any(g.act(f) not in K.facets for f in K.facets):
            return False
    return True


class OrbitTable:
    """The orbit search's answer: representatives with sizes, and each orbit
    as a map from its subsets to the BFS words carrying the representative to them."""

    __slots__ = ("group", "representatives", "orbit_sizes", "orbits", "total_subsets")

    def __init__(self, group: PermGroup, total_subsets: int):
        self.group = group
        self.representatives: list[frozenset] = []
        self.orbit_sizes: dict[frozenset, int] = {}
        self.orbits: dict[frozenset, dict[frozenset, Permutation]] = {}
        self.total_subsets = total_subsets

    def stabilizer_gens(self, rep: frozenset) -> tuple[Permutation, ...]:
        """Schreier generators of the stabilizer of rep, with duplicates and
        the identity removed; the identity alone when the stabilizer is trivial."""
        words = self.orbits[rep]
        stab: list[Permutation] = []
        seen = set()
        for s, ws in words.items():
            for g in self.group.generators:
                img = g.act(s)
                sg = words[img].inverse() * (g * ws)
                if not sg.is_identity() and sg not in seen:
                    seen.add(sg)
                    stab.append(sg)
        return tuple(stab) if stab else (self.group.identity(),)


def prefix_subsets(vertices, max_size: int | None = None, cap: int = DEFAULT_SUBSET_CAP):
    """The subsets of `vertices` with at most `max_size` elements (all of
    them for None) in prefix-tree pre-order: lexicographic on positions, so
    each subset follows its prefix without its last vertex, one size's
    subsets come in `combinations` order, and for sorted `vertices` this is
    `face_key` order.  Their count is checked against `cap` before the
    first is made."""
    verts = list(vertices)
    top, _ = _checked_sizes(len(verts), max_size, cap)

    def walk():
        # (subset, first position it may still take); children are pushed
        # last-first so that they come off in position order
        stack = [(frozenset(), 0)] if top >= 0 else []
        while stack:
            J, start = stack.pop()
            yield J
            if len(J) < top:
                stack.extend((J | {verts[k]}, k + 1) for k in range(len(verts) - 1, start - 1, -1))

    return walk()


def _checked_sizes(n: int, max_size: int | None, cap: int) -> tuple[int, int]:
    """The largest subset size of an n-set that max_size allows (negative
    for none), and the count of subsets up to that size, once it is within cap."""
    top = n if max_size is None else min(max_size, n)
    # stop at the first partial count past the cap: the full count of a large
    # vertex set has too many digits to print
    count = 0
    for r in range(top + 1):
        count += comb(n, r)
        if count > cap:
            break
    if count > cap:
        raise CapExceeded(f"subsets of {n} vertices exceed the subset cap {cap}")
    return top, count


def subset_orbit_reps(
    K: SimplicialComplex,
    G: PermGroup,
    max_size: int | None = None,
    cap: int = DEFAULT_SUBSET_CAP,
) -> OrbitTable:
    """Orbits of vertex subsets under G, by BFS over the generator action.

    Representatives are the `face_key`-least subsets of their orbits, listed
    in `face_key` order; the BFS words fix the Schreier generators that
    `OrbitTable.stabilizer_gens` reports.
    """
    _, total = _checked_sizes(len(K.vertices), max_size, cap)
    table = OrbitTable(group=G, total_subsets=total)
    ident = G.identity()
    assigned: set[frozenset] = set()
    # G permutes the vertices, so in face_key order the first unassigned seed is
    # the least subset of its orbit: no rebasing and no sort are needed
    for seed in prefix_subsets(K.vertices, max_size, cap):
        if seed in assigned:
            continue
        orbit = {seed: ident}
        frontier = [seed]
        while frontier:
            nxt = []
            for s in frontier:
                ts = orbit[s]
                for g in G.generators:
                    img = g.act(s)
                    if img not in orbit:
                        orbit[img] = g * ts
                        nxt.append(img)
            frontier = nxt
        table.representatives.append(seed)
        table.orbit_sizes[seed] = len(orbit)
        table.orbits[seed] = orbit
        assigned.update(orbit)
    return table


def pattern_orbit_reps(
    K: SimplicialComplex,
    m: int,
    max_size: int | None = None,
    cap: int = DEFAULT_SUBSET_CAP,
) -> dict[frozenset, int]:
    """Orbits of vertex subsets under the index action of Σ_m, by fibre
    pattern, as {representative: orbit size} in `face_key` order.

    A subset J is its unindexed part U plus, at each index, the set of tags J
    uses there.  Σ_m only permutes the indices, so the orbit of J is fixed by
    U and the multiset of its non-empty fibres; with b fibres, c_S of them
    equal to S, the orbit has m!/((m-b)! · Π c_S!) subsets.  The `face_key`-
    least subset puts the fibres on the indices 1..b in the order of their
    sorted tags, a fibre after its own extensions.  Same representatives,
    order and sizes as the `orbit_sizes` of `subset_orbit_reps` under
    `PermGroup.symmetric(m)`, with no search and no BFS words.  `cap` bounds
    the representatives listed, not the count of subsets they add up to.
    """
    unindexed = [v for v in K.vertices if v.index is None]
    tags = sorted({v.tag for v in K.vertices if v.index is not None})
    indexed = {v for v in K.vertices if v.index is not None}
    if indexed != {Vertex(i, t) for i in range(1, m + 1) for t in tags}:
        raise ValidationError(f"the vertex set is not closed under Σ_{m}")
    top, total = _checked_sizes(len(K.vertices), max_size, 1 << len(K.vertices))
    past = max(tags, default=0) + 1  # above every tag: a fibre sorts after its extensions
    fibres = sorted(
        (c for r in range(1, len(tags) + 1) for c in combinations(tags, r)),
        key=lambda c: c + (past,),
    )
    sizes: dict[frozenset, int] = {}
    for b in range(min(m, top) + 1):
        # multisets of b fibres, each listed in the order it is placed on 1..b
        for placed in combinations_with_replacement(fibres, b):
            indexed_part = {
                Vertex(i, t) for i, fibre in enumerate(placed, start=1) for t in fibre
            }
            ties = prod(factorial(c) for c in Counter(placed).values())
            size = factorial(m) // (factorial(m - b) * ties)
            for r in range(min(len(unindexed), top - len(indexed_part)) + 1):
                for U in combinations(unindexed, r):
                    if len(sizes) >= cap:
                        raise CapExceeded(f"orbit representatives exceed the subset cap {cap}")
                    sizes[frozenset(indexed_part.union(U))] = size
    if sum(sizes.values()) != total:
        raise OracleMismatch("fibre-pattern orbit sizes do not add up to the subset count")
    return {rep: sizes[rep] for rep in sorted(sizes, key=face_key)}


def index_support(J, cap: int = DEFAULT_SUPPORT_CAP) -> tuple[int, ...]:
    """The sorted indices among the labels of J; more than `cap` of them raise.

    A scan pays one trace per class of a summand's Young subgroup, Π_S p(c_S)
    for fibres of sizes c_S (p(b) for a single fibre); `support_split` pays b!.
    """
    support = tuple(sorted({v.index for v in J if v.index is not None}))
    if len(support) > cap:
        raise CapExceeded(f"support size {len(support)} exceeds the support cap {cap}")
    return support


def fibre_blocks(J, support) -> list[list[int]]:
    """The indices of `support` grouped by their fibre (the tags J uses there),
    blocks and indices in support order.  The elements of Sym(support) that
    fix J are exactly those of the Young subgroup Π Sym(block)."""
    blocks: dict[frozenset, list[int]] = {}
    for i in support:
        blocks.setdefault(frozenset(v.tag for v in J if v.index == i), []).append(i)
    return list(blocks.values())


def support_split(
    J,
    K: SimplicialComplex,
    m: int,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> tuple[tuple[int, ...], list[Permutation], int]:
    """Split the stabilizer of J in Σ_m as (finite part on the support) × Σ_rest.

    The brute-force side of `check-family`; the scans take the finite part
    to be the Young subgroup of `fibre_blocks(J, support)` without listing it.

    support: indices appearing among the labels of J; finite part: elements of
    Sym(support), returned as degree-m permutations, that stabilise J setwise
    (brute force); complement_rank = m - |support|.  Indices outside the
    support move nothing in J, so stab(J, m) = finite_part × Sym(complement).
    """
    Jw = frozenset(J)
    for v in Jw:
        if v not in K.vertices:
            raise ValidationError("J is not a subset of the vertex set")
    support = index_support(Jw, cap)
    if any(i > m for i in support):
        raise ValidationError("support exceeds the ambient degree m")
    finite_part: list[Permutation] = []
    for imgs in iter_permutations(support):
        images = list(range(1, m + 1))
        for src, dst in zip(support, imgs):
            images[src - 1] = dst
        h = Permutation(images)
        if h.act(Jw) == Jw:
            finite_part.append(h)
    return support, finite_part, m - len(support)
