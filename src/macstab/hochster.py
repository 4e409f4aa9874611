"""Equivariant decomposition of polyhedral-product cohomology.

For a pair (Cone A, A) with A rationally a d-sphere, the cohomology of the
associated polyhedral product splits over vertex subsets J with a degree
shift of d·|J| + 1 against the reduced cohomology of the restriction K_J.
A symmetry g stabilising J acts on the summand by its action on H̃^*(K_J)
twisted by sign(g|_J)^d, the sign of permuting |J| smash factors of a
d-sphere.  The cellular model in `cellular` recomputes all of this from an
honest chain complex and the test suite keeps the two in agreement.

The ring structure is carried degreewise: the product of classes supported
on disjoint subsets I, J lands on I ∪ J through the join inclusion, with
coefficients transported from the cellular cup product so that ambient-degree
graded commutativity and strict associativity hold.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import OracleMismatch, ValidationError
from .linalg import Cochain
from .homology import RestrictionDims, cohomology_trace, reduced_cohomology, vanishes
from .perms import (
    DEFAULT_GROUP_CAP,
    DEFAULT_SUBSET_CAP,
    DEFAULT_SUPPORT_CAP,
    PermGroup,
    Permutation,
    action_sign,
    enumerate_group,
    fibre_blocks,
    index_support,
    pattern_orbit_reps,
    prefix_subsets,
    subset_orbit_reps,
)
from .records import FrozenRecord
from .simplicial import SimplicialComplex, full_subcomplex, subset_label

if TYPE_CHECKING:  # symrep is imported where Σ_m characters are computed
    from .symrep import ClassFunction, Partition


class SpherePair(FrozenRecord):
    """(Cone A, A) with A rationally a d-sphere.

    d = 1 is the moment-angle pair (D², S¹); d = 0 the real one (D¹, S⁰).
    Representation routines need d >= 1 (connectivity); Betti tables allow 0.
    """

    __slots__ = ("d",)

    def __init__(self, d: int):
        if d < 0:
            raise ValidationError("sphere dimension must be >= 0")
        object.__setattr__(self, "d", d)

    def ambient_degree(self, p: int, j_size: int) -> int:
        return p + self.d * j_size + 1

    def simplicial_degree(self, i: int, j_size: int) -> int:
        return i - self.d * j_size - 1

    def max_subset_size(self, i: int) -> int | None:
        """Largest |J| reaching ambient degree i (no bound when d = 0)."""
        return i // self.d if self.d else None


MOMENT_ANGLE = SpherePair(1)
REAL_MOMENT_ANGLE = SpherePair(0)


def betti(
    K: SimplicialComplex,
    pair: SpherePair = MOMENT_ANGLE,
    orbits: dict[frozenset, int] | None = None,
    cap: int = DEFAULT_SUBSET_CAP,
) -> dict[int, int]:
    """Betti numbers b_i = Σ_J dim H̃^{i - d|J| - 1}(K_J).

    `orbits`, when given, maps each orbit representative of a group that
    preserves K to its orbit size, and the sum runs over it; without it the
    sum runs over all subsets, whose count is checked against `cap`.  Each
    dimension is read off K's own coboundary rows (`RestrictionDims`), so no
    restriction and no cohomology basis is built.  Subsets and both listings
    of representatives come in the prefix order of `perms.prefix_subsets`,
    so each subset extends the elimination of one before it.
    """
    out: dict[int, int] = {}
    if orbits is not None:
        items = orbits.items()
    else:
        items = ((J, 1) for J in prefix_subsets(K.vertices, cap=cap))
    restricted = RestrictionDims(K)
    for J, mult in items:
        for i, dim in _ambient_dims(restricted, pair, J).items():
            out[i] = out.get(i, 0) + mult * dim
    return dict(sorted(out.items()))


def betti_split(
    K: SimplicialComplex,
    pair: SpherePair = MOMENT_ANGLE,
    cap: int = DEFAULT_SUBSET_CAP,
) -> dict[frozenset, dict[int, int]]:
    """Per-subset contribution table {J: {ambient degree: dimension}}, in
    prefix order (`perms.prefix_subsets`)."""
    subsets = prefix_subsets(K.vertices, cap=cap)
    restricted = RestrictionDims(K)
    rows = ((J, _ambient_dims(restricted, pair, J)) for J in subsets)
    return {J: row for J, row in rows if row}


def _ambient_dims(restricted: RestrictionDims, pair: SpherePair, J) -> dict[int, int]:
    """dim H̃^p(K_J) by ambient degree p + d|J| + 1."""
    return {pair.ambient_degree(p, len(J)): dim for p, dim in restricted.dims(J).items()}


class MultidegreeComponent:
    """One orbit summand of `equivariant_decomposition`: its representative's
    stabiliser generators, and the character of every stabiliser element."""

    __slots__ = ("rep", "orbit_size", "degree_p", "dim", "generators", "character")

    def __init__(
        self,
        rep: frozenset,
        orbit_size: int,
        degree_p: int,
        dim: int,
        generators: tuple[Permutation, ...],
        character: dict[Permutation, Fraction],
    ):
        self.rep = rep
        self.orbit_size = orbit_size
        self.degree_p = degree_p
        self.dim = dim
        self.generators = generators
        self.character = character


def summand_character(
    K: SimplicialComplex,
    J,
    elements,
    p: int,
    pair: SpherePair,
) -> dict[Permutation, Fraction]:
    """Character of stabilising elements on the J-summand in degree p.

    Trace on H̃^p(K_J) times the smash twist sign(g|_J)^d; `cohomology_trace`
    checks that each element stabilises J.
    """
    out = {}
    for h in elements:
        tr = cohomology_trace(h, K, J, p)
        if pair.d % 2:
            tr *= action_sign(h, J)
        out[h] = tr
    return out


def nonzero_summands(
    K: SimplicialComplex, pair: SpherePair, i: int, reps
) -> list[tuple[frozenset, int, int]]:
    """(rep, p, dim) for each of the representatives `reps`, in their order,
    with dim H̃^p(K_rep) > 0 at p = i - d|rep| - 1.

    A representative whose facet masks show H̃^p = 0 (`vanishes`) is skipped
    with no restriction built; the others are read off K_rep's own basis.
    """
    summands = []
    for rep in reps:
        p = pair.simplicial_degree(i, len(rep))
        if vanishes(K.restriction_masks(rep), p):
            continue
        dim = reduced_cohomology(full_subcomplex(K, rep)).dim(p)
        if dim:
            summands.append((rep, p, dim))
    return summands


def equivariant_decomposition(
    K: SimplicialComplex,
    G: PermGroup,
    pair: SpherePair,
    i: int,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    group_cap: int = DEFAULT_GROUP_CAP,
) -> list[MultidegreeComponent]:
    """One summand per orbit representative J with H̃^{i-d|J|-1}(K_J) nonzero,
    in `face_key` order.

    The orbits are those of G, which the caller has checked preserves K,
    listed by search (`subset_orbit_reps`) for their Schreier generators.
    Each summand's stabiliser is listed in full and every element traced; a
    stabiliser past `group_cap` raises `CapExceeded` naming the representative.
    """
    table = subset_orbit_reps(K, G, pair.max_subset_size(i), subset_cap)
    components = []
    for rep, p, dim in nonzero_summands(K, pair, i, table.representatives):
        gens = table.stabilizer_gens(rep)
        elements = enumerate_group(
            list(gens), cap=group_cap, name=f"the stabiliser of {subset_label(rep)}"
        )
        components.append(
            MultidegreeComponent(
                rep=rep,
                orbit_size=table.orbit_sizes[rep],
                degree_p=p,
                dim=dim,
                generators=gens,
                character=summand_character(K, rep, elements, p, pair),
            )
        )
    return components


# -- Σ_m irreducible decompositions ------------------------------------------


class OrbitSummand:
    """One orbit summand of a fixed ambient degree, before induction to Σ_m.

    `finite_character` is the summand's character induced from the Young
    subgroup of rep's fibres to Sym(support), {cycle type: value};
    `mu_multiplicities` is its decomposition there.  Both are the values of
    `summand_memo`, shared across ranks: read them, do not modify them.
    """

    __slots__ = ("rep", "orbit_size", "support", "dim", "finite_character",
                 "mu_multiplicities")

    def __init__(
        self,
        rep: frozenset,
        orbit_size: int,
        support: tuple[int, ...],
        dim: int,
        finite_character: ClassFunction,
        mu_multiplicities: dict[Partition, int],
    ):
        self.rep = rep
        self.orbit_size = orbit_size
        self.support = support
        self.dim = dim
        self.finite_character = finite_character
        self.mu_multiplicities = mu_multiplicities


# (J, K_J, p, d) -> (finite character, μ-multiplicities) of the J-summand in
# degree p.  The key holds everything the computation reads, so a hit is exact
# at any rank; `cli.main` clears the memo when a command starts.  Every rank
# reads the same two dicts: do not modify them.
summand_memo: dict[tuple, tuple[ClassFunction, dict[Partition, int]]] = {}


def orbit_summands(
    K: SimplicialComplex,
    pair: SpherePair,
    i: int,
    m: int,
    support_cap: int = DEFAULT_SUPPORT_CAP,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> list[OrbitSummand]:
    """Per-orbit data feeding both induction routes (index action of Σ_m).

    The orbits are listed by fibre pattern (`pattern_orbit_reps`, which
    checks that Σ_m preserves the vertex set); each summand's data is
    computed once per command through `summand_memo`.
    """
    if pair.d < 1:
        raise ValidationError("representation routines need a sphere of dimension >= 1")
    orbits = pattern_orbit_reps(K, m, pair.max_subset_size(i), subset_cap)
    out: list[OrbitSummand] = []
    for rep, p, dim in nonzero_summands(K, pair, i, orbits):
        support = index_support(rep, cap=support_cap)
        key = (rep, full_subcomplex(K, rep), p, pair.d)
        if key not in summand_memo:
            summand_memo[key] = _summand_data(K, rep, support, p, pair, m)
        psi, mus = summand_memo[key]
        out.append(
            OrbitSummand(
                rep=rep,
                orbit_size=orbits[rep],
                support=support,
                dim=dim,
                finite_character=psi,
                mu_multiplicities=mus,
            )
        )
    return out


def _summand_data(
    K: SimplicialComplex, rep, support: tuple[int, ...], p: int, pair: SpherePair, m: int
) -> tuple[ClassFunction, dict[Partition, int]]:
    """Character of the summand induced to Sym(support), and its decomposition.

    Σ_m moves only indices, so an element of Sym(support) fixes rep exactly
    when it keeps every fibre (the tags rep uses at an index): the stabiliser
    is the Young subgroup Π_S Sym(indices with fibre S).  One trace per class
    of it, at consecutive cycles inside each block, then class fusion to
    Sym(support) (`induce_from_young`).
    """
    from .symrep import decompose, induce_from_young, young_classes

    blocks = fibre_blocks(rep, support)
    sizes = tuple(len(block) for block in blocks)
    reps = {mus: _young_class_rep(blocks, mus, m) for mus in young_classes(sizes)}
    traces = summand_character(K, rep, list(reps.values()), p, pair)
    psi = induce_from_young(sizes, {mus: traces[h] for mus, h in reps.items()})
    return psi, decompose(psi)


def _young_class_rep(blocks: list[list[int]], mus, m: int) -> Permutation:
    """The element of Σ_m with cycles of lengths μ_j on consecutive points of block j."""
    cycles = []
    for block, mu in zip(blocks, mus):
        start = 0
        for part in mu:
            cycles.append(tuple(block[start : start + part]))
            start += part
    return Permutation.from_cycles(m, *cycles)


def sym_irreducible_decomposition(
    K: SimplicialComplex,
    pair: SpherePair,
    i: int,
    m: int,
    support_cap: int = DEFAULT_SUPPORT_CAP,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> dict[Partition, int]:
    """Stable decomposition in padded coordinates {base partition: multiplicity}.

    Route: decompose each orbit summand over the symmetric group of its index
    support, then add horizontal strips out to rank m.
    """
    return padded_table(orbit_summands(K, pair, i, m, support_cap, subset_cap), m)


def padded_table(summands: list[OrbitSummand], m: int) -> dict[Partition, int]:
    """Sum of the horizontal-strip inductions of the summands to Σ_m, padded:
    each constituent λ is keyed by its base λ[1:], which with m fixes λ.

    Checked on every call: the irreducible dimensions add up to
    b_i(m) = Σ orbit_size · dim (`OracleMismatch` otherwise).
    """
    from .symrep import hook_dim, pieri_induce

    result: dict[Partition, int] = {}
    dims = 0
    for summand in summands:
        for mu, mult in summand.mu_multiplicities.items():
            for lam in pieri_induce(mu, m):
                result[lam[1:]] = result.get(lam[1:], 0) + mult
                dims += mult * hook_dim(lam)
    betti_m = sum(s.orbit_size * s.dim for s in summands)
    if dims != betti_m:
        raise OracleMismatch(
            f"rank {m}: the irreducible dimensions add up to {dims}, b_i(m) is {betti_m}"
        )
    return dict(sorted(result.items()))


# -- ring structure -----------------------------------------------------------


class CohomologyClass:
    """A cochain on the restriction to `subset`, in simplicial degree `degree`,
    indexed by `full_subcomplex(K, subset).faces_of_dim(degree)`.  It may be a
    kernel's own vector (`CochainComplex.representatives`): do not modify it."""

    __slots__ = ("subset", "degree", "cochain")

    def __init__(self, subset: frozenset, degree: int, cochain: Cochain):
        self.subset = subset
        self.degree = degree
        self.cochain = cochain


def spanning_classes(
    K: SimplicialComplex, cap: int = DEFAULT_SUBSET_CAP
) -> list[CohomologyClass]:
    """Basis classes of every subset, subsets by size in `combinations` order."""
    subsets = sorted(prefix_subsets(K.vertices, cap=cap), key=len)
    return [c for J in subsets for c in basis_classes(K, J)]


def basis_classes(K: SimplicialComplex, J) -> list[CohomologyClass]:
    Jw = frozenset(J)
    coh = reduced_cohomology(full_subcomplex(K, Jw))
    return [CohomologyClass(Jw, p, rep) for p in sorted(coh.cochain_dims)
            for rep in coh.representatives(p)]


def _rank_sign(face, ambient) -> int:
    """Product over j in face of (-1)^(rank of j in ambient - 1)."""
    ordered = sorted(ambient)
    pos = {v: r for r, v in enumerate(ordered)}  # 0-based: rank-1
    exponent = sum(pos[v] for v in face)
    return -1 if exponent % 2 else 1


def _cross_pairs_sign(A, B) -> int:
    """(-1)^{#{(a,b) in A×B : a < b}} in the global vertex order."""
    count = sum(1 for a in A for b in B if a < b)
    return -1 if count % 2 else 1


def cup_product(
    K: SimplicialComplex, a: CohomologyClass, b: CohomologyClass
) -> CohomologyClass:
    """Product landing on the union support, zero when supports meet.

    A (p+q+1)-face ρ of K_{I∪J} is σ ⊔ τ for exactly one pair σ = ρ ∩ I, τ = ρ ∩ J,
    so only pairs from the two supports are visited.  The coefficient of
    (σ⊔τ)* is transported from the cellular model:
        ε(σ,I) ε(τ,J) ε(σ⊔τ, I∪J) · (-1)^{#{(x,y) ∈ (J∖τ)×(I∖σ) : x < y}}
    which makes the product strictly associative, unital on the empty-support
    class, and graded-commutative in ambient degree.
    """
    I, J = a.subset, b.subset
    U = I | J
    p, q = a.degree, b.degree
    if I & J:
        return CohomologyClass(U, p + q + 1, {})
    src_a = full_subcomplex(K, I).faces_of_dim(p)
    src_b = full_subcomplex(K, J).faces_of_dim(q)
    if not all(k in range(len(src)) for c, src in ((a, src_a), (b, src_b)) for k in c.cochain):
        raise ValidationError("class vector length does not match its face basis")
    pos = {f: k for k, f in enumerate(full_subcomplex(K, U).faces_of_dim(p + q + 1))}
    out = {}
    for i, va in a.cochain.items():
        sigma = src_a[i]
        for j, vb in b.cochain.items():
            tau = src_b[j]
            rho = sigma | tau
            if rho in pos:
                sign = _rank_sign(sigma, I) * _rank_sign(tau, J) * _rank_sign(rho, U)
                out[pos[rho]] = sign * _cross_pairs_sign(J - tau, I - sigma) * va * vb
    return CohomologyClass(U, p + q + 1, out)


def transported_action(
    K: SimplicialComplex, g: Permutation, a: CohomologyClass
) -> CohomologyClass:
    """Action of g moving the J-summand to the g·J-summand.

    Coefficients are the cellular ones pulled back through the multidegree
    isomorphisms: σ* picks up ε(σ,J)·koszul(g, J∖σ)·ε(g·σ, g·J).  The zero
    class moves with no face read.
    """
    J = a.subset
    gJ = g.act(J)
    if not a.cochain:
        return CohomologyClass(gJ, a.degree, {})
    src_faces = full_subcomplex(K, J).faces_of_dim(a.degree)
    dst_faces = full_subcomplex(K, gJ).faces_of_dim(a.degree)
    pos = {f: k for k, f in enumerate(dst_faces)}
    out = {}
    for k, val in a.cochain.items():
        sigma = src_faces[k]
        g_sigma = g.act(sigma)
        sign = _rank_sign(sigma, J) * action_sign(g, J - sigma) * _rank_sign(g_sigma, gJ)
        out[pos[g_sigma]] = sign * val
    return CohomologyClass(gJ, a.degree, out)


def class_is_zero_in_cohomology(K: SimplicialComplex, a: CohomologyClass) -> bool:
    return reduced_cohomology(full_subcomplex(K, a.subset)).is_coboundary(a.degree, a.cochain)


def product_table(
    K: SimplicialComplex, classes: list[CohomologyClass]
) -> list[list[CohomologyClass]]:
    """a⋆b for every ordered pair of `classes`, one row per left factor a."""
    return [[cup_product(K, a, b) for b in classes] for a in classes]


def g_algebra_equivariance_check(
    K: SimplicialComplex,
    G: PermGroup,
    classes: list[CohomologyClass],
    products: list[list[CohomologyClass]],
) -> bool:
    """Verify g(α⋆β) = (gα)⋆(gβ) at cochain level for the spanning `classes`
    and each generator g of G, which the caller has checked preserves K.

    `products` is `product_table(K, classes)`: each α⋆β is computed once and
    moved by every generator.
    """
    for g in G.generators:
        moved = [transported_action(K, g, a) for a in classes]
        for row, ga in zip(products, moved):
            for ab, gb in zip(row, moved):
                lhs = transported_action(K, g, ab)
                if lhs.cochain != cup_product(K, ga, gb).cochain:
                    return False
    return True
