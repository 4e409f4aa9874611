"""Reference constructions, and the inputs they are compared on, that only
the tests read.

They stay outside the package so that the program carries no code without a
production caller, and so that the checks built on them stay independent of
what they check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, prod

from hypothesis import strategies as st

from macstab.cellular import MomentAngleCellComplex, block_action, block_trace
from macstab.errors import OracleMismatch, ValidationError
from macstab.hochster import (
    CohomologyClass,
    SpherePair,
    _cross_pairs_sign,
    _rank_sign,
    class_is_zero_in_cohomology,
    orbit_summands,
)
from macstab.homology import induced_cohomology_map, reduced_cohomology
from macstab.linalg import CochainComplex, Matrix, Vector, apply_signed
from macstab.perms import DEFAULT_SUPPORT_CAP, PermGroup, Permutation, enumerate_group
from macstab.simplicial import SimplicialComplex, Vertex, face_key, full_subcomplex
from macstab.symrep import (
    ClassFunction,
    Partition,
    _check_partition,
    decompose,
    mn_character,
    partitions,
    pieri_induce,
    z_order,
)


def assemble_global_boundary(Z: MomentAngleCellComplex) -> dict[int, list[dict[int, int]]]:
    """Boundaries of the whole complex as sparse rows, for block-exactness checks."""
    cells_by_degree: dict[int, list[tuple[frozenset, tuple[frozenset, frozenset]]]] = {}
    for J, block in Z.blocks.items():
        for deg, cells in block.cells_by_degree.items():
            cells_by_degree.setdefault(deg, []).extend((J, c) for c in cells)
    for deg in cells_by_degree:
        cells_by_degree[deg].sort(key=lambda t: (face_key(t[0]), face_key(t[1][1])))
    index = {
        (deg, J, cell): k
        for deg, items in cells_by_degree.items()
        for k, (J, cell) in enumerate(items)
    }
    out: dict[int, list[dict[int, int]]] = {}
    for deg, items in sorted(cells_by_degree.items()):
        rows: list[dict[int, int]] = [{} for _ in cells_by_degree.get(deg - 1, [])]
        for col, (J, (L, I)) in enumerate(items):
            for x in sorted(I):
                L2, I2 = L | {x}, I - {x}
                row = index.get((deg - 1, J, (L2, I2)))
                if row is None:
                    continue
                below = sum(1 for l in L if l < x)
                rows[row][col] = (-1) ** below
        out[deg] = rows
    return out


def g_full_subcomplex_matches(K: SimplicialComplex, g: Permutation, J) -> bool:
    """g·K_J == K_{g·J} as complexes."""
    Jw = frozenset(J)
    KJ = full_subcomplex(K, Jw)
    gJ = frozenset(g.act_vertex(v) for v in Jw)
    KgJ = full_subcomplex(K, gJ)
    mapped = SimplicialComplex(
        [g.act_vertex(v) for v in KJ.vertices],
        [frozenset(g.act_vertex(v) for v in f) for f in KJ.facets],
    )
    return mapped == KgJ


def stabilizer_order_in_sym(J, m: int) -> int:
    """|stab(J, m)| inside Σ_m by brute force over its m! elements."""
    Jw = frozenset(J)
    return sum(
        frozenset(g.act_vertex(v) for v in Jw) == Jw
        for g in map(Permutation, permutations(range(1, m + 1)))
    )


def _relabellings(S, d: int):
    """S with its indices carried into 1..d by each injection, none when it has
    more than d indices."""
    src = sorted({v.index for v in S if v.index is not None})
    for img in permutations(range(1, d + 1), len(src)):
        to = dict(zip(src, img))
        yield frozenset(v if v.index is None else Vertex(to[v.index], v.tag) for v in S)


def vertex_stable_by_relabelling(fam, r: int, d: int, m_range) -> bool:
    """`families.check_r_vertex_stable` by search: every (r+1)-subset of V(K_m),
    m >= d, has an index relabelling into 1..d that lies in V(K_d)."""
    vd = set(fam.instantiate(d)[0].vertices)
    for m in m_range:
        if m >= d:
            for S in combinations(fam.instantiate(m)[0].vertices, r + 1):
                if not any(T <= vd for T in _relabellings(S, d)):
                    return False
    return True


def face_stable_by_relabelling(fam, r: int, d: int, m_range) -> bool:
    """`families.check_r_face_stable` by search: every r-face of K_m, m >= d,
    has an index relabelling into 1..d that is a face of K_d."""
    Kd = fam.instantiate(d)[0]
    for m in m_range:
        if m >= d:
            for face in fam.instantiate(m)[0].faces_of_dim(r):
                if not any(Kd.has_face(T) for T in _relabellings(face, d)):
                    return False
    return True


def _extend(g: Permutation, m_plus: int) -> Permutation:
    return Permutation(tuple(g) + tuple(range(g.degree + 1, m_plus + 1)))


def consistent_by_generators(fam, m_range) -> bool:
    """`families.check_consistent` by the full walk: every facet of K_m, and its
    image under each generator of Σ_m extended to m + 1, is a face of K_{m+1}."""
    for m in m_range:
        K, G = fam.instantiate(m)
        K_next = fam.instantiate(m + 1)[0]
        if not set(K.vertices) <= set(K_next.vertices):
            return False
        for facet in K.facets:
            if not K_next.has_face(facet):
                return False
        for g in G.generators:
            g_up = _extend(g, m + 1)
            for facet in K.facets:
                if not K_next.has_face(frozenset(g_up.act_vertex(v) for v in facet)):
                    return False
    return True


def character_on_cohomology(
    K: SimplicialComplex, J, stab_elements, p: int
) -> dict[Permutation, Fraction]:
    """Trace of each stabilising element on H̃^p(K_J), through the basis route.

    The result is checked to be constant on conjugacy classes of the supplied
    element list, as far as conjugation stays inside the list.
    """
    traces = {h: induced_cohomology_map(h, K, J, p).trace() for h in stab_elements}
    elems = set(stab_elements)
    for h in stab_elements:
        for x in stab_elements:
            conj = x * h * x.inverse()
            if conj in elems and traces[conj] != traces[h]:
                raise ValidationError("trace is not constant on conjugacy classes")
    return traces


def lefschetz_cohomology_sum(K: SimplicialComplex, g: Permutation) -> Fraction:
    """Alternating trace of g on reduced cohomology; equals the cochain sum."""
    total = Fraction(0)
    for p in reduced_cohomology(K).dims():
        mat = induced_cohomology_map(g, K, frozenset(K.vertices), p)
        total += (-1 if p % 2 else 1) * mat.trace()
    return total


def densify(cochain: dict, n: int) -> Vector:
    """A sparse {index: coefficient} cochain as a dense vector of length n."""
    return tuple(Fraction(cochain.get(j, 0)) for j in range(n))


def classes_equal_in_cohomology(
    K: SimplicialComplex, a: CohomologyClass, b: CohomologyClass
) -> bool:
    if a.subset != b.subset or a.degree != b.degree:
        return False
    diff = {j: a.cochain.get(j, 0) - b.cochain.get(j, 0) for j in a.cochain.keys() | b.cochain}
    return class_is_zero_in_cohomology(K, CohomologyClass(a.subset, a.degree, diff))


def representative_coordinates(coh: CochainComplex, p: int, cocycle: dict) -> Vector:
    """Coordinates of a sparse cocycle in the representative basis, modulo
    coboundaries.

    The tests' dense reader: one solve of [columns of d_{p-1} | representatives]
    x = cocycle, made dense here, whose last entries are unique because the
    representatives are independent modulo the coboundaries.
    """
    n = coh.cochain_dims.get(p, 0)
    d_in = coh.coboundary(p - 1) or []
    image = [tuple(row.get(j, 0) for row in d_in) for j in range(coh.cochain_dims.get(p - 1, 0))]
    columns = image + [densify(rep, n) for rep in coh.representatives(p)]
    x = Matrix.from_columns(columns, nrows=n).solve(densify(cocycle, n))
    if x is None:
        raise OracleMismatch("coordinates of a non-cocycle")
    return x[len(image):]


def cup_product_by_faces(
    K: SimplicialComplex, a: CohomologyClass, b: CohomologyClass
) -> CohomologyClass:
    """`hochster.cup_product` by a walk over every (p+q+1)-face ρ of K_{I∪J}:
    ρ contributes where ρ ∩ I and ρ ∩ J are p- and q-faces on which both
    cochains are non-zero."""
    I, J = a.subset, b.subset
    U = I | J
    p, q = a.degree, b.degree
    out = {}
    if not I & J:
        pos_a = {f: k for k, f in enumerate(full_subcomplex(K, I).faces_of_dim(p))}
        pos_b = {f: k for k, f in enumerate(full_subcomplex(K, J).faces_of_dim(q))}
        for k, rho in enumerate(full_subcomplex(K, U).faces_of_dim(p + q + 1)):
            sigma, tau = rho & I, rho & J
            if len(sigma) != p + 1 or len(tau) != q + 1:
                continue
            va, vb = a.cochain.get(pos_a[sigma], 0), b.cochain.get(pos_b[tau], 0)
            if va and vb:
                sign = (
                    _rank_sign(sigma, I)
                    * _rank_sign(tau, J)
                    * _rank_sign(rho, U)
                    * _cross_pairs_sign(J - tau, I - sigma)
                )
                out[k] = sign * va * vb
    return CohomologyClass(U, p + q + 1, out)




def block_trace_by_projection(
    Z: MomentAngleCellComplex, g: Permutation, J: frozenset, i: int
) -> Fraction:
    """`cellular.block_trace` through the block's representative basis: each
    representative is moved by g and its coordinates read back by the dense
    solve of `representative_coordinates`."""
    if frozenset(g.act_vertex(v) for v in J) != J:
        raise ValidationError("element does not stabilise the multidegree")
    block = Z.blocks[J]
    if block.dim(i) == 0:
        return Fraction(0)
    action = block_action(Z, g, J, i)
    total = Fraction(0)
    for k, rep in enumerate(block.representatives(i)):
        moved = dict(enumerate(apply_signed(action, rep)))
        total += representative_coordinates(block, i, moved)[k]
    return total


def cellular_action_trace(
    Z: MomentAngleCellComplex, g: Permutation, i: int, orbit
) -> Fraction:
    """Trace of g on the degree-i cohomology of a union of multidegree blocks.

    The union must be g-stable; blocks moved off themselves contribute zero.
    """
    sets = [frozenset(J) for J in orbit]
    images = {frozenset(g.act_vertex(v) for v in J) for J in sets}
    if images != set(sets):
        raise ValidationError("the block union is not stable under the element")
    total = Fraction(0)
    for J in sets:
        if frozenset(g.act_vertex(v) for v in J) == J:
            total += block_trace(Z, g, J, i)
    return total


@st.composite
def sigma_closed_complexes(draw, max_m: int = 4, max_tags: int = 3, max_free: int = 2):
    """A Σ_m-closed complex and its m: m <= max_m, up to max_tags tags per
    index and up to max_free unindexed vertices."""
    m = draw(st.integers(1, max_m))
    tags = draw(st.sets(st.integers(0, max_tags - 1)))
    verts = [Vertex(i, t) for i in range(1, m + 1) for t in tags]
    verts += [Vertex(None, t) for t in range(draw(st.integers(0, max_free)))]
    seeds = []
    if verts:
        seeds = draw(st.lists(st.sets(st.sampled_from(verts), max_size=3), max_size=3))
    sym = enumerate_group(list(PermGroup.symmetric(m).generators))
    facets = {frozenset(g.act_vertex(v) for v in f) for f in seeds for g in sym}
    return SimplicialComplex(verts, facets), m


# -- Σ_n characters from permutation modules, without border strips ----------


def class_size(lam: Partition) -> int:
    """|C_λ| = n! / z_λ, the class weight of the inner products in this section."""
    _check_partition(lam)
    return factorial(sum(lam)) // z_order(lam)


def perm_module_character(mu: Partition, cycle_type: Partition) -> int:
    """Fixed points of a permutation of type `cycle_type` acting on tabloids.

    Counts distributions of the cycles into row bins of capacities μ by a
    depth-first packing; independent of the border-strip recursion.
    """
    _check_partition(mu)
    _check_partition(cycle_type)
    if sum(mu) != sum(cycle_type):
        raise ValidationError("size mismatch")
    cycles = sorted(cycle_type, reverse=True)

    def place(i: int, state: tuple[int, ...]) -> int:
        if i == len(cycles):
            return 1
        c = cycles[i]
        total = 0
        for b, cap in enumerate(state):
            if cap >= c:
                nxt = list(state)
                nxt[b] -= c
                total += place(i + 1, tuple(nxt))
        return total

    return place(0, tuple(mu))


def character_table_by_projection(n: int) -> dict[Partition, dict[Partition, int]]:
    """Character table of Σ_n built from permutation modules alone.

    Processing partitions in reverse-lexicographic order, each permutation
    character decomposes over the already-built irreducibles with λ itself
    appearing exactly once; subtracting leaves χ_λ.  The brute-force oracle
    against the border-strip recursion.
    """
    classes = partitions(n)
    table: dict[Partition, dict[Partition, int]] = {}
    for lam in classes:  # reverse-lex starts at (n), dominance-compatible
        psi = {mu: perm_module_character(lam, mu) for mu in classes}
        for chi in table.values():
            mult = sum(class_size(mu) * Fraction(psi[mu]) * chi[mu] for mu in classes)
            mult /= factorial(n)
            if mult:
                psi = {mu: psi[mu] - mult * chi[mu] for mu in classes}
        table[lam] = psi
    return table


def hook_dim_by_hooks(lam: Partition) -> int:
    """dim V_λ = n! / Π hook lengths, cell by cell: the reference for
    `symrep.hook_dim`, which reads the beta numbers instead."""
    _check_partition(lam)
    cols = [sum(1 for a in lam if a > j) for j in range(lam[0] if lam else 0)]
    hooks = prod((row - j) + (cols[j] - i) - 1 for i, row in enumerate(lam) for j in range(row))
    return factorial(sum(lam)) // hooks


def irreducible_character(lam: Partition) -> ClassFunction:
    """χ_λ as a full table over the classes of Σ_|λ|."""
    return {mu: Fraction(mn_character(lam, mu)) for mu in partitions(sum(lam))}


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """⟨f, g⟩ = Σ_μ |C_μ| f(μ) g(μ) / n!, term by term over every class of
    Σ_n: the reference for `symrep.decompose`."""
    if f.keys() != g.keys():
        raise ValidationError("the class functions do not cover the same classes")
    n = sum(next(iter(f), ()))
    return sum(class_size(mu) * val * g[mu] for mu, val in f.items()) / factorial(n)


def regular_character(n: int) -> ClassFunction:
    values = {mu: Fraction(0) for mu in partitions(n)}
    values[(1,) * n] = Fraction(factorial(n))
    return values


def natural_permutation_character(n: int) -> ClassFunction:
    return {mu: Fraction(sum(1 for part in mu if part == 1)) for mu in partitions(n)}


# -- the fusion route to Σ_m, against the horizontal strips -----------------


def induce_young(psi: ClassFunction, m: int) -> ClassFunction:
    """Induce ψ ⊠ triv from Σ_b × Σ_{m-b} to Σ_m, over cycle types.

    Ind(ψ⊠1)(μ) = Σ over splittings μ = μ' ∪ μ'' with μ' ⊢ b of
    z_μ / (z_{μ'} z_{μ''}) · ψ(μ').
    """
    b = sum(next(iter(psi)))
    if m < b:
        raise ValidationError("target rank below subgroup rank")
    if m == b:
        return psi
    values: dict[Partition, Fraction] = {}
    for mu in partitions(m):
        zmu = z_order(mu)
        total = Fraction(0)
        for mu1 in _sub_multisets(mu, b):
            mu2 = _multiset_minus(mu, mu1)
            total += Fraction(zmu, z_order(mu1) * z_order(mu2)) * psi[mu1]
        values[mu] = total
    return values


def _sub_multisets(mu: Partition, b: int) -> list[Partition]:
    """Distinct sub-multisets of the parts of μ summing to b."""
    out: set[Partition] = set()

    def rec(i: int, rest: int, chosen: tuple[int, ...]):
        if rest == 0:
            out.add(tuple(sorted(chosen, reverse=True)))
            return
        if i == len(mu) or rest < 0:
            return
        rec(i + 1, rest - mu[i], chosen + (mu[i],))
        rec(i + 1, rest, chosen)

    rec(0, b, ())
    return sorted(out)


def _multiset_minus(mu: Partition, mu1: Partition) -> Partition:
    remaining = list(mu)
    for part in mu1:
        remaining.remove(part)
    return tuple(sorted(remaining, reverse=True))


def sym_decomposition_by_fusion(
    K: SimplicialComplex,
    pair: SpherePair,
    i: int,
    m: int,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> dict[Partition, int]:
    """Same decomposition through full character fusion at rank m.

    Independent of the horizontal-strip route: induces each summand character
    to Σ_m over cycle types and decomposes there, then translates to padded
    coordinates.  Must agree with `hochster.sym_irreducible_decomposition`.
    """
    total = {mu: Fraction(0) for mu in partitions(m)}
    for summand in orbit_summands(K, pair, i, m, support_cap=support_cap):
        for mu, val in induce_young(summand.finite_character, m).items():
            total[mu] += val
    result: dict[Partition, int] = {}
    for lam, mult in decompose(total).items():
        result[lam[1:]] = result.get(lam[1:], 0) + mult
    return dict(sorted(result.items()))


def summand_routes(
    K: SimplicialComplex,
    pair: SpherePair,
    i: int,
    m: int,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> list[tuple[frozenset, dict[Partition, int], dict[Partition, int]]]:
    """Per-summand comparison data: (rep, fusion route, strip route) at rank m."""
    out = []
    for summand in orbit_summands(K, pair, i, m, support_cap=support_cap):
        fusion = decompose(induce_young(summand.finite_character, m))
        strips: dict[Partition, int] = {}
        for mu, mult in summand.mu_multiplicities.items():
            for lam in pieri_induce(mu, m):
                strips[lam] = strips.get(lam, 0) + mult
        out.append((summand.rep, fusion, dict(sorted(strips.items()))))
    return out
