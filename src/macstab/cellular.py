"""Brute-force cellular model of the moment-angle complex.

Ground truth for the combinatorial pipeline: cells are products with a disc
factor per vertex (point, circle or disc cell), admissible when the disc
coordinates form a face.  The boundary keeps the multidegree (the set of
non-point coordinates), so the cochain complex splits into blocks indexed by
vertex subsets; block J in ambient degree i must match H̃^{i-|J|-1}(K_J),
and a symmetry acts on a block with the sign of permuting the circle factors
(odd cells anticommute).  That single sign convention is the calibration
point for the whole package and is falsifiable through `flip_koszul`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import CapExceeded, ValidationError
from .linalg import CochainComplex
from .homology import reduced_cohomology, vanishes
from .hochster import MOMENT_ANGLE, betti as hochster_betti, summand_character
from .perms import (
    DEFAULT_ORACLE_CAP,
    DEFAULT_SUBSET_CAP,
    PermGroup,
    Permutation,
    action_sign,
    restriction_sign,
    subset_orbit_reps,
)
from .simplicial import SimplicialComplex, full_subcomplex, subset_label

Cell = tuple[frozenset, frozenset]  # (L: circle coords, I: disc coords)


class Block(CochainComplex):
    """All cells of one multidegree J, with their cochain complex."""

    def __init__(self, K: SimplicialComplex, J: frozenset):
        self.J = J
        # K's faces come by dimension in face_key order, so each degree's cells do too
        self.cells_by_degree: dict[int, list[Cell]] = {}
        for I in K.all_faces():
            if I <= J:
                self.cells_by_degree.setdefault(len(J) + len(I), []).append((J - I, I))
        dims = {deg: len(cells) for deg, cells in self.cells_by_degree.items()}
        super().__init__(dims, self._rows)

    def _rows(self, deg: int) -> list[dict[int, int]]:
        # d moves one coordinate x from circle to disc, with the sign of the
        # circles before x: the row of a (deg + 1)-cell (L, I) has (L + x, I - x)
        pos = {cell: k for k, cell in enumerate(self.cells_by_degree[deg])}
        return [
            {pos[(L | {x}, I - {x})]: (-1) ** sum(1 for l in L if l < x) for x in I}
            for L, I in self.cells_by_degree[deg + 1]
        ]

    def cell_count(self) -> int:
        return sum(len(c) for c in self.cells_by_degree.values())


class MomentAngleCellComplex:
    def __init__(self, K: SimplicialComplex, cap: int = DEFAULT_ORACLE_CAP):
        n = len(K.vertices)
        if n > cap:
            raise CapExceeded(f"{n} vertices exceed the cellular cap {cap}")
        self.K = K
        self.blocks: dict[frozenset, Block] = {}
        # own loop, not perms.prefix_subsets: the oracle checks hochster.betti, which walks it
        for r in range(n + 1):
            for J in combinations(K.vertices, r):
                Jw = frozenset(J)
                self.blocks[Jw] = Block(K, Jw)

    def cell_count(self) -> int:
        return sum(b.cell_count() for b in self.blocks.values())

    def betti(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for block in self.blocks.values():
            for i, dim in block.dims().items():
                out[i] = out.get(i, 0) + dim
        return dict(sorted(out.items()))

    def betti_by_multidegree(self) -> dict[frozenset, dict[int, int]]:
        return {
            J: block.dims() for J, block in self.blocks.items() if block.dims()
        }


def block_action(
    Z: MomentAngleCellComplex, g: Permutation, J: frozenset, i: int
) -> list[tuple[int, int]]:
    """g on the degree-i cochains, block J to block g·J, as (index of the
    image cell, sign) per cell."""
    gJ = frozenset(g.act_vertex(v) for v in J)
    pos = {cell: k for k, cell in enumerate(Z.blocks[gJ].cells_by_degree.get(i, []))}
    action = []
    for L, I in Z.blocks[J].cells_by_degree.get(i, []):
        gL = frozenset(g.act_vertex(v) for v in L)
        gI = frozenset(g.act_vertex(v) for v in I)
        # odd (circle) factors anticommute; even factors move freely
        action.append((pos[(gL, gI)], action_sign(g, L)))
    return action


def block_trace(
    Z: MomentAngleCellComplex, g: Permutation, J: frozenset, i: int
) -> Fraction:
    """Trace of g on the degree-i cohomology of the block it stabilises."""
    gJ = frozenset(g.act_vertex(v) for v in J)
    if gJ != J:
        raise ValidationError("element does not stabilise the multidegree")
    block = Z.blocks[J]
    if block.dim(i) == 0:
        return Fraction(0)
    return block.trace(i, block_action(Z, g, J, i), block_action(Z, g, J, i - 1))


def _discrepancy(kind: str, subset, degree: int, element, combinatorial, cellular) -> dict:
    """One disagreement as the oracle report lists it."""
    return {
        "kind": kind,
        "subset": subset_label(subset),
        "degree": degree,
        "element": str(element),
        "combinatorial": str(combinatorial),
        "cellular": str(cellular),
    }


def compare_with_hochster(
    K: SimplicialComplex,
    G: PermGroup,
    degrees,
    flip_koszul: bool = False,
    cap: int = DEFAULT_ORACLE_CAP,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> list[dict]:
    """Cross-check the split pipeline against the cellular one, orbit by orbit,
    returning the discrepancies found (none when the two agree).

    Verifies, per orbit representative J and ambient degree: the dimension of
    H̃^{i-|J|-1}(K_J) against the block cohomology, that the block is zero
    wherever the facet masks say the summand vanishes (`vanishes`, which
    lets the scans skip J), and the trace of every stabilizer generator
    (combinatorial character times smash twist against the honest cellular
    action).  `flip_koszul` deliberately corrupts the twist to demonstrate
    the comparison has teeth.  G is a group the caller has checked preserves K.
    """
    Z = MomentAngleCellComplex(K, cap=cap)
    table = subset_orbit_reps(K, G, cap=subset_cap)
    found: list[dict] = []
    degrees = list(degrees)
    for rep in table.representatives:
        coh = reduced_cohomology(full_subcomplex(K, rep))
        masks = K.restriction_masks(rep)
        gens = None
        for i in degrees:
            p = i - len(rep) - 1
            hoch_dim = coh.dim(p)
            cell_dim = Z.blocks[rep].dim(i)
            if cell_dim and vanishes(masks, p):
                found.append(_discrepancy("vanishing", rep, i, "-", 0, cell_dim))
            if hoch_dim != cell_dim:
                found.append(_discrepancy("dimension", rep, i, "-", hoch_dim, cell_dim))
                continue
            if hoch_dim == 0:
                continue
            gens = gens or table.stabilizer_gens(rep)
            chars = summand_character(K, rep, gens, p, MOMENT_ANGLE)
            for g in gens:
                lhs = chars[g]
                if flip_koszul:
                    lhs *= restriction_sign(g, rep)
                rhs = block_trace(Z, g, rep, i)
                if lhs != rhs:
                    found.append(_discrepancy("trace", rep, i, g, lhs, rhs))
    hoch_betti = hochster_betti(K, MOMENT_ANGLE, cap=subset_cap)
    cell_betti = Z.betti()
    for i in degrees:
        hb = hoch_betti.get(i, 0)
        cb = cell_betti.get(i, 0)
        if hb != cb:
            found.append(_discrepancy("betti", (), i, "-", hb, cb))
    return found
