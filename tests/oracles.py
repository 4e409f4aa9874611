"""Reference constructions that only the tests read.

They stay outside the package so that the program carries no code without a
production caller, and so that the checks built on them stay independent of
what they check.
"""

from __future__ import annotations

from macstab.cellular import MomentAngleCellComplex
from macstab.perms import Permutation
from macstab.simplicial import SimplicialComplex, face_key, full_subcomplex


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
