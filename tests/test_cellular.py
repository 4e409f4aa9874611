import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from macstab.cellular import (
    MomentAngleCellComplex,
    block_action,
    block_trace,
    compare_with_hochster,
)
from macstab.errors import CapExceeded, ValidationError
from macstab.hochster import betti
from macstab.linalg import kernel_basis
from macstab.perms import PermGroup, Permutation, enumerate_group, is_g_complex
from macstab.simplicial import (
    SimplicialComplex,
    Vertex,
    full_subcomplex,
    point,
    skeleton,
    vc_cube_dual,
)

from oracles import (
    assemble_global_boundary,
    block_trace_by_projection,
    cellular_action_trace,
    sigma_closed_complexes,
)


def test_sanity_disc_circle_sphere():
    # one vertex whose face is present: a disc; absent: a circle
    assert MomentAngleCellComplex(point()).betti() == {0: 1}
    assert MomentAngleCellComplex(skeleton(1, -1)).betti() == {0: 1, 1: 1}
    assert MomentAngleCellComplex(skeleton(2, 0)).betti() == {0: 1, 3: 1}


def test_cell_count(square):
    Z = MomentAngleCellComplex(square)
    expected = sum(2 ** (4 - len(f)) for f in square.all_faces())
    assert Z.cell_count() == expected


def test_global_boundary_squares_to_zero(square, composes_to_zero):
    for K in [square, skeleton(3, 0), vc_cube_dual(2)]:
        glob = assemble_global_boundary(MomentAngleCellComplex(K))
        degs = sorted(glob)
        for d in degs:
            if d + 1 in degs:
                assert composes_to_zero(glob[d], glob[d + 1])


def test_block_differentials_square_to_zero(square, composes_to_zero):
    Z = MomentAngleCellComplex(square)
    for block in Z.blocks.values():
        for deg in block.cochain_dims:
            rows, nxt = block.coboundary(deg), block.coboundary(deg + 1)
            if rows is not None and nxt is not None:
                assert composes_to_zero(nxt, rows)


def test_betti_matches_split_pipeline(square):
    corpus = [square, skeleton(2, 0), skeleton(3, 0), skeleton(4, 1),
              vc_cube_dual(2), vc_cube_dual(3)]
    for K in corpus:
        assert MomentAngleCellComplex(K).betti() == betti(K)


def test_euler_characteristic_from_cells(square):
    # alternating Betti sum equals the alternating cell count
    for K in [square, skeleton(3, 0), skeleton(4, 1), vc_cube_dual(2)]:
        Z = MomentAngleCellComplex(K)
        cells = {}
        for block in Z.blocks.values():
            for deg, items in block.cells_by_degree.items():
                cells[deg] = cells.get(deg, 0) + len(items)
        chi_cells = sum((-1) ** d * n for d, n in cells.items())
        chi_betti = sum((-1) ** i * b for i, b in betti(K).items())
        assert chi_cells == chi_betti


def test_multidegree_split_matches_restrictions(square):
    Z = MomentAngleCellComplex(square)
    split = Z.betti_by_multidegree()
    for J, row in split.items():
        from macstab.homology import reduced_cohomology

        coh = reduced_cohomology(full_subcomplex(square, J))
        assert row == {
            p + len(J) + 1: d for p, d in coh.dims().items()
        }


def test_block_trace_identity_is_dimension(square):
    Z = MomentAngleCellComplex(square)
    ident = Permutation.identity(4)
    for J, block in Z.blocks.items():
        for i, d in block.dims().items():
            assert block_trace(Z, ident, J, i) == d


@settings(max_examples=25, deadline=None)
@given(sigma_closed_complexes(max_m=3, max_tags=2, max_free=1), st.data())
def test_block_trace_matches_the_projection_route(case, data):
    # every block, from the degree below its cells to the one above them
    K, m = case
    Z = MomentAngleCellComplex(K)
    sym = enumerate_group(list(PermGroup.symmetric(m).generators))
    for J in Z.blocks:
        g = data.draw(st.sampled_from([h for h in sym if frozenset(map(h.act_vertex, J)) == J]))
        for i in range(len(J) - 1, 2 * len(J) + 2):
            assert block_trace(Z, g, J, i) == block_trace_by_projection(Z, g, J, i)


@settings(max_examples=25, deadline=None)
@given(sigma_closed_complexes(max_m=3, max_tags=2, max_free=1), st.data())
def test_block_cocycles_and_traces_are_exact(case, data):
    # the cocycle kernels hold ints and Fractions that the coboundary kills
    # exactly, and a trace is a Fraction equal to the dense projection route
    K, m = case
    Z = MomentAngleCellComplex(K)
    sym = enumerate_group(list(PermGroup.symmetric(m).generators))
    for J, block in Z.blocks.items():
        g = data.draw(st.sampled_from([h for h in sym if frozenset(map(h.act_vertex, J)) == J]))
        for i, n in block.cochain_dims.items():
            d = block.coboundary(i) or []
            for v in kernel_basis(d, n).values():
                assert all(type(x) in (int, Fraction) for x in v.values())
                assert all(sum(x * v.get(j, 0) for j, x in row.items()) == 0 for row in d)
            trace = block.trace(i, block_action(Z, g, J, i), block_action(Z, g, J, i - 1))
            assert type(trace) is Fraction
            assert trace == block_trace_by_projection(Z, g, J, i)


@pytest.mark.parametrize("which", ["square", "skeleton41", "pentagon"])
def test_block_trace_matches_the_projection_route_on_a_corpus(square, which):
    # blocks whose cohomology sits above degree 0 of K_J, where Z^{i-1} is not zero
    dihedral = [Permutation.from_cycles(4, (1, 2, 3, 4)), Permutation.from_cycles(4, (2, 4))]
    K, gens = {"square": (square, dihedral),
               "skeleton41": (skeleton(4, 1), PermGroup.symmetric(4).generators),
               "pentagon": (vc_cube_dual(2), PermGroup.symmetric(2).generators)}[which]
    Z = MomentAngleCellComplex(K)
    elements = enumerate_group(list(gens))
    kernels_in = 0
    for J, block in Z.blocks.items():
        for g in (h for h in elements if frozenset(map(h.act_vertex, J)) == J):
            for i in block.cochain_dims:
                assert block_trace(Z, g, J, i) == block_trace_by_projection(Z, g, J, i)
                cochains_in = block.cochain_dims.get(i - 1, 0)
                kernels_in += block.dim(i) > 0 and cochains_in > block.rank(i - 1)
    assert kernels_in


def test_orbit_trace_square(square):
    Z = MomentAngleCellComplex(square)
    v = {w.index: w for w in square.vertices}
    orbit = [frozenset({v[1], v[3]}), frozenset({v[2], v[4]})]
    swap = Permutation.from_cycles(4, (1, 3), (2, 4))
    rot = Permutation.from_cycles(4, (1, 2, 3, 4))
    # the halfturn fixes both diagonal blocks and acts trivially on each
    assert cellular_action_trace(Z, swap, 3, orbit) == 2
    # the rotation swaps the two blocks
    assert cellular_action_trace(Z, rot, 3, orbit) == 0
    with pytest.raises(ValidationError):
        cellular_action_trace(Z, rot, 3, [orbit[0]])


def test_trace_is_class_function(square):
    Z = MomentAngleCellComplex(square)
    v = {w.index: w for w in square.vertices}
    top = frozenset(square.vertices)
    elements = enumerate_group([Permutation.from_cycles(4, (1, 2, 3, 4))])
    traces = {g: block_trace(Z, g, top, 6) for g in elements}
    for a in elements:
        for b in elements:
            assert traces[a * b * a.inverse()] == traces[b]


def test_disjoint_points_transposition_trace():
    # the coordinate swap preserves orientation on each sphere block
    Z = MomentAngleCellComplex(skeleton(3, 0))
    pairs = [frozenset({Vertex(a), Vertex(b)}) for a, b in [(1, 2), (1, 3), (2, 3)]]
    g = Permutation.from_cycles(3, (1, 2))
    assert cellular_action_trace(Z, g, 3, pairs) == 1
    ident = Permutation.identity(3)
    assert cellular_action_trace(Z, ident, 3, pairs) == 3


def test_vertex_cap():
    with pytest.raises(CapExceeded):
        MomentAngleCellComplex(skeleton(8, 0))
    MomentAngleCellComplex(skeleton(8, 0), cap=8)


def test_compare_square(square, c4):
    assert compare_with_hochster(square, c4, range(0, 8)) == []


def test_compare_flip_koszul_nonempty(square, c4):
    diff = compare_with_hochster(square, c4, range(0, 8), flip_koszul=True)
    assert diff != []
    assert all(e["kind"] == "trace" for e in diff)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_compare_disjoint_points(m):
    diff = compare_with_hochster(
        skeleton(m, 0), PermGroup.symmetric(m), range(0, 2 * m + 1)
    )
    assert diff == []


def test_compare_skeleton41_and_pentagon():
    assert compare_with_hochster(
        skeleton(4, 1), PermGroup.symmetric(4), range(0, 9)
    ) == []
    assert compare_with_hochster(
        vc_cube_dual(2), PermGroup.symmetric(2), range(0, 11)
    ) == []


def _random_complex(rng, n=5):
    verts = [Vertex(i) for i in range(1, n + 1)]
    pool = [frozenset(c) for r in (2, 3) for c in combinations(verts, r)]
    picked = rng.sample(pool, rng.randint(2, 6))
    return SimplicialComplex(verts, picked + [frozenset([v]) for v in verts])


def _symmetry_group(K, n=5):
    from itertools import permutations as iter_permutations

    gens = []
    for imgs in iter_permutations(range(1, n + 1)):
        g = Permutation(imgs)
        if g.is_identity():
            continue
        if all(K.has_face(frozenset(g.act_vertex(v) for v in f)) for f in K.facets):
            gens.append(g)
    return PermGroup(n, tuple(gens) or (Permutation.identity(n),))


def test_compare_random_complexes():
    rng = random.Random(20240811)
    for _ in range(4):
        K = _random_complex(rng)
        G = _symmetry_group(K)
        assert is_g_complex(K, G)
        assert compare_with_hochster(K, G, range(0, 11)) == []
