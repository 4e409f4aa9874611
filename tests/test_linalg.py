from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import macstab.linalg as linalg
from macstab.errors import OracleMismatch
from macstab.linalg import (
    CochainComplex,
    Matrix,
    _integer_row,
    extend_to_basis,
    kernel_basis,
    unit_vec,
    vec,
)


def test_rank_and_rref_agree_small():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    red, pivots = m.rref()
    assert len(pivots) == 2


def test_rank_empty_shapes():
    assert Matrix(0, 5).rank() == 0
    assert Matrix(5, 0).rank() == 0
    assert Matrix(0, 0).rank() == 0
    assert Matrix(0, 3).nullspace() == [unit_vec(3, i) for i in range(3)]
    assert Matrix(3, 0).nullspace() == []


def test_nullspace_is_kernel():
    m = Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
    basis = m.nullspace()
    assert len(basis) == 1
    assert m.mul(Matrix.from_columns([basis[0]])).is_zero()


def test_solve_consistent_and_inconsistent():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    x = m.solve([5, 11])
    assert m.mul(Matrix.from_columns([x])).column(0) == (Fraction(5), Fraction(11))
    singular = Matrix.from_rows([[1, 1], [1, 1]])
    assert singular.solve([0, 1]) is None


def test_extend_to_basis_skips_dependent():
    base = [(Fraction(1), Fraction(0), Fraction(0))]
    cands = [
        (Fraction(2), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(5)),
    ]
    chosen = extend_to_basis(base, cands)
    assert chosen == [cands[1], cands[3]]


def _greedy_extend(base, candidates):
    """Reference: keep a candidate iff it raises the rank of the columns so far."""
    if not candidates:
        return []
    n = len(candidates[0])
    current = list(base)
    rank = Matrix.from_columns(current, nrows=n).rank() if current else 0
    chosen = []
    for v in candidates:
        if Matrix.from_columns(current + [v], nrows=n).rank() > rank:
            chosen.append(v)
            current.append(v)
            rank += 1
    return chosen


@st.composite
def _base_and_candidates(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    vectors = st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n).map(vec),
        max_size=5,
    )
    base = draw(vectors)
    # repeat some base vectors and their combinations so the base is often dependent
    if base and draw(st.booleans()):
        base = base + [tuple(a + b for a, b in zip(base[0], base[-1]))]
    return base, draw(vectors)


@given(_base_and_candidates())
def test_extend_to_basis_matches_greedy_rank_loop(case):
    base, candidates = case
    assert extend_to_basis(base, candidates) == _greedy_extend(base, candidates)


def test_rational_entries_survive():
    m = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert m.rank() == 1


_SIGNS = st.sampled_from([0, 0, 1, -1])
_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _matrices(draw):
    """Matrices of every shape up to 7x7, empty ones included: sparse ±1 entries
    like a coboundary's, or small rationals."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entries = draw(st.sampled_from([_SIGNS, _RATIONALS]))
    return Matrix(rows, cols, [[draw(entries) for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=300)
@given(_matrices())
def test_rank_matches_rref_pivot_count(m):
    # the dense rational rref is the reference for the sparse integer rank
    _, pivots = m.rref()
    assert m.rank() == len(pivots)


@settings(max_examples=300)
@given(_matrices())
def test_kernel_basis_is_the_rref_nullspace(m):
    # the kernel vector that is 1 at a free column and 0 at the others is
    # unique, so the sparse echelon form must give the dense rref's vectors
    kernel = kernel_basis([_integer_row(row) for row in m.data], m.cols)
    dense = [tuple(v.get(j, Fraction(0)) for j in range(m.cols)) for v in kernel.values()]
    assert dense == m.nullspace()
    assert all(v[f] == 1 for f, v in kernel.items())


def _is_exact(x) -> bool:
    return type(x) in (int, Fraction)


@settings(max_examples=300)
@given(_matrices())
def test_kernel_basis_entries_are_exact(m):
    # an int where the pivot divides the entry, a Fraction otherwise: never a
    # float, and every row annihilates every kernel vector exactly
    rows = [_integer_row(row) for row in m.data]
    for v in kernel_basis(rows, m.cols).values():
        assert all(_is_exact(x) for x in v.values())
        products = [sum((x * v.get(j, 0) for j, x in row.items()), 0) for row in rows]
        assert all(_is_exact(y) and y == 0 for y in products)


def test_degree_trace_checks_its_kernels(monkeypatch):
    # C^0 = Q^2 -> C^1 = Q: the cocycles of x0 - x1 are spanned by (1, 1)
    d = [{0: 1, 1: -1}]
    identity, swap = [(0, 1), (1, 1)], [(1, 1), (0, 1)]
    assert CochainComplex({0: 2, 1: 1}, {0: d}.get).trace(0, identity, []) == 1
    assert CochainComplex({0: 2, 1: 1}, {0: d}.get).trace(0, swap, []) == 1
    # the cocycle e1 of x0 goes to e0, which is none
    with pytest.raises(OracleMismatch, match="non-cocycle"):
        CochainComplex({0: 2, 1: 1}, {0: [{0: 1}]}.get).trace(0, swap, [])
    monkeypatch.setattr(linalg, "rank", lambda rows: 0)
    with pytest.raises(OracleMismatch, match="the rank gives 2"):
        CochainComplex({0: 2, 1: 1}, {0: d}.get).trace(0, identity, [])


def test_ring_reads_check_themselves(monkeypatch):
    # a point: C^-1 = Q -> C^0 = Q is onto, so H^0 is zero
    point = CochainComplex({-1: 1, 0: 1}, {-1: [{0: 1}]}.get)
    assert point.representatives(0) == [] and point.is_coboundary(0, (Fraction(3),))
    # C^0 = Q^2 -> C^1 = Q: (1, 0) is no cocycle of x0 - x1
    with pytest.raises(OracleMismatch, match="non-cocycle"):
        CochainComplex({0: 2, 1: 1}, {0: [{0: 1, 1: -1}]}.get).is_coboundary(0, (1, 0))
    # a rank of d_{-1} that is 0 gives H^0 a dimension no representative has
    monkeypatch.setattr(linalg, "rank", lambda rows: 0)
    point = CochainComplex({-1: 1, 0: 1}, {-1: [{0: 1}]}.get)
    with pytest.raises(OracleMismatch, match="0 cohomology representatives, but the ranks give 1"):
        point.representatives(0)


@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
        min_size=2,
        max_size=4,
    )
)
def test_nullspace_dimension_theorem(rows):
    m = Matrix.from_rows(rows)
    assert m.rank() + len(m.nullspace()) == m.cols


def test_trace_requires_square():
    with pytest.raises(ValueError):
        Matrix(2, 3).trace()
