"""Exact rational linear algebra.

A coboundary is a list of sparse integer rows, one {column: ±1} dict per
row, and a symmetry acts on cochains as a signed permutation, one (target
index, sign) pair per basis element.  `rank` eliminates the rows fraction-free
over the integers, dividing each by the gcd of its entries after every step.
The trace of a symmetry on cohomology is read off the kernels of the two
coboundaries next to the degree, from their sparse reduced echelon forms,
with no basis.  Dense matrices over Q (``fractions.Fraction``; no floating
point anywhere) appear only where the ring code reads a basis: image and
cocycle bases and the projection onto representatives, by rational row
reduction.  `DegreeCohomology` is the one cohomology kernel that both the
split pipeline (`homology`) and the cellular model (`cellular`) build on; its
dimension comes from ranks alone, its traces from the cocycle kernels, and
its basis is built only when read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import OracleMismatch

Vector = tuple[Fraction, ...]


def vec(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


def zero_vec(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


class Matrix:
    """Row-major exact rational matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence] | None = None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[Fraction(0)] * cols for _ in range(rows)]
        else:
            if len(data) != rows:
                raise ValueError("row count mismatch")
            self.data = [[Fraction(x) for x in row] for row in data]
            for row in self.data:
                if len(row) != cols:
                    raise ValueError("column count mismatch")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, rows)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise ValueError("need nrows for a matrix with no columns")
        m = cls(nrows, len(cols))
        for j, col in enumerate(cols):
            for i, x in enumerate(col):
                m.data[i][j] = Fraction(x)
        return m

    def copy(self) -> "Matrix":
        return Matrix(self.rows, self.cols, self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {self.data!r})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def column(self, j: int) -> Vector:
        return tuple(self.data[i][j] for i in range(self.rows))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = Matrix(self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            for k, a in enumerate(row):
                if a == 0:
                    continue
                orow = other.data[k]
                orow_out = out.data[i]
                for j in range(other.cols):
                    if orow[j]:
                        orow_out[j] += a * orow[j]
        return out

    def rank(self) -> int:
        """Rank of the rational matrix, by the sparse integer `rank`."""
        return rank([_integer_row(r) for r in self.data])

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the pivot column indices."""
        m = self.copy()
        pivots: list[int] = []
        r = 0
        for c in range(m.cols):
            pr = next((i for i in range(r, m.rows) if m.data[i][c] != 0), None)
            if pr is None:
                continue
            m.data[r], m.data[pr] = m.data[pr], m.data[r]
            inv = 1 / m.data[r][c]
            m.data[r] = [x * inv for x in m.data[r]]
            for i in range(m.rows):
                if i != r and m.data[i][c] != 0:
                    f = m.data[i][c]
                    m.data[i] = [x - f * y for x, y in zip(m.data[i], m.data[r])]
            pivots.append(c)
            r += 1
            if r == m.rows:
                break
        return m, pivots

    def nullspace(self) -> list[Vector]:
        """Basis of the right kernel (one vector per free column)."""
        if self.cols == 0:
            return []
        if self.rows == 0:
            return [unit_vec(self.cols, j) for j in range(self.cols)]
        red, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = [Fraction(0)] * self.cols
            v[free] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red.data[r][free]
            basis.append(tuple(v))
        return basis

    def column_space_basis(self) -> list[Vector]:
        """Columns of self forming a basis of the image."""
        if self.rows == 0 or self.cols == 0:
            return []
        _, pivots = self.rref()
        return [self.column(j) for j in pivots]

    def solve(self, b: Sequence) -> Vector | None:
        """One exact solution of self @ x = b, or None if inconsistent."""
        if len(b) != self.rows:
            raise ValueError("rhs length mismatch")
        aug = Matrix(self.rows, self.cols + 1)
        for i in range(self.rows):
            aug.data[i][: self.cols] = [Fraction(x) for x in self.data[i]]
            aug.data[i][self.cols] = Fraction(b[i])
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.data[r][self.cols]
        return tuple(x)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), Fraction(0))


def rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank of sparse integer rows by fraction-free elimination."""
    return len(_echelon(rows))


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """An echelon basis of the row space of sparse integer rows, by leading column.

    Rows are reduced one at a time against the pivot rows kept so far, each
    keyed by its least column, until they vanish or lead with a new column.
    Every pivot row is primitive with a positive leading entry.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                # a positive leading entry makes ±1 pivots cancel without scaling
                pivots[c] = row if row[c] > 0 else {j: -x for j, x in row.items()}
                break
            row = _eliminate(row, pivot, c)
    return pivots


def kernel_basis(rows: list[dict[int, int]], n: int) -> dict[int, dict[int, Fraction]]:
    """A basis of the kernel of sparse integer rows on n columns, one sparse
    vector per free column f of the reduced echelon form: 1 at f and 0 at
    every other free column, so a kernel vector's coordinate along it is its
    f-entry.
    """
    pivots = _echelon(rows)
    # back-substitute from the last pivot: each row then vanishes at every
    # pivot column but its own, and its other entries sit at free columns
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for c2 in sorted(j for j in row if j != c and j in pivots):
            row = _eliminate(row, pivots[c2], c2)
        pivots[c] = row
    basis = {f: {f: Fraction(1)} for f in range(n) if f not in pivots}
    for c, row in pivots.items():
        for f, x in row.items():
            if f != c:
                basis[f][c] = Fraction(-x, row[c])
    return basis


def _integer_row(entries: Sequence[Fraction]) -> dict[int, int]:
    """The non-zero entries of a rational row, scaled to coprime integers."""
    nonzero = {j: x for j, x in enumerate(entries) if x}
    if not nonzero:
        return {}
    scale = lcm(*(x.denominator for x in nonzero.values()))
    row = {j: x.numerator * (scale // x.denominator) for j, x in nonzero.items()}
    return _primitive(row)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _eliminate(row: dict[int, int], pivot: dict[int, int], c: int) -> dict[int, int]:
    """a·row − b·pivot with the column-c entry cancelled, made primitive again."""
    g = gcd(pivot[c], row[c])
    a, b = pivot[c] // g, row[c] // g
    out = dict(row) if a == 1 else {j: a * x for j, x in row.items()}
    for j, x in pivot.items():
        v = out.get(j, 0) - b * x
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out) if out else out


def extend_to_basis(base: list[Vector], candidates: list[Vector]) -> list[Vector]:
    """The candidates that extend `base` to an independent family, in input order.

    One rref of the column matrix [base | candidates]: a column is a pivot
    exactly when it is outside the span of the columns before it, so the
    pivot candidates are the ones a greedy rank-increase test would keep.
    """
    if not candidates:
        return []
    _, pivots = Matrix.from_columns(base + candidates).rref()
    k = len(base)
    return [candidates[j - k] for j in pivots if j >= k]


class DegreeCohomology:
    """Cohomology of a cochain complex C^{p-1} -> C^p -> C^{p+1} at C^p.

    `n_in` and `n` are the dimensions of C^{p-1} and C^p; `d_in` and `d_out`
    are the coboundaries into and out of C^p as sparse rows, None where the
    neighbouring group is zero, and `rank_in`, `rank_out` their ranks (0 for
    None), so `betti` costs no elimination.  `trace` reads a symmetry's trace
    off the cocycle kernels Z^p and Z^{p-1}, each built once, when first
    traced, from the sparse reduced echelon form of its coboundary.  Only the
    ring code reads a basis: the representatives, built when first read,
    extend a basis of the coboundaries (pivot columns of `d_in`) by cocycles
    taken in order from the nullspace basis of `d_out`, and only these bases
    see the coboundaries as dense matrices.
    """

    def __init__(
        self, n_in: int, n: int, d_in: list | None, d_out: list | None, rank_in: int, rank_out: int
    ):
        self.n_in = n_in
        self.n = n
        self.d_in = d_in
        self.d_out = d_out
        self.rank_in = rank_in
        self.rank_out = rank_out
        self.betti = n - rank_in - rank_out

    @cached_property
    def _cocycles(self) -> "_Cocycles":
        return _Cocycles(self.d_out, self.n, self.rank_out)

    @cached_property
    def _cocycles_in(self) -> "_Cocycles":
        return _Cocycles(self.d_in, self.n_in, self.rank_in)

    def trace(self, action: list[tuple[int, int]], action_in: list[tuple[int, int]]) -> Fraction:
        """Trace on H^p of a symmetry acting on C^p by `action` and on C^{p-1}
        by `action_in`, both signed permutations commuting with the coboundaries.

        tr(g | H^p) = tr(g | Z^p) - tr(g | B^p), and B^p = d(C^{p-1}) is
        C^{p-1}/Z^{p-1}, so tr(g | B^p) = tr(g | C^{p-1}) - tr(g | Z^{p-1});
        the trace on C^{p-1} is the sum of the signs of the fixed cells.
        """
        fixed_in = sum(sign for j, (target, sign) in enumerate(action_in) if target == j)
        return self._cocycles.trace(action) - fixed_in + self._cocycles_in.trace(action_in)

    @cached_property
    def image_basis(self) -> list[Vector]:
        return _dense(self.d_in, self.n_in).column_space_basis() if self.d_in is not None else []

    @cached_property
    def representatives(self) -> list[Vector]:
        cocycles = (
            _dense(self.d_out, self.n).nullspace() if self.d_out is not None
            else [unit_vec(self.n, i) for i in range(self.n)]
        )
        reps = extend_to_basis(self.image_basis, cocycles)
        if len(reps) != self.betti:
            raise OracleMismatch(
                f"{len(reps)} cohomology representatives, but the ranks give {self.betti}"
            )
        return reps

    @cached_property
    def _coordinate_rows(self) -> list[dict[int, Fraction]]:
        """Rows of a left inverse of P = [image_basis | representatives] that
        read off the representative coordinates of a vector in the span of P.

        One rref of [P | I_n] gives E·[P | I_n] with E·P = [I_k; 0] (P has full
        column rank k), and E sits in the last n columns.
        """
        basis = self.image_basis + self.representatives
        k = len(basis)
        red, _ = Matrix.from_columns(
            basis + [unit_vec(self.n, i) for i in range(self.n)], nrows=self.n
        ).rref()
        return [
            {j: x for j, x in enumerate(red.data[r][k:]) if x}
            for r in range(len(self.image_basis), k)
        ]

    def project(self, cochain) -> Vector:
        """Coordinates of a cocycle in the representative basis, mod coboundaries."""
        if self.betti == 0:
            return ()
        if self.d_out is not None and any(_dot(row, cochain) for row in self.d_out):
            # every cochain projected is built by the program, so this is its fault
            raise OracleMismatch("projection of a non-cocycle")
        return tuple(_dot(row, cochain) for row in self._coordinate_rows)


class _Cocycles:
    """The kernel of a coboundary d on n columns (everything where d is None),
    with d's columns kept for checking that a symmetry maps it to itself."""

    def __init__(self, d: list[dict[int, int]] | None, n: int, rank_d: int):
        self.basis = kernel_basis(d or [], n)
        if len(self.basis) != n - rank_d:
            raise OracleMismatch(
                f"{len(self.basis)} independent cocycles, but the rank gives {n - rank_d}"
            )
        self.columns: dict[int, list[tuple[int, int]]] = {}
        for r, row in enumerate(d or []):
            for j, x in row.items():
                self.columns.setdefault(j, []).append((r, x))

    def trace(self, action: list[tuple[int, int]]) -> Fraction:
        """Σ over free columns f of the f-entry of g·v_f: the coordinates of a
        cocycle in this basis are its free entries, so no solve is needed."""
        total = Fraction(0)
        for f, v in self.basis.items():
            moved: dict[int, Fraction] = {}
            for j, x in v.items():
                target, sign = action[j]
                moved[target] = moved.get(target, 0) + sign * x
            image: dict[int, Fraction] = {}
            for j, x in moved.items():
                for r, y in self.columns.get(j, ()):
                    image[r] = image.get(r, 0) + y * x
            if any(image.values()):
                # every action traced is built by the program, so this is its fault
                raise OracleMismatch("a symmetry maps a cocycle to a non-cocycle")
            total += moved.get(f, 0)
        return total


def _dense(rows: list[dict[int, int]], cols: int) -> Matrix:
    return Matrix(len(rows), cols, [[row.get(j, 0) for j in range(cols)] for row in rows])


def _dot(row: dict[int, Fraction | int], v: Sequence) -> Fraction:
    return sum((x * v[j] for j, x in row.items()), Fraction(0))


def apply_signed(action: list[tuple[int, int]], v: Sequence) -> Vector:
    """The image of `v` under the map sending basis element j to sign · e_target."""
    out = [Fraction(0)] * len(action)
    for (target, sign), x in zip(action, v):
        out[target] += sign * x
    return tuple(out)


def cochain_cohomology(
    dims: dict[int, int], coboundaries: dict[int, list[dict[int, int]]]
) -> dict[int, DegreeCohomology]:
    """Cohomology at every degree p of a cochain complex with dim C^p = dims[p]
    and d_p = coboundaries[p] : C^p -> C^{p+1} (absent where C^{p+1} is zero).

    Each coboundary is ranked once; its rank serves both degrees next to it.
    """
    ranks = {p: rank(d) for p, d in coboundaries.items()}
    return {
        p: DegreeCohomology(
            dims.get(p - 1, 0), n, coboundaries.get(p - 1), coboundaries.get(p),
            ranks.get(p - 1, 0), ranks.get(p, 0),
        )
        for p, n in sorted(dims.items())
    }
