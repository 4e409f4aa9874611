"""Exact rational linear algebra.

Small dense matrices over Q with arbitrary-precision entries
(``fractions.Fraction``); no floating point anywhere.  Rank is computed by
fraction-free (Bareiss) elimination on an integer-scaled copy so intermediate
swell stays polynomial; kernels, images and solves use plain rational
row reduction, which is exact and fast at the sizes this package handles.
`DegreeCohomology` is the one cohomology kernel that both the split pipeline
(`homology`) and the cellular model (`cellular`) build on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import ValidationError

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

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
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

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

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

    def mul_vec(self, v: Sequence) -> Vector:
        if self.cols != len(v):
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(
            sum((a * Fraction(x) for a, x in zip(row, v)), Fraction(0))
            for row in self.data
        )

    def rank(self) -> int:
        return _bareiss_rank(self)

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


def _bareiss_rank(m: Matrix) -> int:
    """Rank via fraction-free elimination on an integer-scaled copy."""
    if m.rows == 0 or m.cols == 0:
        return 0
    a: list[list[int]] = []
    for row in m.data:
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        a.append([int(x * denom) for x in row])
    rows, cols = m.rows, m.cols
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        piv = a[r][c]
        for i in range(r + 1, rows):
            if all(x == 0 for x in a[i]):
                continue
            for j in range(cols):
                if j == c:
                    continue
                a[i][j] = (piv * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = piv
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


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

    `n` is the dimension of C^p; `d_in` and `d_out` are the coboundaries into
    and out of it, None where the neighbouring group is zero.  The
    representatives extend a basis of the coboundaries (pivot columns of
    `d_in`) by cocycles taken in order from the nullspace basis of `d_out`.
    """

    def __init__(self, n: int, d_in: Matrix | None, d_out: Matrix | None):
        self.n = n
        self.d_out = d_out
        cocycles = (
            d_out.nullspace() if d_out is not None
            else [unit_vec(n, i) for i in range(n)]
        )
        self.image_basis = d_in.column_space_basis() if d_in is not None else []
        self.representatives = extend_to_basis(self.image_basis, cocycles)
        self.betti = len(self.representatives)
        self._proj: Matrix | None = None

    def project(self, cochain) -> Vector:
        """Coordinates of a cocycle in the representative basis, mod coboundaries."""
        if self.betti == 0:
            return ()
        if self.d_out is not None and any(self.d_out.mul_vec(cochain)):
            raise ValidationError("projection of a non-cocycle")
        if self._proj is None:
            cols = self.image_basis + self.representatives
            self._proj = Matrix.from_columns(cols, nrows=self.n)
        sol = self._proj.solve(cochain)
        if sol is None:
            raise ValidationError("cochain is not in the cocycle span")
        return sol[len(self.image_basis):]
