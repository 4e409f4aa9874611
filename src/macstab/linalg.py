"""Exact rational linear algebra.

A coboundary is a list of sparse integer rows, one {column: ±1} dict per
row, and a symmetry acts on cochains as a signed permutation, one (target
index, sign) pair per basis element.  One elimination routine serves every
read: rows are reduced fraction-free over the integers against an echelon
form keyed by leading column, each divided by the gcd of its entries after
every step (`_reduce`).  `CochainComplex` is the one cohomology kernel that
both the split pipeline (`homology`) and the cellular model (`cellular`)
build on.  Its dimensions come from ranks alone, its traces from the cocycle
kernels, and its representatives and zero test from one sparse echelon form
of the coboundaries; each is computed when first read.  No dense matrix is
built on any command's path.  The dense `Matrix` over Q
(``fractions.Fraction``; no floating point anywhere) and `extend_to_basis`
are the tests' reference for that sparse code.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .errors import OracleMismatch

Vector = tuple[int | Fraction, ...]  # exact entries, never a float


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

    Rows are reduced one at a time against the pivot rows kept so far, and
    each remainder that is left is kept.  Every pivot row is primitive with a
    positive leading entry.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        _keep(pivots, _reduce(row, pivots))
    return pivots


def _reduce(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> dict[int, int]:
    """`row` reduced against the pivot rows, each keyed by its least column,
    until it vanishes or leads with a column that none of them leads with."""
    while row:
        c = min(row)
        pivot = pivots.get(c)
        if pivot is None:
            break
        row = _eliminate(row, pivot, c)
    return row


def _keep(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> None:
    """Add a reduced row, if non-zero, to the pivot rows."""
    if row:
        c = min(row)
        # a positive leading entry makes ±1 pivots cancel without scaling
        pivots[c] = row if row[c] > 0 else {j: -x for j, x in row.items()}


def kernel_basis(rows: list[dict[int, int]], n: int) -> dict[int, dict[int, int | Fraction]]:
    """A basis of the kernel of sparse integer rows on n columns, one sparse
    vector per free column f of the reduced echelon form: 1 at f and 0 at
    every other free column, so a kernel vector's coordinate along it is its
    f-entry.  The free columns come in increasing order.  An entry is an
    `int` where its pivot divides it, a `Fraction` otherwise.
    """
    pivots = _echelon(rows)
    # back-substitute from the last pivot: each row then vanishes at every
    # pivot column but its own, and its other entries sit at free columns
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for c2 in sorted(j for j in row if j != c and j in pivots):
            row = _eliminate(row, pivots[c2], c2)
        pivots[c] = row
    basis = {f: {f: 1} for f in range(n) if f not in pivots}
    for c, row in pivots.items():
        lead = row[c]
        for f, x in row.items():
            if f != c:
                q, r = divmod(-x, lead)
                basis[f][c] = Fraction(-x, lead) if r else q
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


class CochainComplex:
    """A cochain complex over Q with dim C^p = cochain_dims[p] and
    d_p = coboundary(p) : C^p -> C^{p+1} as sparse integer rows, one per
    basis element of C^{p+1} (asked for only where C^p and C^{p+1} are both
    non-zero).

    Everything is computed when first read and kept, the coboundaries too.
    A coboundary's rank serves both degrees next to it, so `dim(p)` builds
    and ranks two coboundaries and no basis, and a negative dimension is the
    rank's fault.
    `trace` reads a symmetry's trace off the cocycle kernels Z^p and Z^{p-1}.
    Only the ring code reads a basis: the representatives are the kernel
    vectors of d_p that stay outside the coboundaries B^p and the ones kept
    before them, and `is_coboundary` tests a cocycle against B^p; both reduce
    against one sparse echelon form of B^p.  Each read checks itself against
    the ranks, and a fault found there is the program's (`OracleMismatch`).
    """

    def __init__(
        self,
        cochain_dims: dict[int, int],
        coboundary: Callable[[int], list[dict[int, int]]],
    ):
        self.cochain_dims = cochain_dims
        self._build_coboundary = coboundary
        self._coboundaries: dict[int, list[dict[int, int]] | None] = {}
        self._ranks: dict[int, int] = {}
        self._kernels: dict[int, _Cocycles] = {}
        self._images: dict[int, dict[int, dict[int, int]]] = {}
        self._representatives: dict[int, list[Vector]] = {}

    def coboundary(self, p: int) -> list[dict[int, int]] | None:
        """The rows of d_p, built on first read; None unless C^p and C^{p+1}
        are both non-zero."""
        if p not in self._coboundaries:
            built = p in self.cochain_dims and p + 1 in self.cochain_dims
            self._coboundaries[p] = self._build_coboundary(p) if built else None
        return self._coboundaries[p]

    def rank(self, p: int) -> int:
        if p not in self._ranks:
            d = self.coboundary(p)
            self._ranks[p] = rank(d) if d is not None else 0
        return self._ranks[p]

    def dim(self, p: int) -> int:
        if p not in self.cochain_dims:
            return 0
        n = self.cochain_dims[p]
        dim = n - self.rank(p - 1) - self.rank(p)
        if dim < 0:
            # rank(d_{p-1}) + rank(d_p) <= n for any complex, so this is the rank's fault
            raise OracleMismatch(f"the ranks next to degree {p} exceed its {n} cochains")
        return dim

    def dims(self) -> dict[int, int]:
        """The non-zero cohomology dimensions, by degree."""
        dims = {p: self.dim(p) for p in sorted(self.cochain_dims)}
        return {p: b for p, b in dims.items() if b}

    def _cocycles(self, p: int) -> "_Cocycles":
        if p not in self._kernels:
            self._kernels[p] = _Cocycles(
                self.coboundary(p), self.cochain_dims.get(p, 0), self.rank(p)
            )
        return self._kernels[p]

    def trace(
        self, p: int, action: list[tuple[int, int]], action_in: list[tuple[int, int]]
    ) -> Fraction:
        """Trace on H^p of a symmetry acting on C^p by `action` and on C^{p-1}
        by `action_in`, both signed permutations commuting with the coboundaries.

        tr(g | H^p) = tr(g | Z^p) - tr(g | B^p), and B^p = d(C^{p-1}) is
        C^{p-1}/Z^{p-1}, so tr(g | B^p) = tr(g | C^{p-1}) - tr(g | Z^{p-1});
        the trace on C^{p-1} is the sum of the signs of the fixed cells.
        """
        fixed_in = sum(sign for j, (target, sign) in enumerate(action_in) if target == j)
        return self._cocycles(p).trace(action) - fixed_in + self._cocycles(p - 1).trace(action_in)

    def _image(self, p: int) -> dict[int, dict[int, int]]:
        """A sparse echelon form of B^p, whose rows are the columns of d_{p-1}."""
        if p not in self._images:
            self._images[p] = _echelon(_columns(self.coboundary(p - 1)).values())
        return self._images[p]

    def representatives(self, p: int) -> list[Vector]:
        """Cocycles whose classes are a basis of H^p: the kernel vectors of d_p,
        in free-column order, that are independent modulo B^p of the ones
        kept before them (the greedy choice of `extend_to_basis`)."""
        if p not in self._representatives:
            n = self.cochain_dims.get(p, 0)
            spanned = dict(self._image(p))
            reps = []
            for v in self._cocycles(p).basis.values():
                vector = tuple(v.get(j, 0) for j in range(n))
                rest = _reduce(_integer_row(vector), spanned)
                if rest:
                    reps.append(vector)
                    _keep(spanned, rest)
            if len(reps) != self.dim(p):
                raise OracleMismatch(
                    f"{len(reps)} cohomology representatives, but the ranks give {self.dim(p)}"
                )
            self._representatives[p] = reps
        return self._representatives[p]

    def is_coboundary(self, p: int, cochain: Sequence) -> bool:
        """Whether a cocycle of degree p is a coboundary, so zero in H^p."""
        d = self.coboundary(p)
        if d is not None and any(_dot(row, cochain) for row in d):
            # every cochain tested is built by the program, so this is its fault
            raise OracleMismatch("a non-cocycle reached the zero test in cohomology")
        return not _reduce(_integer_row(cochain), self._image(p))


class _Cocycles:
    """The kernel of a coboundary d on n columns (everything where d is None),
    with d's columns kept for checking that a symmetry maps it to itself."""

    def __init__(self, d: list[dict[int, int]] | None, n: int, rank_d: int):
        self.basis = kernel_basis(d or [], n)
        if len(self.basis) != n - rank_d:
            raise OracleMismatch(
                f"{len(self.basis)} independent cocycles, but the rank gives {n - rank_d}"
            )
        self.columns = _columns(d)

    def trace(self, action: list[tuple[int, int]]) -> Fraction:
        """Σ over free columns f of the f-entry of g·v_f: the coordinates of a
        cocycle in this basis are its free entries, so no solve is needed.
        The sums stay in integers until an entry is a `Fraction`."""
        total = 0
        for f, v in self.basis.items():
            moved: dict[int, int | Fraction] = {}
            for j, x in v.items():
                target, sign = action[j]
                moved[target] = moved.get(target, 0) + sign * x
            image: dict[int, int | Fraction] = {}
            for j, x in moved.items():
                for r, y in self.columns.get(j, {}).items():
                    image[r] = image.get(r, 0) + y * x
            if any(image.values()):
                # every action traced is built by the program, so this is its fault
                raise OracleMismatch("a symmetry maps a cocycle to a non-cocycle")
            total += moved.get(f, 0)
        return Fraction(total)


def _columns(d: list[dict[int, int]] | None) -> dict[int, dict[int, int]]:
    """The columns of sparse rows, each as a sparse {row: entry} vector."""
    columns: dict[int, dict[int, int]] = {}
    for r, row in enumerate(d or []):
        for j, x in row.items():
            columns.setdefault(j, {})[r] = x
    return columns


def _dot(row: dict[int, Fraction | int], v: Sequence) -> Fraction:
    return sum((x * v[j] for j, x in row.items()), Fraction(0))


def apply_signed(action: list[tuple[int, int]], v: Sequence) -> Vector:
    """The image of `v` under the map sending basis element j to sign · e_target."""
    out = [Fraction(0)] * len(action)
    for (target, sign), x in zip(action, v):
        out[target] += sign * x
    return tuple(out)
