"""Consistent families of symmetric-group complexes and stability scans.

A family produces, for every rank m, a complex whose indexed vertices use
exactly the indices 1..m together with the index action of Σ_m, and embeds
into the next rank by label identity.  Scans certify multiplicity
stabilization and polynomial Betti growth over a finite window only; they
never claim anything beyond the scanned range.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, prod
from typing import TYPE_CHECKING

from .documents import expect, parse_complex, parse_int, read_json
from .errors import ValidationError
from .hochster import SpherePair, nonzero_summands, orbit_summands, padded_table
from .perms import (
    DEFAULT_SUBSET_CAP,
    DEFAULT_SUPPORT_CAP,
    PermGroup,
    fibre_blocks,
    is_g_complex,
    pattern_orbit_reps,
    support_split,
)
from .records import FrozenRecord
from .simplicial import (
    SimplicialComplex,
    join,
    skeleton,
    vc_cube_dual,
)

if TYPE_CHECKING:  # symrep is imported by the multiplicity scan alone
    from .symrep import Partition


class Family(FrozenRecord):
    """A family spec: K_m is `build(m, *args)` under the index action of Σ_m; equal
    when its fields are (a custom family builds through a closure over its file).

    Each K_m is closed under Σ_m: the built-ins by construction, a custom file
    by the check at load.  The checks and scans rely on this and test it no more.
    """

    __slots__ = ("description", "build", "args")

    def __init__(self, description: str, build, args: tuple = ()):
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "build", build)
        object.__setattr__(self, "args", args)

    def instantiate(self, m: int) -> tuple[SimplicialComplex, PermGroup]:
        if m < 1:
            raise ValidationError("family rank must be >= 1")
        return self.build(m, *self.args), PermGroup.symmetric(m)

    def memoised(self) -> Family:
        """The same family, building each K_m once for as long as it lives."""
        return Family(self.description, lru_cache(self.build), self.args)


def join_of_skeleta(m: int, *ks: int) -> SimplicialComplex:
    """The join of the k-skeleta on the indices 1..m, one for each k in `ks`."""
    return reduce(join, (skeleton(m, k) for k in ks))


def parse_family(spec: str) -> Family:
    """skeleton:k | join:k1,k2,... | vccube | custom:FILE ('-' for stdin)."""
    kind, _, arg = spec.partition(":")
    if spec == "vccube":
        return Family(spec, vc_cube_dual)
    if kind == "custom":
        return _load_custom(arg)
    if kind not in ("skeleton", "join"):
        raise ValidationError(f"unknown family {spec!r}")
    try:
        ks = tuple(int(x) for x in ([arg] if kind == "skeleton" else arg.split(",")))
    except ValueError:
        raise ValidationError(f"family {spec!r}: expected integers after ':'") from None
    if kind == "skeleton":
        if ks[0] < -1:
            raise ValidationError(f"family {spec!r}: need k >= -1")
        return Family(f"skeleton:{ks[0]}", skeleton, ks)
    if any(k < 0 for k in ks):
        raise ValidationError(f"family {spec!r}: need skeleton dimensions >= 0")
    return Family("join:" + ",".join(map(str, ks)), join_of_skeleta, ks)


def _load_custom(path: str) -> Family:
    """The family of a JSON file {"name": ..., "complexes": {m: complex document}}."""
    data = expect(read_json(path), dict, f"custom family {path!r}")
    complexes = {}
    for key, doc in expect(data.get("complexes", {}), dict, f"{path!r}: 'complexes'").items():
        m = parse_int(key, f"{path!r}: rank")
        where = f"{path!r}: the complex for m={m}"
        try:
            K, _ = parse_complex(doc)
        except ValidationError as err:
            raise ValidationError(f"{where}: {err}") from None
        if any(v.index is not None and not 1 <= v.index <= m for v in K.vertices):
            raise ValidationError(f"{where} uses indices outside 1..{m}")
        # scans enumerate Σ_m-orbits; a complex Σ_m does not preserve gives wrong sums
        if not is_g_complex(K, PermGroup.symmetric(m)):
            raise ValidationError(f"{where} is not closed under Σ_{m}")
        complexes[m] = K
    name = data.get("name", path)
    if not isinstance(name, str):
        raise ValidationError(f"{path!r}: 'name' must be a string, not {name!r}")

    def build(m: int) -> SimplicialComplex:
        if m not in complexes:
            raise ValidationError(f"custom family {path!r} has no complex for m={m}")
        return complexes[m]

    return Family(f"custom:{name}", build)


# -- structural checks --------------------------------------------------------


def _rank(f: Family, m: int, check: str) -> SimplicialComplex:
    """K_m for a check that reads rank m, which may lie outside the window it
    is given; a missing rank names the check."""
    try:
        return f.instantiate(m)[0]
    except ValidationError as err:
        raise ValidationError(f"{check} reads rank {m}: {err}") from None


def check_consistent(f: Family, m_range, cap: int = DEFAULT_SUBSET_CAP) -> bool:
    """Each K_m includes into K_{m+1}: its vertices, and one facet per Σ_m-orbit.

    K_{m+1} is closed under Σ_{m+1}, which holds Σ_m, so a facet lies in it
    exactly when its orbit representative does, and the inclusions commute
    with Σ_m with nothing more to check.
    """
    for m in m_range:
        K, _ = f.instantiate(m)
        K_next = _rank(f, m + 1, "consistency")
        if not set(K.vertices) <= set(K_next.vertices):
            return False
        reps = pattern_orbit_reps(K, m, K.dim + 1, cap)
        if not all(K_next.has_face(J) for J in reps if J in K.facets):
            return False
    return True


def _reps_of_size(f: Family, size: int, d: int, m_range, cap: int):
    """(K_m, J) for each Σ_m-orbit representative J of `size` vertices, at each rank m >= d.

    K_m and K_d are Σ-closed (the `Family` contract), so a subset at rank m is
    Σ_m-equivalent to one from rank d exactly when its representative, on the
    indices 1..b, is one from rank d: the stability checks search no relabelling.
    """
    for m in m_range:
        if m >= d:
            Km, _ = f.instantiate(m)
            for J in pattern_orbit_reps(Km, m, size, cap):
                if len(J) == size:
                    yield Km, J


def check_r_vertex_stable(
    f: Family, r: int, d: int, m_range, cap: int = DEFAULT_SUBSET_CAP
) -> bool:
    """Every (r+1)-vertex collection at rank m is Σ_m-equivalent to one from rank d."""
    vd = set(_rank(f, d, f"vertex stability at r={r}").vertices)
    return all(J <= vd for _, J in _reps_of_size(f, r + 1, d, m_range, cap))


def check_r_face_stable(
    f: Family, r: int, d: int, m_range, cap: int = DEFAULT_SUBSET_CAP
) -> bool:
    """Every r-face at rank m is Σ_m-equivalent to an r-face from rank d."""
    Kd = _rank(f, d, f"face stability at r={r}")
    return all(
        Kd.has_face(J) for Km, J in _reps_of_size(f, r + 1, d, m_range, cap) if Km.has_face(J)
    )


def check_stabiliser_consistent(
    f: Family, J, m_range, support_cap: int = DEFAULT_SUPPORT_CAP
) -> bool:
    """stab(J, m) = (finite part on the support) × Σ_{m-b} with b = |support|.

    J must be a vertex subset at every rank m >= b of the window.  The finite
    part, the b! elements of Sym(support) that fix J, is listed once and
    counted against the Young subgroup of J's fibres, Π_S c_S!, that the
    scans take it to be.  The complement holds by construction: a
    permutation of the indices outside the support moves no vertex of J.
    """
    Jw = frozenset(J)
    b = len({v.index for v in Jw if v.index is not None})
    ranks = {m: f.instantiate(m)[0] for m in m_range if m >= b}
    if not all(Jw <= set(K.vertices) for K in ranks.values()):
        return False
    if not ranks:
        return True
    B = max(ranks)
    support, finite_part, _ = support_split(Jw, ranks[B], B, support_cap)
    return len(finite_part) == prod(factorial(len(s)) for s in fibre_blocks(Jw, support))


# -- scans ---------------------------------------------------------------------


class PolynomialFit:
    __slots__ = ("degree", "coefficients", "onset_m")

    def __init__(self, degree: int, coefficients: tuple[Fraction, ...], onset_m: int):
        self.degree = degree
        self.coefficients = coefficients  # ascending powers of m
        self.onset_m = onset_m

    def predict(self, m: int) -> Fraction:
        acc = Fraction(0)
        for k, c in enumerate(self.coefficients):
            acc += c * m**k
        return acc


class StabilityScanReport:
    __slots__ = ("tables", "onset", "certified", "weight", "betti", "diff_table", "fit")

    def __init__(self):
        self.tables: dict[int, dict[Partition, int]] = {}
        self.onset: int | None = None
        self.certified = False
        self.weight = 0
        self.betti: dict[int, int] = {}
        self.diff_table: list[list[int]] | None = None
        self.fit: PolynomialFit | None = None


def betti_at_degree(
    K: SimplicialComplex, pair: SpherePair, i: int, group: PermGroup,
    cap: int = DEFAULT_SUBSET_CAP,
) -> int:
    """b_i alone, over orbit representatives pruned by the vanishing bound.

    `group` is the index action of Σ_m, which preserves K (the `Family`
    contract); its orbits are listed by fibre pattern.
    """
    orbits = pattern_orbit_reps(K, group.degree, pair.max_subset_size(i), cap)
    return sum(orbits[rep] * dim for rep, _, dim in nonzero_summands(K, pair, i, orbits))


def multiplicity_scan(
    f: Family,
    pair: SpherePair,
    i: int,
    m_range,
    support_cap: int = DEFAULT_SUPPORT_CAP,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    characters: bool = True,
) -> StabilityScanReport:
    """Padded multiplicity tables over a window, with the observed onset, and
    the growth of b_i(m) over it.

    Stabilization is certified only within the window: the onset is the least
    scanned m from which the padded tables stay constant to the end.  Each
    rank's orbits are listed once, by fibre pattern, and give both its table
    and b_i(m); a summand met at several ranks is computed once.  Without
    `characters` each rank gives b_i(m) alone, by `betti_at_degree`, and the
    report has no tables, onset or weight.
    """
    if characters and pair.d < 1:
        raise ValidationError("multiplicity scans need a sphere of dimension >= 1")
    ms = sorted(set(m_range))
    if not ms:
        raise ValidationError("empty scan range")
    report = StabilityScanReport()

    for m in ms:
        K, G = f.instantiate(m)
        if not characters:
            report.betti[m] = betti_at_degree(K, pair, i, G, subset_cap)
            continue
        summands = orbit_summands(K, pair, i, m, support_cap, subset_cap)
        report.tables[m] = padded_table(summands, m)
        report.betti[m] = sum(s.orbit_size * s.dim for s in summands)
    values = list(report.betti.values())
    report.fit = _fit_tail(ms, values)
    report.diff_table = _difference_table(values)
    if characters:
        from .symrep import weight as table_weight

        last = report.tables[ms[-1]]
        for m in reversed(ms):
            if report.tables[m] != last:
                break
            report.onset = m
        report.certified = report.onset < ms[-1]
        report.weight = table_weight(last)
    return report


def _difference_table(values: list[int]) -> list[list[int]]:
    rows = [list(values)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append([b - a for a, b in zip(prev, prev[1:])])
    return rows


def _fit_tail(ms: list[int], values: list[int]) -> PolynomialFit | None:
    for s in range(len(ms)):
        seq = values[s:]
        if len(seq) < 2:
            break
        rows = _difference_table(seq)
        for t in range(len(rows) - 1):
            row = rows[t + 1]
            if row and all(x == 0 for x in row):
                coeffs = _newton_to_monomial(ms[s], [r[0] for r in rows[: t + 1]])
                fit = PolynomialFit(degree=t, coefficients=coeffs, onset_m=ms[s])
                if all(fit.predict(m) == v for m, v in zip(ms[s:], seq)):
                    return fit
    return None


def _newton_to_monomial(m0: int, leading_diffs: list[int]) -> tuple[Fraction, ...]:
    """Exact coefficients of Σ_k Δ^k · C(m - m0, k) as a polynomial in m,
    by Horner's rule on the Newton form: poly · (m - m0 - k) + Δ^k / k!."""
    poly: list[Fraction] = []
    for k in reversed(range(len(leading_diffs))):
        shifted = [Fraction(0)] + poly  # poly · m
        for j, c in enumerate(poly):
            shifted[j] -= (m0 + k) * c
        shifted[0] += Fraction(leading_diffs[k], factorial(k))
        poly = shifted
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


def betti_growth(
    f: Family,
    pair: SpherePair,
    i: int,
    m_range,
    cap: int = DEFAULT_SUBSET_CAP,
) -> tuple[PolynomialFit | None, list[int], list[list[int]]]:
    """Exact finite-difference detection of eventually polynomial b_i(m).

    Returns (fit or None, the scanned values, the difference table).  The fit
    interpolates a maximal suffix of the window with zero residual; None means
    the window does not yet certify polynomiality.
    """
    report = multiplicity_scan(f, pair, i, m_range, subset_cap=cap, characters=False)
    return report.fit, list(report.betti.values()), report.diff_table
