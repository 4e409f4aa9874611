"""Symmetric-group characters, induction and stable decompositions.

Two independent induction routes exist on purpose: character inner products
at a fixed rank m (class fusion through a Young subgroup), and the
horizontal-strip rule symbolically for all m.  Stability statements are
exactly the assertion that the second route is the eventual truth, so the two
must agree wherever both apply and the test suite enforces that.  The
commands take the strips to Σ_m; the fusion all the way to Σ_m, which only
that check reads, lives with the tests (`tests/oracles.py`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import factorial, lcm, prod

from .errors import CapExceeded, NotACharacter, ValidationError
from .perms import Permutation
from .records import FrozenRecord

Partition = tuple[int, ...]

BRUTE_CAP = 8


def _check_partition(p: Partition) -> None:
    if any(a <= 0 for a in p) or any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValidationError(f"{p} is not a partition")


def partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise ValidationError("partitions of a negative integer")
    out: list[Partition] = []

    def rec(rest: int, largest: int, prefix: tuple[int, ...]):
        if rest == 0:
            out.append(prefix)
            return
        for part in range(min(rest, largest), 0, -1):
            rec(rest - part, part, prefix + (part,))

    rec(n, n if n else 0, ())
    return out


def z_order(lam: Partition) -> int:
    """Centraliser order z_λ = Π i^{m_i} m_i! of the class with cycle type λ."""
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    return prod(i**m * factorial(m) for i, m in mult.items())


def class_size(lam: Partition) -> int:
    _check_partition(lam)
    return factorial(sum(lam)) // z_order(lam)


def hook_dim(lam: Partition) -> int:
    """Dimension of the irreducible labelled by λ, by the hook length formula."""
    _check_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    cols = _conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    return factorial(n) // hooks


def _conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a > j) for j in range(lam[0]))


def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value χ_λ(μ) by the border-strip recursion."""
    _check_partition(lam)
    _check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValidationError(f"character of mismatched sizes: {lam} and {mu}")
    return _strip_sum(_beta_set(lam), tuple(mu))


def _beta_set(lam: Partition) -> tuple[int, ...]:
    """The beta numbers λ_i + ℓ - i of λ, decreasing; none is 0 for a partition."""
    ell = len(lam)
    return tuple(part + ell - 1 - i for i, part in enumerate(lam))


@lru_cache(maxsize=None)
def _strip_sum(betas: tuple[int, ...], mu: Partition) -> int:
    """χ_λ(μ) for λ given by its beta set, with no zero part.

    Removing a border strip of length k lowers one beta number by k onto a
    free value, with sign (-1)^(numbers jumped).
    """
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    total = 0
    for i, b in enumerate(betas):
        low = b - k
        if low < 0 or low in betas:
            continue
        j = i + 1
        while j < len(betas) and betas[j] > low:
            j += 1
        lowered = betas[:i] + betas[i + 1 : j] + (low,) + betas[j:]
        # trailing beta numbers 0, 1, …, zeros - 1 are zero parts: drop them,
        # so that each partition has one cache key
        zeros = 0
        while zeros < len(lowered) and lowered[-1 - zeros] == zeros:
            zeros += 1
        if zeros:
            lowered = tuple(x - zeros for x in lowered[: len(lowered) - zeros])
        term = _strip_sum(lowered, rest)
        total += -term if (j - i - 1) % 2 else term
    return total


# -- class functions on Σ_n --------------------------------------------------


class ClassFunction(FrozenRecord):
    """Rational class function on Σ_n, stored over cycle types."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: tuple[tuple[Partition, Fraction], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_dict(cls, n: int, values: dict[Partition, Fraction]) -> "ClassFunction":
        classes = partitions(n)
        missing = [mu for mu in classes if mu not in values]
        if missing:
            raise ValidationError(f"missing classes {missing[:3]}")
        return cls(n, tuple((mu, Fraction(values[mu])) for mu in classes))

    def as_dict(self) -> dict[Partition, Fraction]:
        return dict(self.values)

    def add(self, other: "ClassFunction") -> "ClassFunction":
        if self.n != other.n:
            raise ValidationError("rank mismatch")
        o = other.as_dict()
        return ClassFunction(
            self.n, tuple((mu, v + o[mu]) for mu, v in self.values)
        )


def decompose(chi: ClassFunction) -> dict[Partition, int]:
    """Multiplicities ⟨χ, χ_λ⟩ = Σ_μ |C_μ| χ(μ) χ_λ(μ) / n!, in `partitions`
    order; aborts if any is negative or non-integral."""
    weights = [(mu, class_size(mu) * val) for mu, val in chi.values if val]
    # integer weights over one common denominator: the sums over μ run in integers
    den = lcm(*(w.denominator for _, w in weights))
    weights = [(mu, int(w * den)) for mu, w in weights]
    den *= factorial(chi.n)
    out: dict[Partition, int] = {}
    for lam in partitions(chi.n):
        betas = _beta_set(lam)
        c = Fraction(sum(w * _strip_sum(betas, mu) for mu, w in weights), den)
        if c.denominator != 1 or c < 0:
            raise NotACharacter(
                f"multiplicity of {lam} is {c}; the class function is not a character"
            )
        if c:
            out[lam] = int(c)
    return out


def induce_to_sym(
    h_elements: list[Permutation],
    chi_h: dict[Permutation, Fraction],
    cap: int = BRUTE_CAP,
) -> ClassFunction:
    """Induce a character of an explicit subgroup H ≤ Σ_n to Σ_n by class fusion.

    Ind χ(μ) = z_μ / |H| · Σ over h in H of cycle type μ of χ(h).  The
    element-by-element reference for `induce_from_young`; no scan calls it.
    """
    if not h_elements:
        raise ValidationError("empty subgroup")
    n = h_elements[0].degree
    if n > cap:
        raise CapExceeded(f"degree {n} exceeds the explicit-subgroup cap {cap}")
    elems = set(h_elements)
    if len(elems) != len(h_elements):
        raise ValidationError("duplicate subgroup elements")
    # full closure check when cheap, a fixed-prefix probe otherwise
    probe = h_elements if len(h_elements) <= 400 else h_elements[:40]
    for a in probe:
        for b in h_elements:
            if a * b not in elems:
                raise ValidationError("subgroup elements are not closed")
    order = len(h_elements)
    sums: dict[Partition, Fraction] = {mu: Fraction(0) for mu in partitions(n)}
    for h in h_elements:
        sums[h.cycle_type()] += chi_h[h]
    values = {
        mu: Fraction(z_order(mu), order) * sums[mu] for mu in sums
    }
    return ClassFunction.from_dict(n, values)


YoungClass = tuple[Partition, ...]


def young_classes(blocks: tuple[int, ...]) -> list[YoungClass]:
    """Conjugacy classes of the Young subgroup Σ_{c_1} × … × Σ_{c_k}, one
    partition of each block size c_j."""
    return list(product(*(partitions(c) for c in blocks)))


def induce_from_young(blocks: tuple[int, ...], chi: dict[YoungClass, Fraction]) -> ClassFunction:
    """Induce a class function of the Young subgroup Π_j Σ_{c_j} ≤ Σ_b to Σ_b.

    The class (μ_j) holds Π_j c_j!/z_{μ_j} elements, all of cycle type
    ν = ∪_j μ_j, so class fusion gives
        Ind χ(ν) = z_ν · Σ over the (μ_j) with union ν of χ(μ_j) / Π_j z_{μ_j}.
    """
    n = sum(blocks)
    sums = {nu: Fraction(0) for nu in partitions(n)}
    for mus in young_classes(blocks):
        nu = tuple(sorted(chain.from_iterable(mus), reverse=True))
        sums[nu] += chi[mus] / young_centraliser_order(mus)
    return ClassFunction.from_dict(n, {nu: z_order(nu) * total for nu, total in sums.items()})


def young_centraliser_order(mus: YoungClass) -> int:
    """Order Π_j z_{μ_j} of the centraliser of the class (μ_j) in its Young subgroup."""
    return prod(z_order(mu) for mu in mus)


def pieri_induce(mu: Partition, m: int) -> list[Partition]:
    """Partitions of m obtained from μ by adding a horizontal strip.

    These are the constituents, each with multiplicity one, of the induction
    of V_μ ⊠ trivial from Σ_{|μ|} × Σ_{m-|μ|} to Σ_m.
    """
    _check_partition(mu)
    b = sum(mu)
    if m < b:
        raise ValidationError("m smaller than the partition")
    # rows 2.. of λ interlace μ; row 1 takes the remainder
    tails: list[tuple[int, ...]] = [()]
    for i in range(1, len(mu) + 1):
        lo = mu[i] if i < len(mu) else 0
        hi = mu[i - 1]
        tails = [t + (v,) for t in tails for v in range(lo, hi + 1)]
    out = []
    for tail in tails:
        tail = tuple(a for a in tail if a > 0)
        first = m - sum(tail)
        if (mu and first < mu[0]) or (tail and first < tail[0]) or first < 0:
            continue
        lam = (first,) + tail if first else tail
        out.append(lam)
    return sorted(set(out), reverse=True)


def weight(decomposition: dict[Partition, int]) -> int:
    """Largest base-partition size among constituents, in padded coordinates:
    each partition λ of m keyed by its base λ[1:] (`hochster.padded_table`)."""
    sizes = [sum(base) for base, mult in decomposition.items() if mult]
    return max(sizes, default=0)
