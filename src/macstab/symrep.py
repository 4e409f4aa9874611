"""Symmetric-group characters, induction and stable decompositions.

Two independent induction routes exist on purpose: character inner products
at a fixed rank m (class fusion through a Young subgroup), and the
horizontal-strip rule symbolically for all m.  Stability statements are
exactly the assertion that the second route is the eventual truth, so the two
must agree wherever both apply and the test suite enforces that.  The
commands take the strips to Σ_m; the fusion all the way to Σ_m, which only
that check reads, lives with the tests (`tests/oracles.py`).

A class function of Σ_n is a plain dict {cycle type: value}, as each Young-
class trace, each induction and `decompose` use it: keys in `partitions(n)`
order, values exact `Fraction`s; a class left out counts as 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, product
from math import factorial, lcm, prod

from .errors import CapExceeded, NotACharacter, ValidationError
from .perms import Permutation

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


def hook_dim(lam: Partition) -> int:
    """Dimension of the irreducible labelled by λ, n! Π_{i<j}(β_i - β_j) / Π_i β_i!
    on the beta numbers β of λ (Frobenius's form of the hook length formula)."""
    _check_partition(lam)
    mask = _beta_mask(lam)
    betas = [b for b in range(mask.bit_length()) if mask >> b & 1]
    vandermonde = prod(b - a for a, b in combinations(betas, 2))
    return factorial(sum(lam)) * vandermonde // prod(map(factorial, betas))


def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value χ_λ(μ) by the border-strip recursion."""
    _check_partition(lam)
    _check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValidationError(f"character of mismatched sizes: {lam} and {mu}")
    return _strip_sum(_beta_mask(lam), tuple(mu), {})


def _beta_mask(lam: Partition) -> int:
    """The beta numbers λ_i + ℓ - 1 - i of λ as the set bits of one int; bit 0
    is clear for a partition, which has no zero part."""
    ell = len(lam)
    return sum(1 << (part + ell - 1 - i) for i, part in enumerate(lam))


def _strip_sum(betas: int, mu: Partition, memo: dict[Partition, dict[int, int]]) -> int:
    """χ_λ(μ) for λ given by its beta mask, memoised in `memo` as
    {μ: {beta mask: value}}: each entry keys on one int.

    Removing a border strip of length k moves one set bit down k places onto
    a clear bit, with sign (-1)^(set bits jumped).
    """
    if not mu:
        return 1
    values = memo.setdefault(mu, {})
    if betas in values:
        return values[betas]
    k, rest = mu[0], mu[1:]
    jumped = (1 << (k - 1)) - 1
    total = 0
    landing = betas >> k & ~betas  # bit b - k, for each set bit b with b - k clear
    while landing:
        bit = landing & -landing
        landing ^= bit
        x = betas ^ bit ^ (bit << k)
        # trailing set bits are zero parts: shift them out, one key per partition
        x >>= (~x & (x + 1)).bit_length() - 1
        term = _strip_sum(x, rest, memo)
        total += -term if (betas >> bit.bit_length() & jumped).bit_count() % 2 else term
    values[betas] = total
    return total


# -- class functions on Σ_n --------------------------------------------------

# χ(μ) by cycle type μ, keyed in `partitions(n)` order
ClassFunction = dict[Partition, Fraction]


def decompose(chi: ClassFunction) -> dict[Partition, int]:
    """Multiplicities ⟨χ, χ_λ⟩ = Σ_μ χ(μ) χ_λ(μ) / z_μ, in `partitions` order;
    aborts if any is negative or non-integral.  A class left out of χ counts
    as 0, so `{}` decomposes to `{}`."""
    n = sum(next(iter(chi), ()))
    weights = [(mu, Fraction(val, z_order(mu))) for mu, val in chi.items() if val]
    # integer weights over one common denominator: the sums over μ run in integers
    den = lcm(*(w.denominator for _, w in weights))
    weights = [(mu, int(w * den)) for mu, w in weights]
    memo: dict[Partition, dict[int, int]] = {}
    out: dict[Partition, int] = {}
    for lam in partitions(n):
        betas = _beta_mask(lam)
        c = Fraction(sum(w * _strip_sum(betas, mu, memo) for mu, w in weights), den)
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
    return {mu: Fraction(z_order(mu), order) * total for mu, total in sums.items()}


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
        sums[nu] += Fraction(chi[mus], young_centraliser_order(mus))
    return {nu: z_order(nu) * total for nu, total in sums.items()}


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
