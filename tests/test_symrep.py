from fractions import Fraction
from itertools import permutations as iter_permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from macstab.errors import NotACharacter, ValidationError
from macstab.perms import Permutation
from macstab.symrep import (
    decompose,
    hook_dim,
    induce_from_young,
    induce_to_sym,
    mn_character,
    partitions,
    pieri_induce,
    weight,
    young_classes,
    z_order,
)

from oracles import (
    character_table_by_projection,
    class_size,
    hook_dim_by_hooks,
    induce_young,
    inner_product,
    irreducible_character,
    natural_permutation_character,
    perm_module_character,
    regular_character,
)


def test_partition_generation():
    assert partitions(0) == [()]
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions(7)) == 15


def test_class_size_and_hooks():
    assert class_size((2, 1, 1)) == 6  # transpositions in rank 4
    assert class_size((4,)) == 6
    assert hook_dim((3, 1)) == 3
    for m in range(2, 8):
        assert hook_dim((m - 1, 1)) == m - 1


def test_mn_trivial_and_sign():
    for n in range(1, 7):
        for mu in partitions(n):
            assert mn_character((n,), mu) == 1
            sign = (-1) ** sum(part - 1 for part in mu)
            assert mn_character((1,) * n, mu) == sign


@pytest.mark.parametrize(
    "lam, mu",
    [((2, 1), (2, 2)), ((3,), (1, 1)), ((1, 2), (2, 1)), ((2, 1), (1, 2)),
     ((2, 0, 1), (3,)), ((3,), (3, 0)), ((2, -1, 2), (3,)), ((-3,), (-3,))],
)
def test_mn_rejects_mismatched_or_malformed_input(lam, mu):
    with pytest.raises(ValidationError):
        mn_character(lam, mu)


def test_mn_standard_value():
    assert mn_character((2, 1), (1, 1, 1)) == 2
    assert mn_character((2, 1), (2, 1)) == 0
    assert mn_character((2, 1), (3,)) == -1


def test_hook_dim_matches_the_hook_length_formula():
    for n in range(15):
        for lam in partitions(n):
            assert hook_dim(lam) == hook_dim_by_hooks(lam), lam


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_mn_matches_projection_table(n):
    # brute-force route through permutation modules, no border strips involved
    table = character_table_by_projection(n)
    for lam in partitions(n):
        for mu in partitions(n):
            assert table[lam][mu] == mn_character(lam, mu)


@pytest.mark.parametrize("n", range(1, 8))
def test_column_orthogonality(n):
    classes = partitions(n)
    for mu in classes:
        for nu in classes:
            s = sum(mn_character(lam, mu) * mn_character(lam, nu) for lam in classes)
            assert s == (z_order(mu) if mu == nu else 0)


@pytest.mark.parametrize("n", range(1, 8))
def test_dim_squares_sum_to_group_order(n):
    assert sum(hook_dim(lam) ** 2 for lam in partitions(n)) == factorial(n)


def test_perm_module_character_values():
    assert perm_module_character((2, 2), (1, 1, 1, 1)) == 6
    assert perm_module_character((2, 2), (2, 2)) == 2
    assert perm_module_character((3, 1), (2, 1, 1)) == 2


def test_decompose_examples():
    assert decompose(regular_character(3)) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    for m in (3, 5, 6):
        assert decompose(natural_permutation_character(m)) == {(m,): 1, (m - 1, 1): 1}
    # a class left out counts as 0: the regular character is its identity class alone
    assert decompose({(1, 1, 1): Fraction(6)}) == decompose(regular_character(3))
    assert decompose({}) == {}


def test_decompose_swap_character_on_two_points():
    # the rank-2 action on the reduced cohomology of two swapped points
    from oracles import character_on_cohomology
    from macstab.perms import enumerate_group
    from macstab.simplicial import skeleton

    K = skeleton(2, 0)
    swap = Permutation.from_cycles(2, (1, 2))
    traces = character_on_cohomology(K, frozenset(K.vertices),
                                     enumerate_group([swap]), 0)
    chi = {g.cycle_type(): traces[g] for g in traces}
    assert decompose(chi) == {(1, 1): 1}


@given(st.data())
def test_decompose_recovers_random_characters(data):
    n = data.draw(st.integers(1, 7))
    coeffs = {lam: data.draw(st.integers(0, 3)) for lam in partitions(n)}
    irreducibles = {lam: irreducible_character(lam) for lam in coeffs}
    chi = {mu: sum(c * irreducibles[lam][mu] for lam, c in coeffs.items())
           for mu in partitions(n)}
    expected = {lam: c for lam, c in coeffs.items() if c}
    assert decompose(chi) == expected
    assert {lam: inner_product(chi, irreducible_character(lam)) for lam in expected} == expected
    # off by 1/2 at one class, or a negative coefficient: not a character
    mu = data.draw(st.sampled_from(partitions(n)))
    with pytest.raises(NotACharacter):
        decompose({**chi, mu: chi[mu] + Fraction(1, 2)})
    lam = data.draw(st.sampled_from(partitions(n)))
    negative = {nu: chi[nu] - (coeffs[lam] + 1) * irreducibles[lam][nu] for nu in chi}
    with pytest.raises(NotACharacter):
        decompose(negative)


def test_decompose_rejects_non_characters():
    vals = {mu: Fraction(0) for mu in partitions(3)}
    vals[(1, 1, 1)] = Fraction(1)
    vals[(3,)] = Fraction(1, 2)
    with pytest.raises(NotACharacter):
        decompose(vals)


def test_induce_to_sym_examples():
    # inducing the full group back is the identity on characters
    n = 3
    elements = [Permutation(p) for p in iter_permutations(range(1, n + 1))]
    chi = {g: Fraction(mn_character((2, 1), g.cycle_type())) for g in elements}
    ind = induce_to_sym(elements, chi)
    assert decompose(ind) == {(2, 1): 1}
    # trivial character of the trivial subgroup induces the regular character
    ident = Permutation.identity(3)
    ind = induce_to_sym([ident], {ident: Fraction(1)})
    assert ind == regular_character(3)
    # order-2 subgroup of rank 4, signed character: induced dimension 12
    g = Permutation.from_cycles(4, (1, 3), (2, 4))
    ind = induce_to_sym([Permutation.identity(4), g],
                        {Permutation.identity(4): Fraction(1), g: Fraction(-1)})
    assert ind[(1, 1, 1, 1)] == 12


@pytest.mark.parametrize("blocks", [(1,), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1)])
def test_induce_from_young_matches_the_explicit_subgroup(blocks):
    # Σ_{c_1} × … × Σ_{c_k} on consecutive points, every element listed
    starts = [sum(blocks[:j]) for j in range(len(blocks))]
    elements, classes = [], []
    for pieces in product(*(iter_permutations(range(1, c + 1)) for c in blocks)):
        images = tuple(s + x for s, piece in zip(starts, pieces) for x in piece)
        elements.append(Permutation(images))
        classes.append(tuple(Permutation(piece).cycle_type() for piece in pieces))
    for lams in product(*(partitions(c) for c in blocks)):
        def chi(mus):
            return Fraction(prod(mn_character(lam, mu) for lam, mu in zip(lams, mus)))

        explicit = induce_to_sym(elements, {h: chi(mus) for h, mus in zip(elements, classes)})
        by_class = induce_from_young(blocks, {mus: chi(mus) for mus in young_classes(blocks)})
        assert by_class == explicit, f"{lams} on blocks {blocks}"
        assert list(by_class) == list(explicit) == partitions(sum(blocks))
        # integer traces still give exact values: no division falls back to a float
        for induced in (
            induce_to_sym(elements, {h: int(chi(mus)) for h, mus in zip(elements, classes)}),
            induce_from_young(blocks, {mus: int(chi(mus)) for mus in young_classes(blocks)}),
        ):
            assert induced == explicit
            assert all(type(v) is Fraction for v in induced.values())


def test_pieri_examples():
    assert pieri_induce((1,), 5) == [(5,), (4, 1)]
    for m in (5, 6, 9):
        assert pieri_induce((1,), m) == [(m,), (m - 1, 1)]
    assert set(pieri_induce((2, 1), 5)) == {(4, 1), (3, 2), (3, 1, 1), (2, 2, 1)}
    assert sum(hook_dim(lam) for lam in pieri_induce((2, 1), 5)) == 20
    assert pieri_induce((), 4) == [(4,)]


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_induction_routes_agree(b):
    """Class fusion through an explicit Young subgroup against horizontal strips."""
    for mu in partitions(b):
        for m in range(b, 10):
            elements = []
            chi = {}
            for top in iter_permutations(range(1, b + 1)):
                for rest in iter_permutations(range(b + 1, m + 1)):
                    g = Permutation(tuple(top) + tuple(rest))
                    elements.append(g)
                    small = Permutation(tuple(top))
                    chi[g] = Fraction(mn_character(mu, small.cycle_type()))
            ind = induce_to_sym(elements, chi, cap=10)
            strips = {lam: 1 for lam in pieri_induce(mu, m)}
            assert decompose(ind) == strips


def test_induce_young_matches_explicit():
    psi = irreducible_character((2, 1))
    ind = induce_young(psi, 6)
    assert decompose(ind) == {lam: 1 for lam in pieri_induce((2, 1), 6)}


def test_weight():
    assert weight({}) == 0
    assert weight({(): 1}) == 0
    assert weight({(1,): 1, (1, 1): 1}) == 2
    table = {lam[1:]: 1 for lam in pieri_induce((2, 1), 7)}
    assert weight(table) == 3
