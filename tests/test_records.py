"""Frozen records are values: equal and hashed by their fields, closed to assignment."""

import pytest

from macstab.families import Family, join_of_skeleta, parse_family
from macstab.hochster import SpherePair
from macstab.perms import PermGroup, Permutation
from macstab.simplicial import Vertex, skeleton

def _points(m):  # the builder of a custom family, fixed so that two records share it
    return skeleton(m, 0)


def _family_cases(make):
    """A family afresh on each call, and records differing from it in its
    description, its builder and its arguments."""
    f = make()
    return make, [
        Family(f.description + "!", f.build, f.args),
        Family(f.description, join_of_skeleta if f.build is skeleton else skeleton, f.args),
        Family(f.description, f.build, f.args + (0,)),
    ]


# type: (a record built afresh on each call, records differing from it in one field each)
CASES = {
    Vertex: (lambda: Vertex(1, 0), [Vertex(2, 0), Vertex(1, 1), Vertex(None, 0)]),
    Permutation: (lambda: Permutation((2, 1, 3)), [Permutation((1, 2, 3))]),
    PermGroup: (lambda: PermGroup.cyclic(3), [PermGroup.symmetric(3), PermGroup.cyclic(4)]),
    SpherePair: (lambda: SpherePair(1), [SpherePair(2)]),
    # one case per kind of family; the key only names the case
    "Family-skeleton": _family_cases(lambda: parse_family("skeleton:1")),
    "Family-join": _family_cases(lambda: parse_family("join:0,0")),
    "Family-vccube": _family_cases(lambda: parse_family("vccube")),
    "Family-custom": _family_cases(lambda: Family("custom:points", _points)),
}


@pytest.mark.parametrize(
    "make, others", CASES.values(), ids=[getattr(t, "__name__", t) for t in CASES]
)
def test_frozen_record_is_a_value(make, others):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    for other in others:
        assert a != other and not a == other
    for name in (*type(a).__slots__, "added"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b
