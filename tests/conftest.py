from collections import Counter

import pytest

from macstab.perms import PermGroup
from macstab.simplicial import SimplicialComplex, Vertex


@pytest.fixture(scope="session")
def square():
    """Boundary of a square: 4-cycle 1-2-3-4 on indexed vertices."""
    v = {i: Vertex(i) for i in range(1, 5)}
    edges = [(1, 2), (2, 3), (3, 4), (4, 1)]
    return SimplicialComplex(
        v.values(), [frozenset({v[a], v[b]}) for a, b in edges]
    )


@pytest.fixture(scope="session")
def c4():
    return PermGroup.cyclic(4)


def _composes_to_zero(outer, inner):
    """outer ∘ inner == 0, both given as sparse {column: entry} rows."""
    for row in outer:
        total = Counter()
        for k, x in row.items():
            for j, y in inner[k].items():
                total[j] += x * y
        if any(total.values()):
            return False
    return True


@pytest.fixture(scope="session")
def composes_to_zero():
    """Checks d∘d = 0 on maps in the program's sparse-row format."""
    return _composes_to_zero
