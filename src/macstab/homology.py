"""Reduced simplicial cohomology over Q, with induced maps of symmetries.

The cochain complex is augmented: degree -1 is spanned by the dual of the
empty face, so the complex {∅} has reduced cohomology k in degree -1 and a
single point has none anywhere.  Orientations come from the global vertex
order; the action of a permutation g on a basis cochain picks up the sign of
the permutation that re-sorts the image vertex tuple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ValidationError
from .linalg import DegreeCohomology, Matrix, Vector, apply_signed, cochain_cohomology
from .perms import Permutation, act_on_subset, action_sign
from .simplicial import SimplicialComplex, full_subcomplex


def coboundaries(K: SimplicialComplex) -> dict[int, list[dict[int, int]]]:
    """d_p : C^p -> C^{p+1} for p = -1 .. dim-1 of the augmented complex, one
    {index of τ minus its j-th vertex: (-1)^j} row per (p+1)-face τ."""
    out = {}
    for p in range(-1, K.dim):
        pos = {f: i for i, f in enumerate(K.faces_of_dim(p))}
        out[p] = [
            {pos[tau - {v}]: (-1) ** j for j, v in enumerate(sorted(tau))}
            for tau in K.faces_of_dim(p + 1)
        ]
    return out


class CohomologyBasis:
    """Per-degree dimensions and representative cocycles of H̃^*(K; Q)."""

    def __init__(self, K: SimplicialComplex):
        self.complex = K
        self.degrees: dict[int, DegreeCohomology] = cochain_cohomology(
            K.face_counts(), coboundaries(K)
        )

    def dim(self, p: int) -> int:
        data = self.degrees.get(p)
        return data.betti if data else 0

    def dims(self) -> dict[int, int]:
        return {p: d.betti for p, d in self.degrees.items() if d.betti}

    def representatives(self, p: int) -> list[Vector]:
        data = self.degrees.get(p)
        return data.representatives if data else []

    def project(self, p: int, cochain) -> Vector:
        data = self.degrees.get(p)
        if data is None:
            return ()
        return data.project(cochain)


@lru_cache(maxsize=None)
def reduced_cohomology(K: SimplicialComplex) -> CohomologyBasis:
    return CohomologyBasis(K)


def cochain_action(g: Permutation, K: SimplicialComplex, p: int) -> list[tuple[int, int]]:
    """σ* ↦ ε(g,σ)(g·σ)* on C^p of K, as (index of g·σ, ε(g,σ)) per p-face σ."""
    faces = K.faces_of_dim(p)
    pos = {f: i for i, f in enumerate(faces)}
    action = []
    for sigma in faces:
        img = frozenset(g.act_vertex(v) for v in sigma)
        if img not in pos:
            raise ValidationError("image face missing from the complex")
        action.append((pos[img], action_sign(g, sigma)))
    return action


def induced_cohomology_map(
    g: Permutation, K: SimplicialComplex, J, p: int
) -> Matrix:
    """Matrix of g* on H̃^p(K_J) in the representative basis; g must fix J setwise."""
    Jw = frozenset(J)
    if act_on_subset(g, Jw, K) != Jw:
        raise ValidationError("element does not stabilise J")
    basis = reduced_cohomology(full_subcomplex(K, Jw))
    b = basis.dim(p)
    if b == 0:
        return Matrix(0, 0)
    action = cochain_action(g, basis.complex, p)
    cols = [basis.project(p, apply_signed(action, z)) for z in basis.representatives(p)]
    return Matrix.from_columns(cols, nrows=b)


def character_on_cohomology(
    K: SimplicialComplex, J, stab_elements, p: int
) -> dict[Permutation, Fraction]:
    """Trace of each stabilising element on H̃^p(K_J).

    The result is checked to be constant on conjugacy classes of the supplied
    element list, as far as conjugation stays inside the list.
    """
    traces = {h: induced_cohomology_map(h, K, J, p).trace() for h in stab_elements}
    elems = set(stab_elements)
    for h in stab_elements:
        for x in stab_elements:
            conj = x * h * x.inverse()
            if conj in elems and traces[conj] != traces[h]:
                raise ValidationError("trace is not constant on conjugacy classes")
    return traces


def lefschetz_cochain_sum(K: SimplicialComplex, g: Permutation) -> Fraction:
    """Alternating trace of g on the augmented cochain groups."""
    basis = reduced_cohomology(K)
    total = Fraction(0)
    for p in sorted(basis.degrees):
        action = cochain_action(g, K, p)
        trace = sum(sign for j, (target, sign) in enumerate(action) if target == j)
        total += (-1 if p % 2 else 1) * trace
    return total


def lefschetz_cohomology_sum(K: SimplicialComplex, g: Permutation) -> Fraction:
    """Alternating trace of g on reduced cohomology; equals the cochain sum."""
    basis = reduced_cohomology(K)
    total = Fraction(0)
    for p in sorted(basis.degrees):
        if basis.dim(p) == 0:
            continue
        mat = induced_cohomology_map(g, K, frozenset(K.vertices), p)
        total += (-1 if p % 2 else 1) * mat.trace()
    return total


def euler_check(K: SimplicialComplex) -> bool:
    """Reduced Euler characteristic from face counts equals the cohomology one."""
    basis = reduced_cohomology(K)
    coh = sum(
        (-1 if p % 2 else 1) * basis.dim(p) for p in basis.degrees
    )
    return coh == K.euler_characteristic_reduced()
