"""Constructive shrink/extend witnesses for nonnegative decomposable vectors.

Given a normalized nonnegative decomposable grade-k element, ``shrink_*``
produces a contained grade-(k-1) element and ``extend_*`` a containing
grade-(k+1) element, preserving nonnegativity; the ``*_positive`` variants
keep strict positivity by an explicit epsilon construction, with epsilon
found by exact geometric halving.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .exterior import (
    MultiVector,
    SignClass,
    classify_sign,
    normalize,
    wedge,
    wedge_all,
)
from .plucker import require_chamber_vector, spanning_vectors

__all__ = [
    "EpsilonSearch",
    "EpsilonExhausted",
    "shrink_nonneg",
    "shrink_positive",
    "extend_nonneg",
    "extend_positive",
]


class EpsilonExhausted(RuntimeError):
    """The epsilon halving search ran out of iterations.

    Sufficiently small epsilon always works, so hitting this indicates a bug
    or a far too small iteration budget.
    """


@dataclass(frozen=True)
class EpsilonSearch:
    """Halving schedule for the 'sufficiently small epsilon' searches."""

    initial: Fraction = Fraction(1, 2)
    max_iterations: int = 64

    def __post_init__(self):
        if not 0 < self.initial <= 1:
            raise ValueError("initial epsilon must lie in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")

    def values(self):
        eps = Fraction(self.initial)
        for _ in range(self.max_iterations):
            yield eps
            eps /= 2


def _search(cfg: EpsilonSearch, candidate) -> MultiVector:
    """First epsilon in the schedule whose candidate is strictly positive."""
    for eps in cfg.values():
        result = candidate(eps)
        if classify_sign(result) is SignClass.POSITIVE:
            return normalize(result)
    raise EpsilonExhausted(
        f"no positive candidate after {cfg.max_iterations} halvings"
    )


def shrink_nonneg(mv: MultiVector, *, validate: bool = True) -> MultiVector:
    """Nonnegative nonzero grade-(k-1) element contained in ``mv``.

    Row-reduce the plane so the first spanning vector is e_j plus higher
    columns (j the least index in the support); dropping it leaves a
    nonnegative wedge of the remaining rows.
    """
    if validate:
        require_chamber_vector(mv)
    if mv.k < 1:
        raise ValueError("cannot shrink a grade-0 element")
    if mv.k == 1:
        return MultiVector.scalar(mv.n, 1)
    rows = spanning_vectors(mv).rows
    return normalize(wedge_all([MultiVector.from_vector(r) for r in rows[1:]]))


def _all_hyperplane_vector(n: int) -> MultiVector:
    """Sum of every grade-(n-1) basis element; positive and decomposable."""
    from itertools import combinations

    coeffs = {key: Fraction(1) for key in combinations(range(1, n + 1), n - 1)}
    return normalize(MultiVector(n, n - 1, coeffs))


def _completion_row(plane_rows, partial_rows):
    """First plane row extending ``partial_rows`` to an independent family."""
    base = list(partial_rows)
    base_rank = linalg.rank(base) if base else 0
    for row in plane_rows:
        if linalg.rank(base + [row]) > base_rank:
            return row
    raise AssertionError("no completion row found; plane dimensions are off")


def _proportionality(a: MultiVector, b: MultiVector) -> Fraction:
    """Scalar c with a = c * b, for proportional nonzero multivectors."""
    key = b.support()[0]
    return a.coefficient(key) / b.coefficient(key)


def shrink_positive(
    mv: MultiVector, cfg: EpsilonSearch = EpsilonSearch(), *, validate: bool = True
) -> MultiVector:
    """Strictly positive grade-(k-1) element contained in ``mv``.

    Recursive construction: for grade 2 take eps*(e_1+v_1) + v_2; above that,
    refactor the tail wedge so its own tail is positive (recursion one grade
    and one dimension down) and combine per
    (eps*w_2 + w_3) ^ (-eps^2*(e_1+v_1) + w_3) ^ w_4 ^ ... ^ w_k.
    """
    if validate:
        require_chamber_vector(mv, positive=True)
    n, k = mv.n, mv.k
    if k == 1:
        return MultiVector.scalar(n, 1)
    if k == n:
        return _all_hyperplane_vector(n)

    rows = spanning_vectors(mv).rows
    first = MultiVector.from_vector(rows[0])  # e_1 + v_1, no earlier columns
    tail = [MultiVector.from_vector(r) for r in rows[1:]]

    if k == 2:
        return _search(cfg, lambda eps: first * eps + tail[0])

    # Tail wedge is positive away from index 1; recurse in R^(n-1).
    tail_wedge = normalize(wedge_all(tail))
    inner = shrink_positive(
        tail_wedge.shift(-1), cfg, validate=False
    ).shift(+1, n=n)

    tail_plane = spanning_vectors(tail_wedge).rows
    w_rest = [list(r) for r in spanning_vectors(inner).rows]
    # Fix the sign so the wedge of the chosen rows is positively
    # proportional to the recursive witness.
    rest_wedge = wedge_all([MultiVector.from_vector(r) for r in w_rest])
    if _proportionality(rest_wedge, inner) < 0:
        w_rest[0] = [-x for x in w_rest[0]]
        rest_wedge = -rest_wedge

    w2 = list(_completion_row(tail_plane, [tuple(r) for r in w_rest]))
    if _proportionality(
        wedge(MultiVector.from_vector(w2), rest_wedge), tail_wedge
    ) < 0:
        w2 = [-x for x in w2]

    w2_mv = MultiVector.from_vector(w2)
    w3_mv = MultiVector.from_vector(w_rest[0])
    later = [MultiVector.from_vector(r) for r in w_rest[1:]]

    def candidate(eps: Fraction) -> MultiVector:
        factors = [w2_mv * eps + w3_mv, first * (-eps * eps) + w3_mv]
        factors.extend(later)
        return wedge_all(factors)

    return _search(cfg, candidate)


def _least_omitted_index(mv: MultiVector) -> int:
    """Smallest index missing from at least one support set."""
    for j in range(1, mv.n + 1):
        if any(j not in key for key in mv._ints):
            return j
    raise ValueError("every index lies in every support set; is the grade n?")


def extend_nonneg(mv: MultiVector, *, validate: bool = True) -> MultiVector:
    """Nonnegative nonzero grade-(k+1) element containing ``mv``.

    Wedges on e_j for the least index j omitted by some support set; every
    smaller index lies in every support set, which makes the sign uniform.
    """
    if validate:
        require_chamber_vector(mv)
    if mv.k >= mv.n:
        raise ValueError("cannot extend a top-grade element")
    j = _least_omitted_index(mv)
    sign = -1 if (j - 1) % 2 else 1
    return normalize(wedge(MultiVector.basis(mv.n, (j,)), mv) * sign)


def extend_positive(
    mv: MultiVector, cfg: EpsilonSearch = EpsilonSearch(), *, validate: bool = True
) -> MultiVector:
    """Strictly positive grade-(k+1) element containing ``mv``.

    Induction on the ambient dimension: the part of ``mv`` away from index 1
    is positive one dimension down; a recursively extended witness supplies a
    direction v with v ^ omega_2 positive, and (e_1 + eps*v) ^ mv works for
    small eps.
    """
    if validate:
        require_chamber_vector(mv, positive=True)
    n, k = mv.n, mv.k
    if k >= n:
        raise ValueError("cannot extend a top-grade element")
    if n == k + 1:
        return MultiVector.basis(n, range(1, n + 1))

    away = MultiVector._of_ints(
        n, k, {key: c for key, c in mv._ints.items() if 1 not in key}, mv._den
    )
    away_small = normalize(away.shift(-1))
    bigger = extend_positive(away_small, cfg, validate=False).shift(+1, n=n)

    away_plane = spanning_vectors(away).rows
    candidate_row = _completion_row(spanning_vectors(bigger).rows, list(away_plane))
    u = MultiVector.from_vector(candidate_row)
    scale = _proportionality(wedge(u, away), bigger)
    v = u / scale  # v ^ away = bigger, positive away from index 1

    e1 = MultiVector.basis(n, (1,))
    return _search(cfg, lambda eps: wedge(e1 + v * eps, mv))
