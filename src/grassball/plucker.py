"""Planes as spanning matrices, decomposable multivectors, and their duality.

Converts between k-planes in R^n (full-rank k x n rational matrices) and the
decomposable grade-k elements whose coefficients are the k x k minors, tests
decomposability and plane containment exactly, and computes the orthogonal
complement with respect to the alternating-sign form Q.

Decomposability and planes both come from the annihilator of a nonzero
k-vector mv, the solution space of v ^ mv = 0: it has dimension at most k,
with equality iff mv is decomposable, and then it is the plane of mv
(Harris, Algebraic Geometry: A First Course, Lecture 6).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Mapping, Sequence

from . import linalg
from .exterior import GradeError, MultiVector, SignClass, classify_sign

__all__ = [
    "PlaneMatrix",
    "RankError",
    "DecomposabilityError",
    "plucker_of_matrix",
    "is_decomposable",
    "spanning_vectors",
    "contains",
    "q_orthocomplement",
    "canonical_scale",
]


class RankError(ValueError):
    """Raised when a spanning matrix is rank-deficient."""


class DecomposabilityError(ValueError):
    """Raised when an operation needs a decomposable input and does not get one."""


class PlaneMatrix:
    """k spanning vectors of a k-plane in R^n, as rows of exact rationals."""

    __slots__ = ("rows", "k", "n")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not rows:
            raise ValueError("a plane needs at least one spanning vector")
        widths = {len(row) for row in rows}
        if len(widths) != 1:
            raise ValueError("ragged spanning matrix")
        self._fill(rows)
        if linalg.rank(rows) != self.k:
            raise RankError(f"spanning matrix has rank below {self.k}")

    def _fill(self, rows: tuple) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "k", len(rows))
        object.__setattr__(self, "n", len(rows[0]))

    @classmethod
    def _of_rref(cls, rows: Sequence[tuple]) -> "PlaneMatrix":
        """The plane of the nonzero rows of an RREF, as ``linalg.rref``
        returns them: their entries are ``Fraction`` already and their
        pivots make them independent, so nothing is converted or checked."""
        plane = cls.__new__(cls)
        plane._fill(tuple(rows))
        return plane

    def __setattr__(self, name, value):
        raise AttributeError("PlaneMatrix is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaneMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        return f"PlaneMatrix({[[str(x) for x in row] for row in self.rows]})"

    def row_vectors(self) -> list[MultiVector]:
        return [MultiVector.from_vector(row) for row in self.rows]

    def to_json_dict(self) -> dict:
        return {"rows": [[str(x) for x in row] for row in self.rows]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PlaneMatrix":
        return cls([[Fraction(str(x)) for x in row] for row in data["rows"]])

    @classmethod
    def from_json(cls, text: str) -> "PlaneMatrix":
        return cls.from_json_dict(json.loads(text))


def plucker_of_matrix(matrix: PlaneMatrix) -> MultiVector:
    """Decomposable k-vector whose e_A coefficient is the minor on columns A."""
    coeffs = {}
    for cols in combinations(range(1, matrix.n + 1), matrix.k):
        minor = linalg.det([[row[c - 1] for c in cols] for row in matrix.rows])
        if minor:
            coeffs[cols] = minor
    return MultiVector(matrix.n, matrix.k, coeffs)


def _annihilator_rows(mv: MultiVector) -> list[list[int]]:
    """Integer rows of the linear system v ^ mv = 0, one per (k+1)-subset it
    touches.

    The e_T coefficient of v ^ mv is the sum over positions p of i = T[p] of
    (-1)^p * v_i * mv[T without i].  The coefficients are first scaled by the
    lcm of their denominators: v ^ (c mv) = c (v ^ mv), so a nonzero scale
    leaves the solution space unchanged, and the rows come out as integers.
    """
    if mv.is_zero():
        raise ValueError("the zero multivector has no well-defined plane")
    den = lcm(*[c.denominator for c in mv.coeffs.values()])
    coeffs = {
        key: c.numerator * (den // c.denominator) for key, c in mv.coeffs.items()
    }
    rows = []
    for target in combinations(range(1, mv.n + 1), mv.k + 1):
        row = [0] * mv.n
        hit = False
        for pos, i in enumerate(target):
            c = coeffs.get(target[:pos] + target[pos + 1 :])
            if c is not None:
                row[i - 1] = -c if pos & 1 else c
                hit = True
        if hit:
            rows.append(row)
    return rows


def is_decomposable(mv: MultiVector) -> bool:
    """Exact decomposability test by the annihilator criterion.

    For a nonzero k-vector mv, {v : v ^ mv = 0} has dimension at most k, with
    equality iff mv is a single wedge of vectors (Harris, Algebraic Geometry:
    A First Course, Lecture 6); so mv is decomposable iff the rows of that
    system have rank n - k.
    """
    return linalg.rank(_annihilator_rows(mv)) == mv.n - mv.k


def spanning_vectors(mv: MultiVector) -> PlaneMatrix:
    """Canonical reduced-row-echelon spanning matrix of a decomposable element.

    The plane of mv is {v : v ^ mv = 0}, and mv is decomposable iff that
    space has dimension k (see ``is_decomposable``).  The pivot columns are
    the lexicographically first independent set, so the first pivot is the
    least index appearing in the support.  A nonzero scalar spans the zero
    plane, which has no spanning matrix, so grade 0 raises ``GradeError``.
    """
    kernel = linalg.kernel_basis(_annihilator_rows(mv), mv.n)
    if len(kernel) != mv.k:
        raise DecomposabilityError("input does not factor as a single wedge")
    if mv.k == 0:
        raise GradeError(
            "a nonzero scalar spans the zero plane, which has no spanning vectors"
        )
    reduced, _ = linalg.rref(kernel)
    return PlaneMatrix._of_rref(reduced)


def contains(lower: MultiVector, upper: MultiVector) -> bool:
    """True iff the plane of ``lower`` is a subspace of the plane of ``upper``."""
    if lower.k > upper.k:
        return False
    if lower.k == 0:
        if lower.is_zero():
            raise ValueError("the zero multivector has no well-defined plane")
        return True
    low = spanning_vectors(lower)
    high = spanning_vectors(upper)
    if low.n != high.n:
        raise GradeError(f"ambient mismatch: {low.n} vs {high.n}")
    stacked = list(high.rows) + list(low.rows)
    return linalg.rank(stacked) == upper.k


def canonical_scale(mv: MultiVector) -> MultiVector:
    """Scale convention for plane representatives.

    Normalized (coefficient sum 1) when the sum is nonzero, otherwise scaled
    so the lexicographically first nonzero coefficient equals +1.
    """
    if mv.is_zero():
        return mv
    total = mv.coefficient_sum()
    if total != 0:
        return mv / total
    return mv / mv.coeffs[mv.support()[0]]


def q_orthocomplement(mv: MultiVector) -> MultiVector:
    """Decomposable (n-k)-vector of the Q-orthogonal complement plane.

    Q on R^n is the diagonal form with entries (+1, -1, +1, ...); the induced
    map on planes reverses inclusions.  The complement of the zero plane (a
    nonzero scalar) is all of R^n.
    """
    if mv.k >= mv.n:
        raise GradeError("the Q-complement of a full plane is the zero plane")
    if mv.k == 0:
        if mv.is_zero():
            raise ValueError("the zero multivector has no well-defined plane")
        return MultiVector.basis(mv.n, range(1, mv.n + 1))
    plane = spanning_vectors(mv)
    signed = [
        tuple((-1) ** i * x for i, x in enumerate(row)) for row in plane.rows
    ]
    kernel = linalg.kernel_basis(signed, mv.n)
    reduced, _ = linalg.rref(kernel)
    return canonical_scale(plucker_of_matrix(PlaneMatrix._of_rref(reduced)))


def require_chamber_vector(mv: MultiVector, *, positive: bool = False) -> None:
    """Validate the normalized / sign / decomposability preconditions."""
    sign = classify_sign(mv)
    allowed = (SignClass.POSITIVE,) if positive else (
        SignClass.POSITIVE,
        SignClass.NONNEGATIVE,
    )
    if sign not in allowed:
        wanted = "Positive" if positive else "Nonnegative or Positive"
        raise ValueError(f"expected a {wanted} multivector, got {sign.value}")
    if mv.coefficient_sum() != 1:
        raise ValueError("multivector is not normalized")
    if not is_decomposable(mv):
        raise DecomposabilityError("multivector is not decomposable")
