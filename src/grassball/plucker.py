"""Planes as spanning matrices, decomposable multivectors, and their duality.

Converts between k-planes in R^n (full-rank k x n rational matrices) and the
decomposable grade-k elements whose coefficients are the k x k minors, tests
decomposability and plane containment exactly, and computes the orthogonal
complement with respect to the alternating-sign form Q.

Planes are read straight off the coordinates, with no elimination.  With I
the lexicographically first key of the support of a nonzero k-vector mv, the
plane of mv (if it has one) lies in the affine chart {p_I != 0} of the
Grassmannian (Harris, Algebraic Geometry: A First Course, Lecture 6), and
there its RREF has pivots I and entries that are ratios of coordinates: row
r is 1 at i_r and (-1)^s * mv[J] / mv[I] at each non-pivot column j, where
J = sorted(I without i_r, plus j) and s is the number of elements of I
without i_r strictly between i_r and j.  Those rows wedge back to
mv / mv[I] exactly when mv is decomposable, and that integer wedge is the
decomposability test.  An element's rows, or the finding that it has no
plane, are stored on it at the first read, and ``contains`` substitutes the
rows of the lower plane into the RREF rows of the upper one, with no
elimination.  An element that carries the decomposable mark of ``exterior``
(a wedge of vectors by construction) has its rows read with no wedge at
all.  Minors are wedges too: ``plucker_of_matrix`` is the wedge of the
integer rows of the matrix, so it carries the mark.

``plane_vectors`` is those integer rows over p as grade-1 elements, for
the witnesses of ``lemmas``, with no ``Fraction`` row and no solve.  The
Q-complement needs no basis at all: it is the relabel e_J -> e_([n] without
J) of the coordinates (``exterior.complement``), up to a sign that
``canonical_scale`` divides out.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .exterior import (
    DECOMPOSABLE,
    GradeError,
    MultiVector,
    SignClass,
    classify_sign,
    complement,
    integer_coeffs,
    wedge_all,
    wedge_ints,
)

__all__ = [
    "PlaneMatrix",
    "RankError",
    "DecomposabilityError",
    "plucker_of_matrix",
    "is_decomposable",
    "spanning_vectors",
    "plane_vectors",
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
        """The plane of the rows of an RREF, as ``spanning_vectors`` builds
        them: their entries are ``Fraction`` already and their pivots make
        them independent, so nothing is converted or checked."""
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

    def to_json_dict(self) -> dict:
        return {"rows": [[str(x) for x in row] for row in self.rows]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PlaneMatrix":
        rows = data["rows"] if isinstance(data, Mapping) else None
        if not isinstance(rows, list) or not all(
            isinstance(row, list) for row in rows
        ):
            raise ValueError("a plane matrix is an object whose rows are lists")
        return cls([[Fraction(str(x)) for x in row] for row in rows])

    @classmethod
    def from_json(cls, text: str) -> "PlaneMatrix":
        return cls.from_json_dict(json.loads(text))


def plucker_of_matrix(matrix: PlaneMatrix) -> MultiVector:
    """Decomposable k-vector whose e_A coefficient is the minor on columns A.

    That is the wedge of the rows: expanding row_1 ^ ... ^ row_k over the
    basis gives, at e_A, the alternating sum over bijections of rows onto A,
    which is the Leibniz expansion of the minor.  Each row enters as a
    grade-1 element of integers over the lcm of its denominators.
    """
    factors = []
    for row in matrix.rows:
        ints, den, content = linalg.integer_row(row)
        factors.append(MultiVector._of_ints(matrix.n, 1, {
            (j + 1,): x * content for j, x in enumerate(ints) if x
        }, den))
    return wedge_all(factors)


_UNREAD = object()


def _plane_rows(mv: MultiVector) -> tuple[tuple[tuple[int, ...], ...], int] | None:
    """(rows, p) with rows / p the RREF of the plane of mv, or None when mv is
    not decomposable; stored on mv, so each element is read once.

    The pivot set I is the lexicographically first key of the support of
    mv's integer coefficients c: the minors of a matrix are nonzero exactly
    on the bases of its column matroid, and the RREF's pivots are the greedy
    basis, which is the lexicographically least one.  On the chart
    {p_I != 0} (Harris, Algebraic Geometry: A First Course, Lecture 6) the
    RREF entries are ratios of coordinates: with p = c[I], row r is p at its
    pivot i_r and, at each non-pivot column j, (-1)^s * c[J], where
    J = sorted(I without i_r, plus j) and s counts the elements of I
    without i_r strictly between i_r and j (the moves that sort column j
    into place in the minor J).  The minors of those rows are p^(k-1) times
    c when mv is decomposable, and when they are, mv is their wedge divided
    by p^(k-1); so comparing the wedge with p^(k-1) * c decides
    decomposability in both directions.  An element with the decomposable
    mark (``exterior.MultiVector`` says which elements carry it) is a single
    wedge by construction: its rows are read the same way, and the
    comparison is skipped.
    """
    found = getattr(mv, "_plane", _UNREAD)
    if found is not _UNREAD and found is not DECOMPOSABLE:
        return found
    marked = found is DECOMPOSABLE
    if mv.is_zero():
        raise ValueError("the zero multivector has no well-defined plane")
    c, _ = integer_coeffs(mv)
    pivots = min(c)
    p = c[pivots]
    rows = []
    for r, i in enumerate(pivots):
        rest = pivots[:r] + pivots[r + 1 :]
        row = [0] * mv.n
        row[i - 1] = p
        # left of i_r, J would precede I, so c[J] is 0
        for j in range(i + 1, mv.n + 1):
            if j in pivots:
                continue
            pos = bisect_left(rest, j)
            x = c.get(rest[:pos] + (j,) + rest[pos:])
            if x:
                row[j - 1] = -x if (pos - r) & 1 else x
        rows.append(tuple(row))
    found = tuple(rows), p
    if mv.k > 1 and not marked:
        maps = [{(j + 1,): x for j, x in enumerate(row) if x} for row in rows]
        product = maps[0]
        for m in maps[1:]:
            product = wedge_ints(product, m, mv.n)
        scale = p ** (mv.k - 1)
        if product != {key: scale * x for key, x in c.items()}:
            found = None
    object.__setattr__(mv, "_plane", found)
    return found


def is_decomposable(mv: MultiVector) -> bool:
    """Exact decomposability test, with no elimination.

    With I the lexicographically first support key and p = mv[I], row r is
    read off the coordinates: p at i_r and (-1)^s * mv[J] at each non-pivot
    column j, J = sorted(I without i_r, plus j) and s the number of elements
    of I without i_r strictly between i_r and j.  mv is a single wedge of
    vectors iff the wedge of those k rows is p^(k-1) * mv, coefficient for
    coefficient (``_plane_rows`` says why).  Grades 0, 1, n - 1 and n always
    pass; the zero multivector raises ``ValueError``.  An element with the
    decomposable mark passes without the product: the mark is set only on
    nonzero wedges of vectors and on what keeps their decomposability
    (``exterior`` lists both), never on a sum or on a caller's coefficients,
    so an element built by ``MultiVector(...)`` or ``from_json`` is always
    tested in full.
    """
    return _plane_rows(mv) is not None


def _plane(mv: MultiVector) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``_plane_rows(mv)``, raising ``DecomposabilityError`` when mv has no
    plane."""
    found = _plane_rows(mv)
    if found is None:
        raise DecomposabilityError("input does not factor as a single wedge")
    return found


def _spanning_rows(mv: MultiVector) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``_plane(mv)`` for an element that spans a nonzero plane."""
    found = _plane(mv)
    if mv.k == 0:
        raise GradeError(
            "a nonzero scalar spans the zero plane, which has no spanning vectors"
        )
    return found


def spanning_vectors(mv: MultiVector) -> PlaneMatrix:
    """Canonical reduced-row-echelon spanning matrix of a decomposable element.

    The rows are read straight off the coordinates (``_plane_rows``): with I
    the lexicographically first support key, row r has 1 at i_r and
    (-1)^s * mv[J] / mv[I] at each non-pivot j, J and s as there.  So the
    pivot columns are the lexicographically first independent set, and the
    first pivot is the least index appearing in the support.  A nonzero
    scalar spans the zero plane, which has no spanning matrix, so grade 0
    raises ``GradeError``.
    """
    rows, p = _spanning_rows(mv)
    return PlaneMatrix._of_rref(
        [tuple(Fraction(x, p) for x in row) for row in rows]
    )


def plane_vectors(mv: MultiVector) -> list[MultiVector]:
    """The rows of ``spanning_vectors(mv)`` as grade-1 elements, built from
    the integer rows over p with no ``Fraction``; grade 0 raises
    ``GradeError`` as ``spanning_vectors``."""
    rows, p = _spanning_rows(mv)
    return [
        MultiVector._of_ints(
            mv.n, 1, {(j + 1,): x for j, x in enumerate(row) if x}, p
        )
        for row in rows
    ]


def contains(lower: MultiVector, upper: MultiVector) -> bool:
    """True iff the plane of ``lower`` is a subspace of the plane of ``upper``.

    Decided by substitution, with no elimination.  Upper's rows R are its
    RREF times p, so R[r] is p at its pivot i_r and 0 at every other pivot,
    and a vector x of its plane is sum_r x[i_r] R[r] / p.  Lower's rows span
    its plane (they are its RREF times a nonzero integer), so the planes nest
    exactly when each such row x has p x == sum_r x[i_r] R[r]: at a pivot
    column both sides read p x[i_r], so only the other columns are compared,
    and the first one that differs answers False.  Elements of different
    ambient dimensions raise ``GradeError`` before any grade is compared.
    """
    if lower.n != upper.n:
        raise GradeError(f"ambient mismatch: {lower.n} vs {upper.n}")
    if lower.k > upper.k:
        return False
    if lower.k == 0:
        if lower.is_zero():
            raise ValueError("the zero multivector has no well-defined plane")
        return True
    rows = _plane(lower)[0]
    basis, p = _plane(upper)
    # each row of basis is 0 left of its pivot, where it reads p
    pivots = [row.index(p) for row in basis]
    free = [j for j in range(upper.n) if j not in pivots]
    for x in rows:
        terms = [(x[i], row) for i, row in zip(pivots, basis) if x[i]]
        for j in free:
            total = 0
            for c, row in terms:
                total += c * row[j]
            if total != p * x[j]:
                return False
    return True


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
    return mv / mv.coefficient(mv.support()[0])


def q_orthocomplement(mv: MultiVector) -> MultiVector:
    """Decomposable (n-k)-vector of the Q-orthogonal complement plane.

    Q on R^n is the diagonal form with entries (+1, -1, +1, ...); the induced
    map on planes reverses inclusions.  x is Q-orthogonal to the plane
    exactly when x with its even coordinates negated is orthogonal to it.
    With e(S) the number of even indices in S and J^c = [n] without J, the
    orthogonal complement of a plane with coordinates p_J has the
    coordinate eps(J) p_J at J^c, eps(J) = (-1)^(sum J - k(k+1)/2) the sign
    of the permutation (J, J^c) (the Hodge star), and negating the even
    coordinates multiplies that by (-1)^e(J^c), e(J^c) = e([n]) - e(J).
    sum J has the parity of k - e(J), so the product sign is
    (-1)^(e([n]) + k - k(k+1)/2), the same for every J: the Q-complement is
    ``exterior.complement(mv)``, the relabel e_J -> e_(J^c), up to a global
    scale, which ``canonical_scale`` removes.  The complement of the zero
    plane (a nonzero scalar) is all of R^n.
    """
    if mv.k >= mv.n:
        raise GradeError("the Q-complement of a full plane is the zero plane")
    _plane(mv)  # the zero element and an element with no plane raise here
    return canonical_scale(complement(mv))


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
