"""Exact linear algebra over ``fractions.Fraction``.

Matrices are lists of row tuples.  Everything is small and dense; the point
is exactness, not speed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = tuple
Matrix = list


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [tuple(Fraction(x) for x in row) for row in rows]


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with lexicographically-first pivot columns.

    Returns (rref rows without zero rows, pivot column indices).
    """
    m = [list(row) for row in as_matrix(rows)]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return [tuple(row) for row in m[:r]], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[0])


def kernel_basis(rows: Sequence[Sequence], n_cols: int) -> Matrix:
    """Basis of {x : rows @ x = 0}, one vector per free column, in RREF order."""
    reduced, pivots = rref(rows)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(tuple(vec))
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One solution of rows @ x = rhs, or None if inconsistent."""
    rows = as_matrix(rows)
    rhs = [Fraction(x) for x in rhs]
    if not rows:
        return None if any(rhs) else []
    n_cols = len(rows[0])
    augmented = [row + (b,) for row, b in zip(rows, rhs)]
    reduced, pivots = rref(augmented)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][n_cols]
    return x


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant by fraction-preserving Gaussian elimination."""
    m = [list(row) for row in as_matrix(rows)]
    n = len(m)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        result *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * result


def dot(a: Sequence, b: Sequence) -> Fraction:
    """Exact dot product; the entries must already be Fraction or int."""
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def orthogonalize(rows: Sequence[Sequence]) -> Matrix:
    """Gram-Schmidt without normalization, keeping everything rational.

    Zero vectors produced by dependent inputs are dropped.
    """
    out: Matrix = []
    for row in as_matrix(rows):
        vec = list(row)
        for prev in out:
            coeff = dot(vec, prev) / dot(prev, prev)
            vec = [x - coeff * y for x, y in zip(vec, prev)]
        if any(vec):
            out.append(tuple(vec))
    return out
