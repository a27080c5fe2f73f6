"""Exact linear algebra over the rationals by integer elimination.

Matrices are lists of row tuples of anything ``fractions.Fraction`` accepts,
and results are ``Fraction``.  Inside, each row is scaled by the lcm of its
denominators, which leaves its span unchanged, and eliminated over Python
integers: rows are kept small by dividing out their content (the gcd of
their entries), and ``det`` uses Bareiss's fraction-free elimination.
``Fraction`` objects are built only for the results.  ``integer_row`` and
``eliminate`` are public so that the polytope layer in ``convexoid`` can
reduce its own integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = tuple
Matrix = list

_EXACT = (int, Fraction)


def integer_row(row: Sequence) -> tuple[list[int], int, int]:
    """(integer row, lcm of denominators, content): row == ints * content / lcm.

    The integer row is primitive: its content is 1, or 0 for a zero row.
    """
    row = [x if type(x) in _EXACT else Fraction(x) for x in row]
    den = lcm(*[x.denominator for x in row])
    ints = [x.numerator * (den // x.denominator) for x in row]
    content = gcd(*ints)
    if content > 1:
        ints = [x // content for x in ints]
    return ints, den, content


def eliminate(m: list[list[int]], reduced: bool) -> list[int]:
    """Row-reduce integer rows in place and return the pivot columns.

    Pivot columns are the lexicographically first independent set, and the
    first len(pivots) rows of m become the pivot rows.  A row with entry a in
    the pivot column of pivot p becomes (p * row - a * pivot_row) / gcd(p, a),
    divided by its content.  With ``reduced`` every other row is cleared in
    each pivot column (Gauss-Jordan), so m[r] / m[r][pivots[r]] is row r of
    the RREF; otherwise only the rows below are, which is enough for the rank.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        p = top[c]
        for i in range(0 if reduced else r + 1, n_rows):
            a = m[i][c]
            if not a or i == r:
                continue
            g = gcd(p, a)
            pg, ag = p // g, a // g
            row = [pg * x - ag * y for x, y in zip(m[i], top)]
            content = gcd(*row)
            if content > 1:
                row = [x // content for x in row]
            m[i] = row
        pivots.append(c)
        r += 1
    return pivots


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with lexicographically-first pivot columns.

    Returns (rref rows without zero rows, pivot column indices).
    """
    m = [integer_row(row)[0] for row in rows]
    pivots = eliminate(m, reduced=True)
    return [
        tuple(Fraction(x, row[c]) for x in row) for row, c in zip(m, pivots)
    ], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(eliminate([integer_row(row)[0] for row in rows], reduced=False))


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
    if not rows:
        return None if any(Fraction(b) for b in rhs) else []
    n_cols = len(rows[0])
    m = [integer_row((*row, b))[0] for row, b in zip(rows, rhs)]
    pivots = eliminate(m, reduced=True)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for row, pc in zip(m, pivots):
        x[pc] = Fraction(row[n_cols], row[pc])
    return x


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant by Bareiss's fraction-free elimination (Math. Comp. 22, 1968).

    Step k replaces each row below the pivot by
    (pivot * row - a * pivot_row) / previous_pivot, an exact integer
    division, and the last pivot is the determinant of the integer rows.
    """
    m, num, den = [], 1, 1
    for row in rows:
        ints, row_den, content = integer_row(row)
        m.append(ints)
        num *= content
        den *= row_den
    n = len(m)
    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            num = -num
        top = m[k]
        p = top[k]
        for i in range(k + 1, n):
            row = m[i]
            a = row[k]
            m[i] = [0] * (k + 1) + [
                (p * x - a * y) // prev for x, y in zip(row[k + 1 :], top[k + 1 :])
            ]
        prev = p
    return Fraction(num * prev, den)


def dot(a: Sequence, b: Sequence) -> Fraction:
    """Exact dot product; the entries must already be Fraction or int."""
    return sum((x * y for x, y in zip(a, b)), Fraction(0))
