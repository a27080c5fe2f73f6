"""Exact linear programming for small dense instances.

Two-phase primal simplex over ``fractions.Fraction`` with Bland's rule, so
every answer is exact and the iteration terminates.  Variables are free-sign
(they are split internally); constraints are rows of A_ub x <= b_ub and
A_eq x = b_eq.

No part of the chart runs a linear program: ``convexoid`` computes
boundedness, exit times and radial functions in closed form.  This module is
the tests' independent reference oracle for those closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = ["LPResult", "solve_lp", "lp_feasible", "lp_maximize"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: list[Fraction] | None
    value: Fraction | None


def _pivot(rows, cost, basis, r, c):
    inv = Fraction(1) / rows[r][c]
    rows[r] = [v * inv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [v - f * w for v, w in zip(row, rows[r])]
    if cost[c] != 0:
        f = cost[c]
        for j in range(len(cost)):
            cost[j] -= f * rows[r][j]
    basis[r] = c


def _bland(rows, cost, basis, allowed):
    """Minimize with Bland's rule; returns OPTIMAL or UNBOUNDED."""
    n_cols = len(cost) - 1
    while True:
        enter = next(
            (j for j in range(n_cols) if j in allowed and cost[j] < 0), None
        )
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave is None:
            return UNBOUNDED
        _pivot(rows, cost, basis, leave, enter)


def solve_lp(
    objective: Sequence | None,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    maximize: bool = True,
) -> LPResult:
    """Optimize objective . x subject to a_ub x <= b_ub and a_eq x = b_eq."""
    a_ub = [[Fraction(v) for v in row] for row in a_ub]
    a_eq = [[Fraction(v) for v in row] for row in a_eq]
    b_ub = [Fraction(v) for v in b_ub]
    b_eq = [Fraction(v) for v in b_eq]
    n = (
        len(objective)
        if objective is not None
        else len(a_ub[0]) if a_ub else len(a_eq[0])
    )
    m_ub, m_eq = len(a_ub), len(a_eq)
    m = m_ub + m_eq
    # columns: x+ (n) | x- (n) | slack (m_ub) | artificial (m)
    n_cols = 2 * n + m_ub + m
    rows = []
    for i, (row, b) in enumerate(
        list(zip(a_ub, b_ub)) + list(zip(a_eq, b_eq))
    ):
        full = [Fraction(0)] * (n_cols + 1)
        sign = -1 if b < 0 else 1
        for j, v in enumerate(row):
            full[j] = sign * v
            full[n + j] = -sign * v
        if i < m_ub:
            full[2 * n + i] = Fraction(sign)
        full[2 * n + m_ub + i] = Fraction(1)
        full[-1] = sign * b
        rows.append(full)
    basis = [2 * n + m_ub + i for i in range(m)]

    # phase 1: minimize the artificial sum
    cost = [Fraction(0)] * (n_cols + 1)
    for j in range(2 * n + m_ub, n_cols):
        cost[j] = Fraction(1)
    for row in rows:  # reduce against the artificial basis
        cost = [c - v for c, v in zip(cost, row)]
    allowed = set(range(n_cols))
    _bland(rows, cost, basis, allowed)
    if -cost[-1] > 0:
        return LPResult(INFEASIBLE, None, None)

    # drive zero-valued artificials out of the basis; drop redundant rows
    art_start = 2 * n + m_ub
    keep = []
    for i in range(len(rows)):
        if basis[i] >= art_start:
            col = next((j for j in range(art_start) if rows[i][j] != 0), None)
            if col is None:
                continue
            _pivot(rows, cost, basis, i, col)
        keep.append(i)
    if len(keep) != len(rows):
        rows = [rows[i] for i in keep]
        basis = [basis[i] for i in keep]

    # phase 2: artificials may not re-enter
    allowed = set(range(2 * n + m_ub))
    if objective is None:
        obj = [Fraction(0)] * n
    else:
        obj = [Fraction(v) for v in objective]
    phase2 = [Fraction(0)] * (n_cols + 1)
    for j in range(n):
        c = -obj[j] if maximize else obj[j]
        phase2[j] = c
        phase2[n + j] = -c
    cost = list(phase2)
    for i, bi in enumerate(basis):
        if cost[bi] != 0:
            f = cost[bi]
            cost = [c - f * v for c, v in zip(cost, rows[i])]
    status = _bland(rows, cost, basis, allowed)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    xs = [Fraction(0)] * (2 * n + m_ub)
    for bi, row in zip(basis, rows):
        if bi < len(xs):
            xs[bi] = row[-1]
    x = [xs[j] - xs[n + j] for j in range(n)]
    value = sum((c * v for c, v in zip(obj, x)), Fraction(0))
    return LPResult(OPTIMAL, x, value)


def lp_feasible(
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
) -> bool:
    return solve_lp(None, a_ub, b_ub, a_eq, b_eq).status == OPTIMAL


def lp_maximize(
    objective: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
) -> LPResult:
    return solve_lp(objective, a_ub, b_ub, a_eq, b_eq, maximize=True)
