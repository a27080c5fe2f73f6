"""Integer elimination in ``linalg`` against a Fraction Gauss-Jordan oracle."""

import random
from fractions import Fraction

import pytest

from grassball import linalg

# -- reference oracle: Gauss-Jordan and Gaussian elimination over Fraction ------


def reference_rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
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


def reference_kernel_basis(rows, n_cols):
    reduced, pivots = reference_rref(rows)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(tuple(vec))
    return basis


def reference_solve(rows, rhs):
    rows = [tuple(Fraction(x) for x in row) for row in rows]
    rhs = [Fraction(x) for x in rhs]
    if not rows:
        return None if any(rhs) else []
    n_cols = len(rows[0])
    reduced, pivots = reference_rref(
        [row + (b,) for row, b in zip(rows, rhs)])
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][n_cols]
    return x


def reference_det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
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


# -- seeded inputs ---------------------------------------------------------------


def _entry(rng, kind):
    """A rational in the given Python form; floats are dyadic or decimal."""
    value = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 7, 12]))
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "fraction":
        return value
    if kind == "float":
        return rng.choice([rng.randint(-16, 16) / 8, rng.randint(-99, 99) / 10])
    return rng.choice([str(value), f"{rng.randint(-99, 99) / 10}"])


def random_matrix(rng, n_rows, n_cols):
    """Mixed-type rows, often rank-deficient: zero, repeated, proportional,
    or combined rows, or a product of thin factors."""
    kinds = ["int", "fraction", "float", "str"]
    mode = rng.random()
    if mode < 0.3 and n_rows and n_cols:
        inner = rng.randint(1, max(1, min(n_rows, n_cols) - 1))
        left = [[rng.randint(-4, 4) for _ in range(inner)]
                for _ in range(n_rows)]
        right = [[_entry(rng, "fraction") for _ in range(n_cols)]
                 for _ in range(inner)]
        return [[sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)]
                for lrow in left]
    rows = []
    for _ in range(n_rows):
        shape = rng.random()
        if rows and shape < 0.15:
            rows.append(list(rng.choice(rows)))
        elif rows and shape < 0.3:
            scale = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
            rows.append([Fraction(x) * scale for x in rng.choice(rows)])
        elif len(rows) >= 2 and shape < 0.4:
            a, b = rng.sample(rows, 2)
            rows.append([Fraction(x) - 2 * Fraction(y) for x, y in zip(a, b)])
        elif shape < 0.5:
            rows.append([0] * n_cols)
        else:
            kind = rng.choice(kinds)
            rows.append([
                0 if rng.random() < 0.25 else _entry(rng, kind)
                for _ in range(n_cols)
            ])
    return rows


EDGE_MATRICES = [
    [],
    [()],
    [(), (), ()],
    [[0, 0, 0]],
    [[0, 0], [0, 0], [0, 0]],
    [[1, 2, 3], [1, 2, 3], [2, 4, 6]],
    [[-3, 6], [1, -2], [Fraction(1, 2), -1]],
    [[1], [2], [3], [4]],
    [[0, 0, 5, 1, 0, 0, 2]],
    [["1/3", 0.25, Fraction(-2, 7)], [1, "-0.5", 3], [0.1, 0, "4"]],
    [[-1, -2], [-3, -4]],
    [[10 ** 30 + 1, 3], [7, Fraction(1, 10 ** 20)]],
]


def _cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_matrix(rng, rng.randint(0, 6), rng.randint(0, 7))


def _same(got, want):
    """Equal values with the same nesting and types: the same repr."""
    assert repr(got) == repr(want)


# -- tests -----------------------------------------------------------------------


def test_rref_rank_kernel_match_oracle():
    cases = list(_cases(1, 2500)) + EDGE_MATRICES
    deficient = 0
    for rows in cases:
        n_cols = len(rows[0]) if rows else 0
        want = reference_rref(rows)
        _same(linalg.rref(rows), want)
        assert linalg.rank(rows) == len(want[0])
        _same(linalg.kernel_basis(rows, n_cols),
              reference_kernel_basis(rows, n_cols))
        deficient += len(want[0]) < min(len(rows), n_cols)
    assert deficient >= 500


def test_solve_matches_oracle():
    rng = random.Random(2)
    inconsistent = 0
    for rows in list(_cases(3, 2000)) + EDGE_MATRICES:
        rhs = [_entry(rng, rng.choice(["int", "fraction", "float", "str"]))
               for _ in rows]
        if rows and rng.random() < 0.5:
            # a consistent right-hand side: rows @ x for a random x
            x = [_entry(rng, "fraction") for _ in rows[0]]
            rhs = [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]
        want = reference_solve(rows, rhs)
        _same(linalg.solve(rows, rhs), want)
        if rows:
            # any nonzero integer multiples of the augmented rows will do
            scales = [rng.choice([-6, -1, 1, 3, 10 ** 12]) for _ in rows]
            scaled = [
                [x * c for x in linalg.integer_row((*row, b))[0]]
                for row, b, c in zip(rows, rhs, scales)
            ]
            _same(linalg.solve_ints(scaled), want)
        inconsistent += want is None
    assert inconsistent >= 200
    assert linalg.solve([], [0, 0]) == []
    assert linalg.solve([], [0, 1]) is None


def test_det_matches_oracle():
    rng = random.Random(4)
    singular = 0
    squares = [random_matrix(rng, n, n)
               for n in (rng.randint(0, 7) for _ in range(2500))]
    squares += [m for m in EDGE_MATRICES if len(m) == len(m[0] if m else ())]
    for rows in squares:
        want = reference_det(rows)
        got = linalg.det(rows)
        assert type(got) is Fraction
        _same(got, want)
        singular += want == 0
    assert singular >= 500


def test_det_worked_examples():
    assert linalg.det([]) == 1 and type(linalg.det([])) is Fraction
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[2, 0, 0], [0, 3, 0], [0, 0, "1/6"]]) == 1
    assert linalg.det([[Fraction(1, 2), Fraction(1, 3)],
                       [Fraction(1, 4), Fraction(1, 5)]]) == Fraction(1, 60)
    # a row swap in mid-elimination, and a pivot that must divide out exactly
    assert linalg.det([[1, 2, 3], [2, 4, 7], [1, 3, 5]]) == -1
    assert linalg.det([[2, 3, 5], [7, 11, 13], [17, 19, 23]]) == -78


def test_rref_worked_example_and_bad_entries():
    reduced, pivots = linalg.rref([[0, 2, 4, 2], [0, 1, 2, 3], [1, 0, 0, 0]])
    assert pivots == [0, 1, 3]
    assert reduced == [(1, 0, 0, 0), (0, 1, 2, 0), (0, 0, 0, 1)]
    with pytest.raises(ValueError):
        linalg.rank([["a/b", 1]])
    with pytest.raises(TypeError):
        linalg.rref([[None, 1]])
