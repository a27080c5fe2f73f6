"""Plane/multivector conversions, containment, and the Q-duality."""

import collections
import random
from fractions import Fraction
from itertools import combinations

import pytest

from grassball import exterior, linalg, plucker
from grassball.exterior import (
    DECOMPOSABLE,
    GradeError,
    MultiVector,
    classify_sign,
    contract,
    normalize,
    wedge,
    wedge_all,
)
from grassball.plucker import (
    DecomposabilityError,
    PlaneMatrix,
    RankError,
    _plane,
    _plane_rows,
    canonical_scale,
    contains,
    is_decomposable,
    plane_vectors,
    plucker_of_matrix,
    q_orthocomplement,
    spanning_vectors,
)
from grassball.sampling import (
    random_multivector,
    random_nonneg_point,
    random_positive_matrix,
    random_positive_point,
    random_rational,
)


def vandermonde_point():
    return normalize(plucker_of_matrix(PlaneMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])))


def minors_oracle(rows, k, n):
    """Independent minor computation by Laplace expansion."""

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = Fraction(0)
        for j in range(len(mat)):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(minor)
        return total

    out = {}
    for cols in combinations(range(n), k):
        value = det([[Fraction(row[c]) for c in cols] for row in rows])
        if value:
            out[tuple(c + 1 for c in cols)] = value
    return out


def random_matrix(rng, k, n):
    while True:
        rows = [[random_rational(rng) for _ in range(n)] for _ in range(k)]
        if linalg.rank(rows) == k:
            return PlaneMatrix(rows)


def long_denominator(rng):
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(10**11, 10**12))


# -- plucker_of_matrix --------------------------------------------------------


def test_minors_worked_example():
    rows = [[1, 1, 1, 1], [0, 1, 2, 3]]
    expected = minors_oracle(rows, 2, 4)
    assert [expected[key] for key in sorted(expected)] == [1, 2, 3, 1, 2, 1]
    assert plucker_of_matrix(PlaneMatrix(rows)) == MultiVector(4, 2, expected)


def test_identity_rows_and_row_swap():
    assert plucker_of_matrix(
        PlaneMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])
    ) == MultiVector.basis(4, (1, 2))
    a = plucker_of_matrix(PlaneMatrix([[1, 2, 3, 4], [4, 3, 2, 1]]))
    b = plucker_of_matrix(PlaneMatrix([[4, 3, 2, 1], [1, 2, 3, 4]]))
    assert a == -b


def test_rank_deficient_matrix_rejected():
    with pytest.raises(RankError):
        PlaneMatrix([[1, 2, 3, 4], [2, 4, 6, 8]])


def test_gl_action_scales_by_determinant():
    rng = random.Random(1)
    for _ in range(30):
        m = random_matrix(rng, 2, 4)
        g = [[random_rational(rng) for _ in range(2)] for _ in range(2)]
        d = linalg.det(g)
        if d == 0:
            continue
        mixed = PlaneMatrix(
            [
                [
                    sum(g[i][l] * m.rows[l][j] for l in range(2))
                    for j in range(4)
                ]
                for i in range(2)
            ]
        )
        assert plucker_of_matrix(mixed) == plucker_of_matrix(m) * d


def test_plucker_against_oracle_random():
    rng = random.Random(2)
    for _ in range(20):
        k = rng.choice([2, 3])
        n = rng.choice([4, 5])
        m = random_matrix(rng, k, n)
        assert plucker_of_matrix(m) == MultiVector(
            n, k, minors_oracle(m.rows, k, n)
        )
    # every grade up to 4 in R^1..R^8; every third matrix has a zero column
    # (so some minors vanish) and 12-digit denominators
    for trial in range(60):
        n = rng.randint(1, 8)
        k = rng.randint(1, min(n, 4))
        rows = [[random_rational(rng) for _ in range(n)] for _ in range(k)]
        if trial % 3 == 0:
            zero_col = rng.randrange(n)
            rows = [
                [Fraction(0) if j == zero_col else x * long_denominator(rng)
                 for j, x in enumerate(row)]
                for row in rows
            ]
        if linalg.rank(rows) < k:
            continue
        m = PlaneMatrix(rows)
        assert plucker_of_matrix(m) == MultiVector(
            n, k, minors_oracle(m.rows, k, n)
        )


# -- is_decomposable -----------------------------------------------------------


def test_decomposable_examples():
    assert not is_decomposable(
        MultiVector(4, 2, {(1, 2): 1, (3, 4): 1})
    )  # omega ^ omega is 2 e_{1234}
    assert is_decomposable(MultiVector(4, 2, {(1, 2): 1, (1, 3): 1}))
    with pytest.raises(ValueError):
        is_decomposable(MultiVector.zero(4, 2))


def test_matrix_outputs_always_decomposable():
    rng = random.Random(3)
    for _ in range(60):
        k = rng.choice([2, 3])
        n = rng.choice([4, 5, 6])
        assert is_decomposable(plucker_of_matrix(random_matrix(rng, k, n)))


def test_self_wedge_nonzero_never_decomposable():
    rng = random.Random(4)
    count = 0
    while count < 40:
        n = rng.choice([4, 5])
        a = Fraction(rng.randint(1, 5))
        b = Fraction(rng.randint(1, 5)) * rng.choice([1, -1])
        mv = MultiVector(n, 2, {(1, 2): a, (3, 4): b})
        extra = rng.choice(list(combinations(range(1, n + 1), 2)))
        mv = mv + MultiVector(n, 2, {extra: random_rational(rng)})
        if mv.k != 2 or wedge(mv, mv).is_zero():
            continue
        assert not is_decomposable(mv)
        count += 1


def decomposable_oracle(mv):
    """Plucker relations: mv factors iff contracting it by e_B, for every
    (k-1)-subset B, and wedging the result with mv gives zero.  Grades 0, 1,
    n-1 and n are always decomposable."""
    if mv.k <= 1 or mv.k >= mv.n - 1:
        return True
    for sub in combinations(range(1, mv.n + 1), mv.k - 1):
        out = mv
        for i in reversed(sub):
            out = contract(out, MultiVector.basis(mv.n, (i,)))
        if not wedge(out, mv).is_zero():
            return False
    return True


def random_decomposable(rng, k, n):
    if k == 0:
        return MultiVector.scalar(n, rng.randint(1, 5))
    return plucker_of_matrix(random_matrix(rng, k, n))


def test_decomposable_agrees_with_plucker_relations():
    rng = random.Random(46)
    checked = crossed = 0
    while checked < 2000:
        if checked % 2:
            # middle grades, where the Plucker relations are not trivial:
            # a decomposable plus a second one or plus one basis term
            n = rng.randint(4, 7)
            k = rng.randint(2, n - 2)
            mv = random_decomposable(rng, k, n)
            if rng.random() < 0.5:
                mv = mv + random_decomposable(rng, k, n)
            else:
                key = rng.choice(list(combinations(range(1, n + 1), k)))
                mv = mv + MultiVector(n, k, {key: random_rational(rng)})
        else:
            n = rng.randint(0, 7)
            k = rng.randint(0, n)
            mv = random_decomposable(rng, k, n)
            if rng.random() < 0.5:
                mv = mv + random_multivector(rng, n, k, rng.random())
        if mv.is_zero():
            continue
        expected = decomposable_oracle(mv)
        assert is_decomposable(mv) == expected, mv
        checked += 1
        crossed += not expected and 2 <= k <= n - 2
    assert crossed >= 500


# -- the decomposable mark ------------------------------------------------------
# ``plucker`` reads a marked element's rows without the decomposability
# product, so the mark must never reach an element that is not a single
# wedge, and the rows it reads must be the rows of the full check.


def plane_state(mv):
    return getattr(mv, "_plane", None)


def test_a_wedge_with_an_undecomposable_factor_is_not_marked():
    omega = MultiVector(5, 2, {(1, 2): 1, (3, 4): 1})
    product = wedge(omega, MultiVector.basis(5, (5,)))
    assert product == MultiVector(5, 3, {(1, 2, 5): 1, (3, 4, 5): 1})
    assert plane_state(product) is None
    assert not is_decomposable(product)
    assert plane_state(product) is None  # read, and found not decomposable
    # nor does anything made from it by an operation that carries the mark
    assert not is_decomposable(normalize(-product * 3).shift(+1, n=6))


def test_a_zero_product_is_not_marked():
    e1 = MultiVector.basis(6, (1,))
    v = MultiVector.from_vector([1, 2, 3, 4, 5, 6])
    for zero in (wedge(e1, e1), wedge_all([e1, v, e1 * 2 - v * 3]),
                 wedge(wedge(e1, v), v)):
        assert zero.is_zero()
        assert plane_state(zero) is None
        with pytest.raises(ValueError):
            is_decomposable(zero)


def test_marked_and_unmarked_elements_read_the_same_plane():
    rng = random.Random(47)
    read = 0
    while read < 300:
        n = rng.randint(2, 8)
        k = rng.randint(2, min(4, n))
        rows = [MultiVector.from_vector(
            [rng.choice([0, 0, random_rational(rng)]) for _ in range(n)]
        ) for _ in range(k)]
        mv = wedge_all(rows)
        if mv.is_zero():
            continue
        assert plane_state(mv) is DECOMPOSABLE
        copy = MultiVector(n, k, mv.coeffs)
        assert plane_state(copy) is None
        assert _plane_rows(mv) == _plane_rows(copy) is not None
        assert plane_vectors(mv) == plane_vectors(copy)
        read += 1


# -- spanning_vectors -----------------------------------------------------------


def test_spanning_examples():
    assert spanning_vectors(MultiVector.basis(4, (1, 2))).rows == (
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
    )
    rows = spanning_vectors(vandermonde_point()).rows
    assert rows == (
        (Fraction(1), Fraction(0), Fraction(-1), Fraction(-2)),
        (Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
    )
    # minors of the canonical matrix reproduce the input up to scalar
    again = plucker_of_matrix(PlaneMatrix(rows))
    ratio = again.coefficient((1, 2)) / vandermonde_point().coefficient((1, 2))
    assert again == vandermonde_point() * ratio
    assert spanning_vectors(MultiVector.basis(4, (2, 3))).rows == (
        (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
    )


def test_spanning_pivot_is_least_support_index():
    rng = random.Random(5)
    for _ in range(40):
        mv = plucker_of_matrix(random_matrix(rng, 2, 5))
        rows = spanning_vectors(mv).rows
        first_pivot = next(j for j, v in enumerate(rows[0]) if v) + 1
        least = min(min(key) for key in mv.support())
        assert first_pivot == least


def test_spanning_round_trip_random():
    rng = random.Random(6)
    for _ in range(40):
        k = rng.choice([2, 3])
        mv = plucker_of_matrix(random_matrix(rng, k, 5))
        plane = spanning_vectors(mv)
        # the same plane as the checked public constructor builds
        assert plane == PlaneMatrix(plane.rows) and (plane.k, plane.n) == (k, 5)
        assert type(plane.rows) is tuple
        assert all(type(x) is Fraction for row in plane.rows for x in row)
        again = plucker_of_matrix(plane)
        key = mv.support()[0]
        ratio = again.coefficient(key) / mv.coefficient(key)
        assert ratio != 0 and again == mv * ratio


def test_spanning_rejects_non_decomposable():
    with pytest.raises(DecomposabilityError):
        spanning_vectors(MultiVector(4, 2, {(1, 2): 1, (3, 4): 1}))
    with pytest.raises(DecomposabilityError, match="single wedge"):
        spanning_vectors(MultiVector(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1}))


def test_spanning_full_grade_and_zero():
    rows = spanning_vectors(MultiVector.basis(4, (1, 2, 3, 4)) * 3).rows
    assert rows == tuple(
        tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)
    )
    with pytest.raises(ValueError, match="zero multivector"):
        spanning_vectors(MultiVector.zero(4, 2))


def test_spanning_grade_zero_names_the_zero_plane():
    scalar = MultiVector.scalar(3, Fraction(-2, 5))
    assert is_decomposable(scalar)
    with pytest.raises(GradeError, match="zero plane"):
        spanning_vectors(scalar)
    with pytest.raises(ValueError, match="zero multivector"):
        spanning_vectors(MultiVector.zero(3, 0))


# -- the annihilator oracles -------------------------------------------------------


def annihilator_rows(mv):
    """Rows of the linear system v ^ mv = 0: the e_T coefficient of v ^ mv is
    the sum over positions p of i = T[p] of (-1)^p * v_i * mv[T without i]."""
    if mv.is_zero():
        raise ValueError("the zero multivector has no well-defined plane")
    rows = []
    for target in combinations(range(1, mv.n + 1), mv.k + 1):
        row = [Fraction(0)] * mv.n
        for pos, i in enumerate(target):
            rest = target[:pos] + target[pos + 1 :]
            row[i - 1] = (-1) ** pos * mv.coefficient(rest)
        if any(row):
            rows.append(row)
    return rows


def annihilator_decomposable_oracle(mv):
    """The annihilator {v : v ^ mv = 0} of a nonzero k-vector has dimension
    at most k, with equality iff mv is decomposable (Harris, Lecture 6)."""
    return linalg.rank(annihilator_rows(mv)) == mv.n - mv.k


def annihilator_plane_oracle(mv):
    """The plane of mv as the RREF of its annihilator's kernel."""
    kernel = linalg.kernel_basis(annihilator_rows(mv), mv.n)
    if len(kernel) != mv.k:
        raise DecomposabilityError("input does not factor as a single wedge")
    if mv.k == 0:
        raise GradeError(
            "a nonzero scalar spans the zero plane, which has no spanning vectors"
        )
    reduced, _ = linalg.rref(kernel)
    return PlaneMatrix._of_rref(reduced)


def outcome(fn, mv):
    """What fn(mv) gives: the repr of a plane's rows (so the Fraction type
    shows), a bool, or the type and message of the error it raises."""
    try:
        value = fn(mv)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(value, PlaneMatrix):
        return type(value.rows), repr(value.rows)
    return value


def oracle_case(rng, i):
    """A seeded multivector with n <= 7, in five kinds by i mod 5."""
    kind = i % 5
    n = rng.randint(1, 7) if kind in (1, 2) else rng.randint(4, 7)
    if kind == 0:
        # decomposable at any grade, scaled by a 12-digit denominator
        k = rng.randint(0, n)
        return random_decomposable(rng, k, n) * long_denominator(rng)
    if kind == 1:
        # the grades where everything nonzero is decomposable
        k = rng.choice(sorted({0, 1, n - 1, n}))
        return random_multivector(rng, n, k, rng.random())
    if kind == 2:
        # support missing index 1: decomposable or not, moved up by one
        k = rng.randint(0, n - 1)
        mv = random_decomposable(rng, k, n - 1)
        if 2 <= k and rng.random() < 0.5:
            mv = mv + random_multivector(rng, n - 1, k, 0.5)
        return mv.shift(+1, n=n)
    # middle grades: a decomposable plus a second one or plus one basis
    # term, mostly not decomposable
    k = rng.randint(2, n - 2)
    mv = random_decomposable(rng, k, n)
    if kind == 3:
        return mv + random_decomposable(rng, k, n)
    key = rng.choice(list(combinations(range(1, n + 1), k)))
    return mv + MultiVector(n, k, {key: long_denominator(rng)})


def test_plane_read_off_matches_annihilator_oracles():
    rng = random.Random(47)
    checked = crossed = skipped_one = 0
    edges = set()
    i = 0
    while checked < 2200:
        mv = oracle_case(rng, i)
        i += 1
        if mv.is_zero():
            continue
        expected = annihilator_decomposable_oracle(mv)
        assert is_decomposable(mv) == expected, mv
        assert outcome(spanning_vectors, mv) == outcome(
            annihilator_plane_oracle, mv
        ), mv
        checked += 1
        crossed += not expected and 2 <= mv.k <= mv.n - 2
        skipped_one += all(1 not in key for key in mv.coeffs)
        edges.update(
            name for name, k in (("0", 0), ("1", 1), ("n-1", mv.n - 1),
                                 ("n", mv.n)) if mv.k == k
        )
    assert crossed >= 500 and skipped_one >= 300
    assert edges == {"0", "1", "n-1", "n"}
    # the zero multivector has no plane, in both
    zero = MultiVector.zero(5, 2)
    assert outcome(spanning_vectors, zero) == outcome(
        annihilator_plane_oracle, zero
    )
    assert outcome(is_decomposable, zero) == outcome(
        annihilator_decomposable_oracle, zero
    )


# -- contains -------------------------------------------------------------------


def contains_oracle(lower, upper):
    """Independent check: solve for each spanning row of the lower plane."""
    high = spanning_vectors(upper).rows
    columns = [[row[i] for row in high] for i in range(upper.n)]
    for vec in spanning_vectors(lower).rows:
        if linalg.solve(columns, list(vec)) is None:
            return False
    return True


def test_contains_examples():
    e12 = MultiVector.basis(4, (1, 2))
    assert contains(MultiVector.basis(4, (1,)), e12)
    assert not contains(MultiVector.basis(4, (3,)), e12)
    assert contains(MultiVector.from_vector([0, 1, 2, 3]), vandermonde_point())


def test_contains_matches_oracle():
    rng = random.Random(7)
    hits = 0
    for _ in range(120):
        n = rng.choice([4, 5])
        upper = plucker_of_matrix(random_matrix(rng, 2, n))
        if rng.random() < 0.5:
            # genuine subvector of the plane
            rows = spanning_vectors(upper).rows
            c1, c2 = random_rational(rng), random_rational(rng)
            vec = [c1 * a + c2 * b for a, b in zip(*rows)]
            if not any(vec):
                continue
            lower = MultiVector.from_vector(vec)
        else:
            lower = MultiVector.from_vector(
                [random_rational(rng) for _ in range(n)]
            )
            if lower.is_zero():
                continue
        expected = contains_oracle(lower, upper)
        assert contains(lower, upper) == expected
        hits += expected
    assert hits > 20  # both branches exercised


# ``contains`` substitutes the lower plane's rows into the upper plane's RREF
# rows.  The oracle below is the form it replaces: the stacked integer rows
# of both planes have the rank of the upper one.


def reference_contains(lower, upper):
    if lower.n != upper.n:
        raise GradeError(f"ambient mismatch: {lower.n} vs {upper.n}")
    if lower.k > upper.k:
        return False
    if lower.k == 0:
        if lower.is_zero():
            raise ValueError("the zero multivector has no well-defined plane")
        return True
    planes = [_plane(mv)[0] for mv in (lower, upper)]
    return linalg.rank(planes[1] + planes[0]) == upper.k


def same_pair_outcome(lower, upper):
    """contains and reference_contains agree exactly, or raise the same
    error with the same message; returns the outcome."""
    try:
        want = reference_contains(lower, upper)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            contains(lower, upper)
        assert type(got.value) is type(exc), (lower, upper)
        assert str(got.value) == str(exc), (lower, upper)
        return type(exc)
    assert contains(lower, upper) is want, (lower, upper)
    return want


def containment_pairs(rng, k, n):
    """(lower, upper) pairs on one random upper plane of grade k in R^n:
    combinations of its rows of every grade up to k (contained, the grade-k
    one an equal plane), the same with one row pushed off the plane along
    one coordinate (mostly not contained), and a
    random plane of grade k (equal grades, almost never contained).  The
    upper element and each lower one are negated at random, so the pivot
    coefficients p come with both signs."""
    upper = random_decomposable(rng, k, n)
    rows = spanning_vectors(upper).rows
    pairs = []
    for j in range(1, k + 1):
        weights = [[random_rational(rng) for _ in rows] for _ in range(j)]
        mixed = [[sum(w * row[c] for w, row in zip(ws, rows))
                  for c in range(n)] for ws in weights]
        if linalg.rank(mixed) < j:
            continue
        inside = plucker_of_matrix(PlaneMatrix(mixed))
        # off in one column, often the last, which is compared last
        off = rng.choice([n - 1, rng.randrange(n)])
        pushed = [x + (c == off) for c, x in enumerate(mixed[0])]
        outside = [pushed] + mixed[1:]
        if linalg.rank(outside) < j:
            continue
        pairs += [(inside, upper),
                  (plucker_of_matrix(PlaneMatrix(outside)), upper)]
    pairs.append((random_decomposable(rng, k, n), upper))
    return [(lower * rng.choice([1, -1]), upper * rng.choice([1, -1]))
            for lower, upper in pairs]


def test_contains_matches_rank_form_on_seeded_pairs():
    rng = random.Random(20)
    seen = collections.Counter()
    for k, n in [(3, 7), (4, 8), (2, 6)] * 12:
        for lower, upper in containment_pairs(rng, k, n):
            outcome = same_pair_outcome(lower, upper)
            seen[outcome] += 1
            seen["grade 1"] += lower.k == 1
            seen["equal grades"] += lower.k == upper.k
            seen["negative p"] += _plane_rows(upper)[1] < 0
            # the reverse pair: above, or the same plane when equal
            seen[same_pair_outcome(upper, lower), "reverse"] += 1
    assert seen[True] > 80 and seen[False] > 100
    assert seen[True, "reverse"] > 30 and seen[False, "reverse"] > 100
    assert seen["grade 1"] > 50 and seen["equal grades"] > 50
    assert seen["negative p"] > 100


def test_contains_error_paths_match_rank_form():
    """Every error path, in the rank form's order: the ambient dimensions
    are compared first, a grade above is False before any plane is read, a
    grade-0 lower answers before the upper plane is read, and lower's plane
    is read before upper's."""
    rng = random.Random(21)
    e12 = MultiVector.basis(5, (1, 2))
    tangled = MultiVector.basis(4, (1, 2)) + MultiVector.basis(4, (3, 4))
    cases = {
        "grade above": (MultiVector.basis(4, (1, 2, 3)), tangled),
        "scalar": (MultiVector.scalar(4, -2), tangled),
        "zero scalar": (MultiVector.zero(5, 0), e12),
        "zero lower": (MultiVector.zero(5, 1), e12),
        "zero upper": (MultiVector.basis(5, (1,)), MultiVector.zero(5, 2)),
        "tangled lower": (tangled, MultiVector.basis(4, (1, 2, 3))),
        "tangled upper": (MultiVector.basis(4, (1,)), tangled),
        "tangled lower, zero upper": (tangled, MultiVector.zero(4, 3)),
        "tangled upper, ambient": (MultiVector.basis(5, (1,)), tangled),
        "ambient": (MultiVector.basis(4, (1,)), e12),
        "ambient, random": (random_decomposable(rng, 2, 6),
                            random_decomposable(rng, 3, 7)),
    }
    outcomes = {name: same_pair_outcome(*pair) for name, pair in cases.items()}
    assert outcomes == {
        "grade above": False,
        "scalar": True,
        "zero scalar": ValueError,
        "zero lower": ValueError,
        "zero upper": ValueError,
        "tangled lower": DecomposabilityError,
        "tangled upper": DecomposabilityError,
        "tangled lower, zero upper": DecomposabilityError,
        "tangled upper, ambient": GradeError,
        "ambient": GradeError,
        "ambient, random": GradeError,
    }


@pytest.mark.parametrize("lower", [
    MultiVector.basis(3, (1, 2)),  # a grade above: was False
    MultiVector.scalar(3, 1),  # a nonzero scalar: was True
    MultiVector.basis(3, (1,)),
], ids=["grade above", "scalar", "grade 1"])
def test_contains_refuses_planes_of_different_ambients(lower):
    """The ambient dimensions are compared before the grade shortcuts, so
    no answer is given about planes in different spaces."""
    with pytest.raises(GradeError, match="ambient mismatch: 3 vs 4"):
        contains(lower, MultiVector.basis(4, (1,)))


# -- q_orthocomplement ------------------------------------------------------------


def q_pairing(u, v):
    """The alternating-sign bilinear form on vectors."""
    return sum(
        (-1) ** i * a * b for i, (a, b) in enumerate(zip(u, v))
    )


def test_q_ortho_coordinate_plane():
    out = q_orthocomplement(MultiVector.basis(4, (1, 2)))
    assert canonical_scale(out) == canonical_scale(MultiVector.basis(4, (3, 4)))


def test_q_ortho_involution_at_plane_level():
    mv = vandermonde_point()
    twice = q_orthocomplement(q_orthocomplement(mv))
    assert contains(twice, mv) and contains(mv, twice)


def test_q_ortho_derived_case_annihilates_plane():
    mv = vandermonde_point()
    dual = q_orthocomplement(mv)
    plane = spanning_vectors(mv).rows
    dual_plane = spanning_vectors(dual).rows
    for u in plane:
        for w in dual_plane:
            assert q_pairing(u, w) == 0


def test_q_ortho_reverses_containment():
    rng = random.Random(8)
    mv = vandermonde_point()
    dual = q_orthocomplement(mv)
    rows = spanning_vectors(mv).rows
    checked = 0
    while checked < 20:
        c1, c2 = random_rational(rng), random_rational(rng)
        vec = [c1 * a + c2 * b for a, b in zip(*rows)]
        if not any(vec):
            continue
        lower = MultiVector.from_vector(vec)
        assert contains(lower, mv)
        assert contains(dual, q_orthocomplement(lower))
        checked += 1


def test_q_ortho_keeps_the_sign_class_and_the_coefficients():
    """The Q-complement of a chamber point is in the dual chamber with no
    sign fix: the relabel e_J -> e_(J^c) keeps the coefficient multiset, so
    the normalized complement has exactly the point's coefficients."""
    rng = random.Random(9)
    for k, n in [(1, 3), (2, 4), (2, 5), (3, 5), (3, 6), (2, 7), (4, 8)]:
        for _ in range(6):
            for point in (random_positive_point(rng, k, n),
                          random_nonneg_point(rng, k, n)):
                mv = point.rho
                dual = q_orthocomplement(mv)
                assert classify_sign(dual) is classify_sign(mv)
                assert sorted(dual.coeffs.values()) == sorted(
                    mv.coeffs.values())


def _count_wedges(monkeypatch) -> list:
    """Count ``wedge_ints`` calls made through ``exterior`` and ``plucker``
    from here on: one entry per call in the returned list."""
    calls = []
    wedge_ints = exterior.wedge_ints

    def counting(a, b, n):
        calls.append(n)
        return wedge_ints(a, b, n)

    for module in (exterior, plucker):
        monkeypatch.setattr(module, "wedge_ints", counting)
    return calls


def test_q_ortho_of_a_marked_element_makes_no_wedge(monkeypatch):
    """On minors from ``plucker_of_matrix``, which carry the decomposable
    mark, reading the plane makes no product, and the Q-complement is a
    relabel: no ``wedge_ints`` call.  Wedging a kernel basis made n - k - 1."""
    rng = random.Random(10)
    inputs = [plucker_of_matrix(random_positive_matrix(rng, k, n))
              for k, n in [(2, 5), (3, 5), (3, 7), (4, 8), (2, 8)]]
    calls = _count_wedges(monkeypatch)
    for mv in inputs:
        assert plane_state(mv) is DECOMPOSABLE
        assert q_orthocomplement(mv).k == mv.n - mv.k
    assert len(calls) == 0


def test_q_ortho_keeps_the_decomposable_mark(monkeypatch):
    """The complement relabel of a decomposable element is decomposable, so
    the Q-complement carries the mark and reading its plane makes no
    product.  Without the mark, ``is_decomposable`` made 2 products."""
    rho = random_positive_point(random.Random(13), 2, 5).rho
    dual = q_orthocomplement(rho)
    calls = _count_wedges(monkeypatch)
    assert is_decomposable(dual)
    assert len(calls) == 0


def test_q_ortho_grade_errors():
    with pytest.raises(Exception):
        q_orthocomplement(MultiVector.basis(3, (1, 2, 3)))
    with pytest.raises(ValueError, match="zero multivector"):
        q_orthocomplement(MultiVector.zero(3, 0))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_q_ortho_of_scalar_is_full_space(n):
    full = MultiVector.basis(n, range(1, n + 1))
    for value in (1, Fraction(-7, 3)):
        assert q_orthocomplement(MultiVector.scalar(n, value)) == full
    # and back: the complement of the full space is the zero plane
    with pytest.raises(GradeError, match="zero plane"):
        q_orthocomplement(full)


def test_plane_matrix_json_round_trip():
    m = PlaneMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])
    assert PlaneMatrix.from_json(m.to_json()) == m


# -- bases read off the integer rows, against the Fraction-row forms ----------------
# ``plane_vectors`` builds its vectors from the integer RREF rows, and
# ``q_orthocomplement`` relabels the coordinates.  The oracles below are the
# forms they replace: ``from_vector`` of the ``Fraction`` rows, and the
# Q-complement through a kernel solve and an RREF.


def reference_plane_vectors(mv):
    return [MultiVector.from_vector(row) for row in spanning_vectors(mv).rows]


def reference_q_orthocomplement(mv):
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


def same_outcome(fn, reference, mv):
    """fn(mv) == reference(mv) exactly, or both raise the same error."""
    try:
        want = reference(mv)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            fn(mv)
        assert str(got.value) == str(exc), mv
        return type(exc)
    got = fn(mv)
    assert got == want, mv
    return type(got)


def basis_cases():
    """Seeded oracle cases, every coordinate plane up to n = 5, and seeded
    positive and nonnegative chamber points."""
    rng = random.Random(53)
    cases = [oracle_case(rng, i) for i in range(600)]
    for n in range(1, 6):
        for k in range(n + 1):
            cases.extend(
                MultiVector.basis(n, key)
                for key in combinations(range(1, n + 1), k)
            )
    for k, n in [(1, 4), (2, 5), (3, 5), (3, 7), (4, 8), (5, 6)]:
        for _ in range(4):
            cases.append(random_positive_point(rng, k, n).rho)
            cases.append(random_nonneg_point(rng, k, n).rho)
    return [mv for mv in cases if not mv.is_zero()] + [MultiVector.zero(4, 2)]


def test_plane_vectors_match_fraction_rows():
    grades = set()
    outcomes = set()
    for mv in basis_cases():
        outcomes.add(same_outcome(plane_vectors, reference_plane_vectors, mv))
        grades.update(
            name for name, k in (("0", 0), ("1", 1), ("n-1", mv.n - 1),
                                 ("n", mv.n)) if mv.k == k
        )
    assert grades == {"0", "1", "n-1", "n"}
    assert outcomes == {list, DecomposabilityError, GradeError, ValueError}


def test_q_orthocomplement_matches_kernel_solve():
    for mv in basis_cases():
        same_outcome(q_orthocomplement, reference_q_orthocomplement, mv)
    rng = random.Random(59)
    for k, n in [(2, 5), (3, 7), (4, 8)]:
        for _ in range(6):
            for point in (random_positive_point(rng, k, n),
                          random_nonneg_point(rng, k, n)):
                assert q_orthocomplement(point.rho) == (
                    reference_q_orthocomplement(point.rho)
                )


@pytest.mark.parametrize("rows,message", [
    ([], "at least one spanning vector"),
    ([[1, 0, 0], [0, 1]], "ragged spanning matrix"),
], ids=["no rows", "ragged"])
def test_plane_matrix_refuses_empty_and_ragged_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        PlaneMatrix(rows)
