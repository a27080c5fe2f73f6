"""Shrink/extend witnesses: worked cases, postconditions, chains, epsilon."""

import random
from fractions import Fraction

import pytest

from grassball import exterior, lemmas, linalg, plucker
from grassball.chamber import ChamberPoint, assemble, split
from grassball.exterior import (
    MultiVector,
    SignClass,
    classify_sign,
    normalize,
    wedge,
    wedge_all,
)
from grassball.lemmas import (
    EpsilonExhausted,
    _search,
    extend_nonneg,
    extend_positive,
    shrink_nonneg,
    shrink_positive,
)
from grassball.plucker import (
    PlaneMatrix,
    contains,
    is_decomposable,
    plucker_of_matrix,
    q_orthocomplement,
    spanning_vectors,
)
from grassball.sampling import (
    random_nonneg_point,
    random_positive_matrix,
    random_positive_point,
)

SPACES = [(2, 4), (2, 5), (3, 5)]


def vandermonde_point():
    return normalize(plucker_of_matrix(PlaneMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])))


def assert_shrink_post(eta, omega, positive):
    assert not eta.is_zero()
    assert eta.k == omega.k - 1
    wanted = SignClass.POSITIVE if positive else (
        SignClass.POSITIVE,
        SignClass.NONNEGATIVE,
    )
    sign = classify_sign(eta)
    assert sign is wanted if positive else sign in wanted
    assert is_decomposable(eta)
    assert contains(eta, omega)


def assert_extend_post(eta, omega, positive):
    assert not eta.is_zero()
    assert eta.k == omega.k + 1
    sign = classify_sign(eta)
    if positive:
        assert sign is SignClass.POSITIVE
    else:
        assert sign in (SignClass.POSITIVE, SignClass.NONNEGATIVE)
    assert is_decomposable(eta)
    assert contains(omega, eta)


# -- shrink_nonneg -------------------------------------------------------------


def test_shrink_nonneg_coordinate_planes():
    assert shrink_nonneg(MultiVector.basis(4, (1, 2))) == MultiVector.basis(4, (2,))
    assert shrink_nonneg(MultiVector.basis(4, (2, 3))) == MultiVector.basis(4, (3,))


def test_shrink_nonneg_worked_example():
    eta = shrink_nonneg(vandermonde_point())
    assert eta == MultiVector(
        4, 1, {(2,): Fraction(1, 6), (3,): Fraction(1, 3), (4,): Fraction(1, 2)}
    )
    assert_shrink_post(eta, vandermonde_point(), positive=False)


def test_shrink_nonneg_rejects_bad_input():
    with pytest.raises(ValueError):
        shrink_nonneg(MultiVector(4, 2, {(1, 2): 2}))  # not normalized
    with pytest.raises(ValueError):
        shrink_nonneg(
            MultiVector(4, 2, {(1, 2): Fraction(3, 2), (3, 4): Fraction(-1, 2)})
        )


# -- shrink_positive -------------------------------------------------------------


def test_shrink_positive_grade_two_first_epsilon():
    # direct substitution: rows (1,0,-1,-2), (0,1,2,3) give
    # eta = (1/2)(1,0,-1,-2) + (0,1,2,3), positive on the first try
    eta = shrink_positive(vandermonde_point())
    expected = normalize(
        MultiVector.from_vector([Fraction(1, 2), 1, Fraction(3, 2), 2])
    )
    assert eta == expected
    assert_shrink_post(eta, vandermonde_point(), positive=True)


def test_shrink_positive_top_grade_base_case():
    top = MultiVector.basis(4, (1, 2, 3, 4))
    eta = shrink_positive(top)
    assert classify_sign(eta) is SignClass.POSITIVE
    assert eta.k == 3 and contains(eta, top)


def test_shrink_positive_grade_one_gives_scalar():
    point = normalize(MultiVector(3, 1, {(1,): 1, (2,): 1, (3,): 1}))
    assert shrink_positive(point) == MultiVector.scalar(3, 1)


def test_shrink_positive_factor_identity_grade_three():
    # the construction keeps (e_1 + v_1) ^ eta_eps proportional to the input
    rng = random.Random(10)
    for _ in range(10):
        point = random_positive_point(rng, 3, 5)
        eta = shrink_positive(point.rho)
        first = MultiVector.from_vector(spanning_vectors(point.rho).rows[0])
        lifted = wedge(first, eta)
        key = point.rho.support()[0]
        ratio = lifted.coefficient(key) / point.rho.coefficient(key)
        assert ratio > 0
        assert lifted == point.rho * ratio
        assert_shrink_post(eta, point.rho, positive=True)


@pytest.mark.parametrize("k,n", SPACES)
def test_shrink_positive_random(k, n):
    rng = random.Random(100 + k + 10 * n)
    for _ in range(60):
        point = random_positive_point(rng, k, n)
        eta = shrink_positive(point.rho)
        assert_shrink_post(eta, point.rho, positive=True)


def test_shrink_positive_deterministic():
    rng = random.Random(11)
    point = random_positive_point(rng, 2, 5)
    assert shrink_positive(point.rho) == shrink_positive(point.rho)


@pytest.mark.parametrize("power", [20, 30, 60])
def test_skewed_inputs_halve_as_far_as_their_integers_need(power):
    # the shrink candidate first turns positive near eps = 10^-power, past
    # 2^-64 for every power here, where a fixed budget of 64 halvings ended
    skewed = normalize(
        plucker_of_matrix(PlaneMatrix([[1, 10**power, 1, 1], [0, 1, 2, 3]]))
    )
    assert classify_sign(skewed) is SignClass.POSITIVE
    eta = shrink_positive(skewed)
    assert_shrink_post(eta, skewed, positive=True)
    assert eta == reference_shrink_positive(skewed)
    eta = extend_positive(skewed)
    assert_extend_post(eta, skewed, positive=True)
    assert eta == reference_extend_positive(skewed)


def test_epsilon_exhausted_when_no_candidate_can_become_positive():
    # e_1 - eps e_2: its e_2 polynomial has lowest coefficient -1, so no eps
    # works, and the search stops after bound.bit_length() tries
    tried = []

    def candidate(eps):
        tried.append(eps)
        return MultiVector.from_vector([1, -eps])

    with pytest.raises(EpsilonExhausted):
        _search(5, candidate)
    assert tried == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


# -- extend_nonneg ---------------------------------------------------------------


def test_extend_nonneg_sign_cases():
    e123 = MultiVector.basis(4, (1, 2, 3))
    assert extend_nonneg(MultiVector.basis(4, (1, 2))) == e123  # j = 3
    assert extend_nonneg(MultiVector.basis(4, (1, 3))) == e123  # j = 2
    assert extend_nonneg(MultiVector.basis(4, (2, 3))) == e123  # j = 1


def test_extend_nonneg_kills_sets_missing_j():
    rng = random.Random(12)
    for _ in range(20):
        point = random_nonneg_point(rng, 2, 5)
        eta = extend_nonneg(point.rho)
        assert_extend_post(eta, point.rho, positive=False)
        # every support set of the output contains the wedged index
        new_index = set.intersection(*[set(key) for key in eta.support()])
        assert new_index, "output support shares the extension index"


def test_extend_nonneg_top_grade_errors():
    with pytest.raises(ValueError):
        extend_nonneg(MultiVector.basis(3, (1, 2, 3)))


# -- extend_positive ---------------------------------------------------------------


def test_extend_positive_base_case():
    point = normalize(MultiVector(2, 1, {(1,): 1, (2,): 1}))
    assert extend_positive(point) == MultiVector.basis(2, (1, 2))


def test_extend_positive_worked_example():
    eta = extend_positive(vandermonde_point())
    assert_extend_post(eta, vandermonde_point(), positive=True)


@pytest.mark.parametrize("k,n", SPACES)
def test_extend_positive_random(k, n):
    rng = random.Random(200 + k + 10 * n)
    for _ in range(60):
        point = random_positive_point(rng, k, n)
        eta = extend_positive(point.rho)
        assert_extend_post(eta, point.rho, positive=True)


# -- chains and duality ----------------------------------------------------------


@pytest.mark.parametrize("k,n", SPACES)
def test_chains_preserve_positivity(k, n):
    rng = random.Random(300 + k + 10 * n)
    for _ in range(10):
        point = random_positive_point(rng, k, n)
        mv = point.rho
        while mv.k > 1:
            mv = shrink_positive(mv)
            assert classify_sign(mv) is SignClass.POSITIVE
        mv = point.rho
        while mv.k < n - 1:
            mv = extend_positive(mv)
            assert classify_sign(mv) is SignClass.POSITIVE


def test_duality_dual_shrink_gives_extension_witness():
    """Shrinking the Q-dual and dualizing back yields a containing plane."""
    rng = random.Random(13)
    for _ in range(15):
        point = random_positive_point(rng, 2, 4)
        dual = q_orthocomplement(point.rho)
        smaller = shrink_positive(dual)
        witness = q_orthocomplement(smaller)
        assert witness.k == point.rho.k + 1
        assert is_decomposable(witness)
        assert contains(point.rho, witness)


# -- the witnesses against their Fraction-row forms ----------------------------------
# The witnesses build their vectors with ``plucker.plane_vectors`` and take
# each completion row, and its sign or scale, straight from the RREF rows of
# their positive inputs.  The oracles below are the forms they replace:
# ``from_vector`` of the ``Fraction`` rows of ``spanning_vectors``, a
# completion row searched for by ranks, and a sign fixed by comparing
# coefficients, so equality also checks that the first row is the one the
# search finds and that no sign flip is needed.


def reference_completion_row(plane_rows, partial_rows):
    base = list(partial_rows)
    base_rank = linalg.rank(base) if base else 0
    for row in plane_rows:
        if linalg.rank(base + [row]) > base_rank:
            return row
    raise AssertionError("no completion row found; plane dimensions are off")


def reference_proportionality(a, b):
    key = b.support()[0]
    return a.coefficient(key) / b.coefficient(key)


# long enough for the skewed inputs above: their shrinks stop near 2^-200
REFERENCE_HALVINGS = 256


def reference_search(candidate):
    eps = Fraction(1, 2)
    for _ in range(REFERENCE_HALVINGS):
        result = candidate(eps)
        if classify_sign(result) is SignClass.POSITIVE:
            return normalize(result)
        eps /= 2
    raise EpsilonExhausted("no positive candidate")


def reference_shrink_nonneg(mv):
    if mv.k == 1:
        return MultiVector.scalar(mv.n, 1)
    rows = spanning_vectors(mv).rows
    return normalize(wedge_all([MultiVector.from_vector(r) for r in rows[1:]]))


def reference_shrink_positive(mv):
    n, k = mv.n, mv.k
    if k == 1:
        return MultiVector.scalar(n, 1)
    rows = spanning_vectors(mv).rows  # k < n, here and in the recursion
    first = MultiVector.from_vector(rows[0])
    tail = [MultiVector.from_vector(r) for r in rows[1:]]
    if k == 2:
        return reference_search(lambda eps: first * eps + tail[0])
    tail_wedge = normalize(wedge_all(tail))
    inner = reference_shrink_positive(tail_wedge.shift(-1)).shift(+1, n=n)
    tail_plane = spanning_vectors(tail_wedge).rows
    w_rest = [list(r) for r in spanning_vectors(inner).rows]
    rest_wedge = wedge_all([MultiVector.from_vector(r) for r in w_rest])
    if reference_proportionality(rest_wedge, inner) < 0:
        w_rest[0] = [-x for x in w_rest[0]]
        rest_wedge = -rest_wedge
    w2 = list(reference_completion_row(tail_plane, [tuple(r) for r in w_rest]))
    if reference_proportionality(
        wedge(MultiVector.from_vector(w2), rest_wedge), tail_wedge
    ) < 0:
        w2 = [-x for x in w2]
    w2_mv = MultiVector.from_vector(w2)
    w3_mv = MultiVector.from_vector(w_rest[0])
    later = [MultiVector.from_vector(r) for r in w_rest[1:]]

    def candidate(eps):
        return wedge_all(
            [w2_mv * eps + w3_mv, first * (-eps * eps) + w3_mv] + later
        )

    return reference_search(candidate)


def reference_extend_positive(mv):
    n, k = mv.n, mv.k
    if n == k + 1:
        return MultiVector.basis(n, range(1, n + 1))
    away = MultiVector(n, k, {
        key: c for key, c in mv.coeffs.items() if 1 not in key
    })
    bigger = reference_extend_positive(
        normalize(away.shift(-1))
    ).shift(+1, n=n)
    away_plane = spanning_vectors(away).rows
    row = reference_completion_row(
        spanning_vectors(bigger).rows, list(away_plane)
    )
    u = MultiVector.from_vector(row)
    v = u / reference_proportionality(wedge(u, away), bigger)
    e1 = MultiVector.basis(n, (1,))
    return reference_search(lambda eps: wedge(e1 + v * eps, mv))


@pytest.mark.parametrize(
    "k,n", [(2, 5), (3, 6), (3, 7), (2, 7), (4, 8), (5, 9), (6, 9)])
def test_witnesses_match_fraction_row_oracles(k, n):
    rng = random.Random(400 + k + 10 * n)
    for _ in range(4):
        rho = random_positive_point(rng, k, n).rho
        assert shrink_positive(rho) == reference_shrink_positive(rho)
        assert extend_positive(rho) == reference_extend_positive(rho)
        assert shrink_nonneg(rho) == reference_shrink_nonneg(rho)
        nonneg = random_nonneg_point(rng, k, n).rho
        assert shrink_nonneg(nonneg) == reference_shrink_nonneg(nonneg)


# -- the pieces of the witness searches -------------------------------------------


def test_plane_rows_wedge_to_the_element_over_its_first_coefficient():
    """The witnesses read signs and scales off RREF rows: the wedge of an
    element's plane rows is the element over its first coefficient, a
    positive multiple of it for a positive element, so shrink_positive's
    inner rows w3, ... wedge to a positive multiple of the recursive
    witness."""
    rng = random.Random(462)
    for k, n in [(1, 4), (2, 5), (3, 7), (4, 8)] * 5:
        mv = random_positive_point(rng, k, n).rho
        first = mv.coefficient(mv.support()[0])
        assert first > 0
        assert wedge_all(plucker.plane_vectors(mv)) == mv / first


def test_shrink_nonneg_of_a_marked_element_makes_no_wedge(monkeypatch):
    """On normalized minors from ``plucker_of_matrix``, which carry the
    decomposable mark, reading the plane makes no product, and the contained
    plane is a contraction by e_j: no ``wedge_ints`` call.  Wedging the
    plane's rows after the first made k - 2."""
    rng = random.Random(463)
    inputs = [normalize(plucker_of_matrix(random_positive_matrix(rng, k, n)))
              for k, n in [(1, 4), (2, 5), (3, 7), (4, 8), (6, 8)]]
    inputs.append(normalize(plucker_of_matrix(PlaneMatrix(
        [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 0], [0, 0, 0, 1, 2, 3]]))))
    assert classify_sign(inputs[-1]) is SignClass.NONNEGATIVE
    calls = 0
    wedge_ints = exterior.wedge_ints

    def counting(a, b, n):
        nonlocal calls
        calls += 1
        return wedge_ints(a, b, n)

    for module in (exterior, lemmas, plucker):
        monkeypatch.setattr(module, "wedge_ints", counting)
    shrunk = [shrink_nonneg(mv) for mv in inputs]
    monkeypatch.undo()
    assert calls == 0
    for eta, mv in zip(shrunk, inputs):
        assert_shrink_post(eta, mv, positive=False)


# the counts of the guard below
WEDGE_CAP = 207
PRODUCT_CAP = 0


def test_witness_chains_wedge_little_and_prove_no_plane_again(monkeypatch):
    """A guard with no timing in it: 20 fixed (3,7) and (4,8) chains, each
    plucker_of_matrix -> normalize -> ChamberPoint -> split -> assemble ->
    shrink_positive, extend_positive -> contains, make at most WEDGE_CAP
    ``wedge_ints`` calls and at most PRODUCT_CAP decomposability products.
    A product is a run of ``plucker``'s wedges of plane rows; it starts
    with the wedge of two rows.  With the decomposable mark, one wedge per
    extend search, the witness pieces read off plane rows and single
    coefficients and the shrink's tail wedge read off the coordinates as a
    contraction by e_1, the chains make 207 calls and no product (247 when
    the tail rows were wedged).  Without the mark and the single wedge they
    made 957 calls and 190 products; on the benchmark's exact_algebra
    inputs that was 45.8 ``wedge_ints`` calls and 9.0 products per op."""
    calls = products = 0
    wedge_ints = exterior.wedge_ints

    def counting(a, b, n):
        nonlocal calls
        calls += 1
        return wedge_ints(a, b, n)

    def counting_rows(a, b, n):
        nonlocal products
        products += len(next(iter(a))) == 1
        return counting(a, b, n)

    for module in (exterior, lemmas):
        monkeypatch.setattr(module, "wedge_ints", counting)
    monkeypatch.setattr(plucker, "wedge_ints", counting_rows)
    run_witness_chains()
    monkeypatch.undo()
    assert calls <= WEDGE_CAP, calls
    assert products <= PRODUCT_CAP, products


def test_witness_chains_decide_containment_without_elimination(monkeypatch):
    """A guard with no timing in it: the 20 chains above make no
    ``linalg.rank`` or ``linalg.eliminate`` call inside ``contains``, which
    substitutes the lower plane's rows into the upper plane's RREF rows.
    Ranking the stacked rows instead made one ``rank`` and one ``eliminate``
    call per ``contains`` call.  The witnesses make no ``contains`` call, so
    the checks are the chains' own two per chain: 40 in all (130 when the
    witnesses searched for completion rows by ``contains``)."""
    depth = checks = eliminations = 0
    original = plucker.contains

    def counting_contains(lower, upper):
        nonlocal depth, checks
        depth += 1
        checks += 1
        try:
            return original(lower, upper)
        finally:
            depth -= 1

    def counting(name):
        wrapped = getattr(linalg, name)

        def count(*args, **kwargs):
            nonlocal eliminations
            eliminations += depth > 0
            return wrapped(*args, **kwargs)
        return count

    for name in ("rank", "eliminate"):
        monkeypatch.setattr(linalg, name, counting(name))
    monkeypatch.setattr(plucker, "contains", counting_contains)
    run_witness_chains()
    monkeypatch.undo()
    assert checks == 40, checks
    assert eliminations == 0, eliminations


def run_witness_chains():
    """The guards' 20 fixed (3,7) and (4,8) chains, each checked exactly."""
    rng = random.Random(18)
    for shape in [(3, 7), (4, 8)] * 10:
        matrix = random_positive_matrix(rng, *shape)
        rho = ChamberPoint(normalize(plucker_of_matrix(matrix))).rho
        assert assemble(split(ChamberPoint(rho))).rho == rho
        shrunk, extended = shrink_positive(rho), extend_positive(rho)
        assert plucker.contains(shrunk, rho)
        assert plucker.contains(rho, extended)
