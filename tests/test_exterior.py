"""Exterior algebra: worked cases against independent oracles, then laws."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from grassball.exterior import (
    GradeError,
    MultiVector,
    NormalizationError,
    SignClass,
    all_subsets,
    classify_sign,
    complement,
    contract,
    inner,
    normalize,
    q_form,
    wedge,
    wedge_all,
)


def basis(n, *idx):
    return MultiVector.basis(n, idx)


def perm_sign(seq):
    """Sign of a permutation given as a sequence, by inversion count."""
    inversions = sum(
        1 for i, j in combinations(range(len(seq)), 2) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


@st.composite
def multivectors(draw, n=None, k=None):
    n = n if n is not None else draw(st.integers(2, 5))
    k = k if k is not None else draw(st.integers(0, n))
    keys = list(combinations(range(1, n + 1), k))
    coeffs = {}
    for key in keys:
        c = draw(
            st.fractions(
                min_value=-4, max_value=4, max_denominator=3
            )
        )
        if c:
            coeffs[key] = c
    return MultiVector(n, k, coeffs)


# -- wedge -------------------------------------------------------------------


def test_wedge_basis_cases():
    assert wedge(basis(4, 1), basis(4, 2)) == basis(4, 1, 2)
    assert wedge(basis(4, 2), basis(4, 1)) == -basis(4, 1, 2)
    v = basis(4, 1) + basis(4, 2)
    assert wedge(v, v).is_zero()


def test_wedge_sign_matches_permutation_sign():
    # wedging single basis vectors in any order gives the permutation sign
    for perm in permutations((1, 2, 3)):
        acc = basis(3, perm[0])
        for i in perm[1:]:
            acc = wedge(acc, basis(3, i))
        assert acc == basis(3, 1, 2, 3) * perm_sign(perm)


def test_wedge_errors():
    with pytest.raises(GradeError, match=r"grade overflow: 2\+2 > 3"):
        wedge(basis(3, 1, 2), basis(3, 2, 3))
    with pytest.raises(GradeError, match=r"ambient mismatch: 3 vs 4"):
        wedge(basis(3, 1), basis(4, 1))
    # wedge_all reports the first factor that does not fit
    with pytest.raises(GradeError, match=r"grade overflow: 3\+2 > 4"):
        wedge_all([basis(4, 1), basis(4, 2, 3), basis(4, 1, 4), basis(5, 1)])
    with pytest.raises(GradeError, match=r"ambient mismatch: 4 vs 5"):
        wedge_all([basis(4, 1), basis(4, 2), basis(5, 1), basis(4, 1, 2, 3)])
    with pytest.raises(ValueError, match="empty wedge"):
        wedge_all([])
    single = basis(4, 2, 3) * Fraction(-5, 7)
    assert wedge_all([single]) is single


def test_grade_zero_wedge_is_scalar_multiplication():
    s = MultiVector.scalar(4, Fraction(3, 2))
    v = basis(4, 2) + 2 * basis(4, 3)
    assert wedge(s, v) == v * Fraction(3, 2)
    assert wedge(v, s) == v * Fraction(3, 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wedge_antisymmetry(data):
    n = data.draw(st.integers(2, 5))
    j = data.draw(st.integers(0, n))
    k = data.draw(st.integers(0, n - j))
    a = data.draw(multivectors(n=n, k=j))
    b = data.draw(multivectors(n=n, k=k))
    sign = (-1) ** (j * k)
    assert wedge(a, b) == wedge(b, a) * sign


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wedge_associative_and_bilinear(data):
    n = data.draw(st.integers(3, 5))
    a = data.draw(multivectors(n=n, k=1))
    b = data.draw(multivectors(n=n, k=1))
    c = data.draw(multivectors(n=n, k=1))
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
    assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)


def wedge_oracle(a, b):
    """The product as a loop over Fraction coefficients: e_A ^ e_B is 0 when
    A and B meet, else the sign of the permutation A + B times e_(A u B)."""
    out = {}
    for key_a, ca in a.coeffs.items():
        for key_b, cb in b.coeffs.items():
            if set(key_a) & set(key_b):
                continue
            merged = tuple(sorted(key_a + key_b))
            term = perm_sign(key_a + key_b) * ca * cb
            out[merged] = out.get(merged, Fraction(0)) + term
    return {key: c for key, c in out.items() if c}


def random_rational_mv(rng, n, k, density):
    """Negative coefficients and denominators up to 12 digits."""
    coeffs = {}
    for key in combinations(range(1, n + 1), k):
        if rng.random() < density:
            den = rng.choice([1, 2, 3, 7, rng.randint(1, 10**12)])
            coeffs[key] = Fraction(rng.randint(-10**6, 10**6), den)
    return MultiVector(n, k, coeffs)


def same_as_oracle(product, n, k, expected):
    assert (product.n, product.k) == (n, k)
    assert product.coeffs == expected
    assert all(type(c) is Fraction and c for c in product.coeffs.values())


def test_wedge_matches_fraction_loop_on_pairs_and_triples():
    rng = random.Random(70)
    zeros = 0
    for trial in range(600):
        n = rng.randint(1, 7)
        first = random_rational_mv(rng, n, rng.randint(0, n), rng.random())
        if trial % 5 == 0 and first.k % 2 and 2 * first.k <= n:
            factors = [first, first]  # odd grade: squares to zero
        else:
            k = rng.randint(0, n - first.k)
            factors = [first, random_rational_mv(rng, n, k, rng.random())]
        if trial % 2:
            k = rng.randint(0, n - first.k - factors[1].k)
            factors.append(random_rational_mv(rng, n, k, rng.random()))
        expected = wedge_oracle(factors[0], factors[1])
        k = first.k + factors[1].k
        same_as_oracle(wedge(factors[0], factors[1]), n, k, expected)
        for f in factors[2:]:
            expected = wedge_oracle(MultiVector(n, k, expected), f)
            k += f.k
        same_as_oracle(wedge_all(factors), n, k, expected)
        zeros += not expected
    assert zeros >= 50


def test_wedge_products_that_cancel_to_zero():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(4, 7)
        rows = [random_rational_mv(rng, n, 1, 0.9) for _ in range(3)]
        plane = wedge_all(rows)
        mix = rows[0] * Fraction(2, 3) - rows[2] * Fraction(5, 10**11 + 3)
        assert wedge(mix, plane).is_zero()
        assert wedge_all([rows[0], rows[1], rows[0]]).is_zero()
        odd = random_rational_mv(rng, n, 1, 1.0)
        assert wedge(odd, odd) == MultiVector.zero(n, 2)
    # (e1 + e2) ^ (e1 - e2) = -2 e12: the e11, e22 terms never appear and
    # the two cross terms add up
    assert wedge(basis(3, 1) + basis(3, 2), basis(3, 1) - basis(3, 2)) == (
        basis(3, 1, 2) * -2
    )
    # e12 + e34 squared is 2 e1234, while e12 + e13 squared cancels
    omega = basis(4, 1, 2) + basis(4, 3, 4)
    assert wedge(omega, omega) == basis(4, 1, 2, 3, 4) * 2
    flat = basis(4, 1, 2) + basis(4, 1, 3)
    assert wedge(flat, flat).is_zero()


# -- contract ----------------------------------------------------------------


def contract_oracle(mv, v):
    """Independent contraction: solve the adjoint identity on every basis xi."""
    coeffs = {}
    for xi in all_subsets(mv.n, mv.k - 1):
        value = inner(mv, wedge(v, MultiVector.basis(mv.n, xi)))
        if value:
            coeffs[xi] = value
    return MultiVector(mv.n, mv.k - 1, coeffs)


def test_contract_basis_cases():
    assert contract(basis(4, 1, 2), basis(4, 1)) == basis(4, 2)
    assert contract(basis(4, 1, 2), basis(4, 2)) == -basis(4, 1)


def test_contract_derived_case_against_oracle():
    mv = basis(4, 1, 2) + basis(4, 3, 4)
    v = basis(4, 3)
    expected = contract_oracle(mv, v)
    assert expected == basis(4, 4)  # frozen from the oracle
    assert contract(mv, v) == expected


def test_contract_grade_zero_errors():
    with pytest.raises(GradeError):
        contract(MultiVector.scalar(3, 1), basis(3, 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_contract_adjunction(data):
    n = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(1, n))
    mv = data.draw(multivectors(n=n, k=k))
    v = data.draw(multivectors(n=n, k=1))
    got = contract(mv, v)
    for xi in all_subsets(n, k - 1):
        xi_mv = MultiVector.basis(n, xi)
        assert inner(got, xi_mv) == inner(mv, wedge(v, xi_mv))


# -- normalize ---------------------------------------------------------------


def test_normalize_cases():
    v = 2 * basis(3, 1) + 3 * basis(3, 2)
    out = normalize(v)
    assert out == Fraction(2, 5) * basis(3, 1) + Fraction(3, 5) * basis(3, 2)
    assert normalize(out) == out
    with pytest.raises(NormalizationError):
        normalize(basis(3, 1) - basis(3, 2))


# -- classify_sign -----------------------------------------------------------


def test_classify_examples():
    nonneg = MultiVector(3, 2, {(1, 2): 1, (1, 3): 1})
    assert classify_sign(nonneg) is SignClass.NONNEGATIVE
    mixed = MultiVector(4, 2, {(1, 2): 1, (3, 4): -1})
    assert classify_sign(mixed) is SignClass.MIXED
    assert classify_sign(MultiVector.zero(4, 2)) is SignClass.ZERO


def test_classify_vandermonde_minors_positive():
    # oracle: 2x2 minors of rows (1,1,1,1), (0,1,2,3), computed directly
    rows = [[1, 1, 1, 1], [0, 1, 2, 3]]
    coeffs = {}
    for a, b in combinations(range(4), 2):
        coeffs[(a + 1, b + 1)] = Fraction(
            rows[0][a] * rows[1][b] - rows[0][b] * rows[1][a], 10
        )
    assert [coeffs[key] * 10 for key in sorted(coeffs)] == [1, 2, 3, 1, 2, 1]
    assert classify_sign(MultiVector(4, 2, coeffs)) is SignClass.POSITIVE


# -- complement --------------------------------------------------------------


def test_complement_cases():
    assert complement(basis(4, 1, 3)) == basis(4, 2, 4)
    mv = MultiVector(
        4,
        2,
        {
            key: Fraction(c, 10)
            for key, c in zip(sorted(all_subsets(4, 2)), (1, 2, 3, 1, 2, 1))
        },
    )
    out = complement(mv)
    # componentwise application of the definition
    expected = {
        (3, 4): Fraction(1, 10),
        (2, 4): Fraction(2, 10),
        (2, 3): Fraction(3, 10),
        (1, 4): Fraction(1, 10),
        (1, 3): Fraction(2, 10),
        (1, 2): Fraction(1, 10),
    }
    assert out == MultiVector(4, 2, expected)
    assert complement(out) == mv


@settings(max_examples=60, deadline=None)
@given(multivectors())
def test_complement_involution_and_sign(mv):
    assert complement(complement(mv)) == mv
    assert classify_sign(complement(mv)) is classify_sign(mv)


# -- q_form ------------------------------------------------------------------


def q_sign_oracle(key, n):
    """Independent sign: the permutation (key, complement) of (1..n)."""
    rest = tuple(i for i in range(1, n + 1) if i not in key)
    return perm_sign(key + rest)


def test_q_form_examples():
    assert q_form(basis(4, 1, 2), basis(4, 1, 2)) == q_sign_oracle((1, 2), 4) == 1
    assert q_form(basis(4, 1, 3), basis(4, 1, 3)) == q_sign_oracle((1, 3), 4) == -1
    assert q_form(basis(4, 1, 2), basis(4, 1, 3)) == 0


def test_q_form_grade_mismatch():
    with pytest.raises(GradeError):
        q_form(basis(4, 1), basis(4, 1, 2))


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2), (5, 3), (6, 3)])
def test_q_form_gram_is_signed_permutation(n, k):
    keys = all_subsets(n, k)
    gram = [
        [q_form(MultiVector.basis(n, a), MultiVector.basis(n, b)) for b in keys]
        for a in keys
    ]
    for i, row in enumerate(gram):
        nonzero = [(j, v) for j, v in enumerate(row) if v]
        assert len(nonzero) == 1
        j, v = nonzero[0]
        assert j == i and abs(v) == 1
        assert v == q_sign_oracle(keys[i], n)


def test_q_form_wedge_identity():
    rng = random.Random(0)
    from grassball.sampling import random_multivector

    top = tuple(range(1, 5))
    for _ in range(50):
        a = random_multivector(rng, 4, 2)
        b = random_multivector(rng, 4, 2)
        assert wedge(a, complement(b)).coefficient(top) == q_form(a, b)


# -- misc --------------------------------------------------------------------


def test_json_round_trip():
    mv = MultiVector(4, 2, {(1, 2): Fraction(1, 10), (1, 3): Fraction(2, 10)})
    assert MultiVector.from_json(mv.to_json()) == mv
    parsed = MultiVector.from_json(
        '{"n":4,"k":2,"coeffs":{"1,2":"1/10","1,3":"2/10"}}'
    )
    assert parsed == mv


def test_shift_round_trip():
    mv = MultiVector(4, 2, {(2, 3): 1, (2, 4): 2})
    down = mv.shift(-1)
    assert down.n == 3 and down.coefficient((1, 2)) == 1
    assert down.shift(+1, n=4) == mv


def test_immutability():
    mv = basis(3, 1)
    with pytest.raises(AttributeError):
        mv.n = 5
