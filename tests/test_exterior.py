"""Exterior algebra: worked cases against independent oracles, then laws."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from bisect import bisect_left
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from grassball.exterior import (
    DECOMPOSABLE,
    GradeError,
    MultiVector,
    NormalizationError,
    SignClass,
    all_subsets,
    classify_sign,
    complement,
    contract,
    inner,
    integer_coeffs,
    normalize,
    q_form,
    wedge,
    wedge_all,
    wedge_first_ints,
    wedge_ints,
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


# -- integer storage against the Fraction-dict reference ----------------------


class FractionMultiVector:
    """Reference: the element as a dict of nonzero ``Fraction`` coefficients,
    with the arithmetic written over ``Fraction``s."""

    def __init__(self, n, k, coeffs):
        self.n, self.k = n, k
        self.coeffs = {
            key: Fraction(c) for key, c in coeffs.items() if Fraction(c)
        }

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + c
        return FractionMultiVector(self.n, self.k, out)

    def __neg__(self):
        return FractionMultiVector(
            self.n, self.k, {key: -c for key, c in self.coeffs.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scale):
        scale = Fraction(scale)
        return FractionMultiVector(
            self.n, self.k, {key: c * scale for key, c in self.coeffs.items()}
        )

    def __truediv__(self, scale):
        return self * (Fraction(1) / Fraction(scale))

    def __eq__(self, other):
        return (self.n, self.k, self.coeffs) == (other.n, other.k, other.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return f"MultiVector({self.n}, {self.k}, 0)"
        return " + ".join(
            f"{self.coeffs[key]}*" + ("e{" + ",".join(map(str, key)) + "}"
                                       if key else "1")
            for key in sorted(self.coeffs)
        )

    def coefficient_sum(self):
        return sum(self.coeffs.values(), Fraction(0))

    def shift(self, offset, n):
        return FractionMultiVector(n, self.k, {
            tuple(i + offset for i in key): c for key, c in self.coeffs.items()
        })


def reference_normalize(mv):
    total = mv.coefficient_sum()
    if total == 0:
        raise NormalizationError("coefficient sum is zero")
    return mv / total


def reference_contract(mv, v):
    out = {}
    for key, c in mv.coeffs.items():
        for pos, idx in enumerate(key):
            cv = v.coeffs.get((idx,))
            if cv is not None:
                reduced = key[:pos] + key[pos + 1 :]
                out[reduced] = out.get(reduced, Fraction(0)) + (-1) ** pos * c * cv
    return FractionMultiVector(mv.n, mv.k - 1, out)


def reference_wedge_all(factors):
    acc = factors[0]
    for f in factors[1:]:
        acc = FractionMultiVector(acc.n, acc.k + f.k, wedge_oracle(acc, f))
    return acc


def reference_sign(mv):
    if not mv.coeffs:
        return SignClass.ZERO
    if any(c < 0 for c in mv.coeffs.values()):
        return SignClass.MIXED
    full = len(all_subsets(mv.n, mv.k))
    return (SignClass.POSITIVE if len(mv.coeffs) == full
            else SignClass.NONNEGATIVE)


def both(n, k, coeffs):
    return MultiVector(n, k, coeffs), FractionMultiVector(n, k, coeffs)


def same_element(got, ref):
    """got is ref: same printout, same Fraction view, stored in lowest terms
    with a positive denominator, and equal, with equal hash, to the element
    the public constructor builds from the reference's coefficients."""
    assert (got.n, got.k) == (ref.n, ref.k)
    assert repr(got) == repr(ref)
    assert got.coeffs == ref.coeffs
    ints, den = integer_coeffs(got)
    assert den > 0 and gcd(den, *ints.values()) == 1 and all(ints.values())
    twin = MultiVector(ref.n, ref.k, ref.coeffs)
    assert got == twin and hash(got) == hash(twin)


def oracle_coeffs(rng, n, k, nonneg=False):
    """Random coefficients with denominators up to 12 digits, often on a
    shared denominator so that sums cancel."""
    keys = all_subsets(n, k)
    shared = rng.randint(1, 10**12)
    density = rng.choice([0.3, 0.8, 1.0])
    coeffs = {}
    for key in keys:
        if rng.random() < density:
            den = rng.choice([1, 6, shared, shared, rng.randint(1, 10**12)])
            num = rng.randint(0 if nonneg else -10**6, 10**6)
            coeffs[key] = Fraction(num, den)
    return coeffs


def oracle_partner(rng, n, k, coeffs):
    """A second element of the same shape: independent, the negative of
    the first with some coefficients changed (the rest cancel), or the
    first scaled (cancelling entirely under subtraction)."""
    mode = rng.randrange(3)
    if mode == 0:
        return oracle_coeffs(rng, n, k)
    if mode == 1:
        out = {key: -c for key, c in coeffs.items()}
        keys = all_subsets(n, k)
        for key in rng.sample(keys, rng.randint(0, min(2, len(keys)))):
            out[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 10**12))
        return out
    return {key: c * rng.choice([1, -1, Fraction(3, 7)])
            for key, c in coeffs.items()}


def oracle_scalar(rng):
    return rng.choice([
        0, 1, -1, rng.randint(-10**6, 10**6),
        Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**12)),
        str(Fraction(rng.randint(1, 99), rng.randint(1, 99))),
    ])


def test_integer_storage_matches_fraction_reference():
    rng = random.Random(110)
    cancelled = normalize_failures = 0
    for _ in range(2000):
        n = rng.randint(1, 7)
        k = rng.randint(0, n)
        coeffs = oracle_coeffs(rng, n, k, nonneg=rng.random() < 0.25)
        a, ref_a = both(n, k, coeffs)
        same_element(a, ref_a)
        b, ref_b = both(n, k, oracle_partner(rng, n, k, coeffs))
        same_element(a + b, ref_a + ref_b)
        same_element(a - b, ref_a - ref_b)
        same_element(-a, -ref_a)
        cancelled += (a + b).is_zero() or (a - b).is_zero()
        assert (a == b) == (ref_a == ref_b)
        scale = oracle_scalar(rng)
        same_element(a * scale, ref_a * scale)
        same_element(scale * a, ref_a * scale)
        if Fraction(scale):
            same_element(a / scale, ref_a / scale)
        else:
            with pytest.raises(ZeroDivisionError):
                a / scale
        assert a.coefficient_sum() == ref_a.coefficient_sum()
        assert type(a.coefficient_sum()) is Fraction
        try:
            ref_norm = reference_normalize(ref_a)
        except NormalizationError:
            normalize_failures += 1
            with pytest.raises(NormalizationError):
                normalize(a)
        else:
            same_element(normalize(a), ref_norm)
        if n < 7:
            same_element(a.shift(+1, n=n + 1), ref_a.shift(+1, n + 1))
        if k:
            v, ref_v = both(n, 1, oracle_coeffs(rng, n, 1))
            same_element(contract(a, v), reference_contract(ref_a, ref_v))
        grades = [k]
        while sum(grades) < n and len(grades) < 3 and rng.random() < 0.8:
            grades.append(rng.randint(0, min(2, n - sum(grades))))
        factors = [(a, ref_a)] + [
            both(n, g, oracle_coeffs(rng, n, g)) for g in grades[1:]
        ]
        if len(factors) == 2 and k % 2 and 2 * k <= n and rng.random() < 0.3:
            factors[1] = (a, ref_a)  # odd grade: squares to zero
        same_element(
            wedge_all([f for f, _ in factors]),
            reference_wedge_all([r for _, r in factors]),
        )
        assert classify_sign(a) is reference_sign(ref_a)
    assert cancelled >= 300 and normalize_failures >= 100


def test_every_construction_of_an_element_is_equal_with_equal_hash():
    rng = random.Random(111)
    for _ in range(400):
        n = rng.randint(1, 7)
        k = rng.randint(0, n)
        coeffs = oracle_coeffs(rng, n, k)
        a = MultiVector(n, k, coeffs)
        den = 1
        for c in coeffs.values():
            den = den * c.denominator // gcd(den, c.denominator)
        ints = {key: c.numerator * (den // c.denominator)
                for key, c in coeffs.items() if c}
        m = rng.choice([-1, 2, -3, rng.randint(2, 10**12)])
        b, _ = both(n, k, oracle_partner(rng, n, k, coeffs))
        scale = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**12))
        twins = [
            MultiVector(n, k, {key: str(c) for key, c in coeffs.items()}),
            MultiVector._of_ints(n, k, {key: c * m for key, c in ints.items()},
                                 den * m),
            MultiVector._of_ints(n, k, {key: -c for key, c in ints.items()},
                                 -den),
            (a + b) - b,
            (a - b) + b,
            (a * scale) / scale,
            -(-a),
            MultiVector.from_json(a.to_json()),
        ]
        if n < 7:
            twins.append(a.shift(+1, n=n + 1).shift(-1, n=n))
        for twin in twins:
            assert twin == a and hash(twin) == hash(a)
            assert integer_coeffs(twin) == integer_coeffs(a)
        frames = {a: "frame"}
        assert all(frames[twin] == "frame" for twin in twins)


def test_shift_keeps_the_constructor_checks():
    mv = MultiVector(4, 2, {(1, 2): 1, (2, 4): 2})
    with pytest.raises(ValueError, match="not ascending in 1..3"):
        mv.shift(-1)
    with pytest.raises(ValueError, match="not ascending in 1..4"):
        mv.shift(+1, n=4)
    with pytest.raises(GradeError):
        MultiVector.basis(3, (1, 2, 3)).shift(0, n=2)


# -- the grade-1 wedge kernel against the general integer loop -----------------
# ``wedge_ints`` places a grade-1 factor, on either side, with a table per
# (n, key).  The oracle below is the loop it replaces, over every pair of
# keys with single indices placed by bisection.


def reference_wedge_ints(a, b):
    out = {}
    for key_a, ca in a.items():
        size_a = len(key_a)
        for key_b, cb in b.items():
            if len(key_b) == 1:  # the x in A above y
                y = key_b[0]
                pos = bisect_left(key_a, y)
                if pos < size_a and key_a[pos] == y:
                    continue
                merged = key_a[:pos] + key_b + key_a[pos:]
                inversions = size_a - pos
            elif size_a == 1:  # the y in B below x
                x = key_a[0]
                pos = bisect_left(key_b, x)
                if pos < len(key_b) and key_b[pos] == x:
                    continue
                merged = key_b[:pos] + key_a + key_b[pos:]
                inversions = pos
            elif set(key_a).isdisjoint(key_b):
                merged = tuple(sorted(key_a + key_b))
                inversions = sum(x > y for x in key_a for y in key_b)
            else:
                continue
            term = ca * cb
            out[merged] = out.get(merged, 0) + (-term if inversions & 1 else term)
    return {key: c for key, c in out.items() if c}


def random_int_map(rng, n, k, density):
    """Nonzero ints, small and large, as the coefficient maps hold them."""
    out = {}
    for key in combinations(range(1, n + 1), k):
        if rng.random() < density:
            out[key] = rng.choice([rng.randint(1, 9),
                                   rng.randint(1, 10**15)]) * rng.choice([-1, 1])
    return out


@pytest.mark.parametrize("grades", ["right", "left", "both", "neither"])
def test_wedge_ints_kernel_matches_general_loop(grades):
    rng = random.Random(120 + len(grades))
    zeros = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        if grades == "both":
            ka = kb = 1
        elif grades == "neither":
            ka = rng.choice([0] + list(range(2, n + 1)))
            kb = rng.choice([0] + list(range(2, n - ka + 1)) if n - ka >= 2
                            else [0])
        else:
            ka, kb = rng.randint(0, n - 1), 1
        if n < ka + kb:
            continue
        a = random_int_map(rng, n, ka, rng.random())
        b = random_int_map(rng, n, kb, rng.random())
        if grades == "left":
            a, b = b, a
        got = wedge_ints(a, b, n)
        assert got == reference_wedge_ints(a, b)
        assert all(got.values())
        zeros += not got
    assert zeros >= 20


def test_wedge_ints_kernel_on_overlaps_and_cancellations():
    rng = random.Random(125)
    for _ in range(200):
        n = rng.randint(2, 8)
        k = rng.randint(1, n - 1)
        # e_y ^ e_B with y in B, and an element against itself
        omega = random_int_map(rng, n, k, 1.0)
        y = rng.choice(next(iter(omega)))
        for a, b in (({(y,): 3}, omega), (omega, {(y,): -5})):
            assert wedge_ints(a, b, n) == reference_wedge_ints(a, b)
        v = random_int_map(rng, n, 1, 1.0)
        assert wedge_ints(v, v, n) == {} == reference_wedge_ints(v, v)
        # (v ^ omega) ^ v and v ^ (v ^ omega) cancel to zero on both sides
        vo = wedge_ints(v, omega, n)
        if vo:
            assert wedge_ints(vo, v, n) == {}
            assert wedge_ints(v, vo, n) == {}
        # (e_1 + e_2) ^ (e_1 - e_2): the two cross terms add up to -2 e_12
        assert wedge_ints({(1,): 1, (2,): 1}, {(1,): 1, (2,): -1}, n) == {
            (1, 2): -2}


def test_wedge_first_ints_is_the_wedge_by_e1():
    rng = random.Random(126)
    for _ in range(200):
        n = rng.randint(2, 8)
        k = rng.randint(0, n - 1)
        omega = random_int_map(rng, n, k, rng.random())
        assert wedge_first_ints(omega) == reference_wedge_ints(
            {(1,): 1}, omega)


# -- the decomposable mark ------------------------------------------------------


def marked(mv):
    return getattr(mv, "_plane", None) is DECOMPOSABLE


def test_the_mark_is_set_on_products_of_vectors_and_carried_by_scaling():
    rng = random.Random(127)
    for _ in range(100):
        n = rng.randint(4, 8)
        k = rng.randint(2, n - 2)
        rows = [random_rational_mv(rng, n, 1, 0.9) for _ in range(k)]
        product = wedge_all(rows)
        if product.is_zero():
            assert not marked(product)
            continue
        assert marked(product)
        scale = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        carried = [product * scale, scale * product, product / scale,
                   -product, product.shift(+1, n=n + 1)]
        if product.coefficient_sum():
            carried.append(normalize(product))
        assert all(marked(x) for x in carried)
        # a sum, the public constructor, JSON and a scaling by zero do not
        other = wedge_all([random_rational_mv(rng, n, 1, 0.9)
                           for _ in range(k)])
        unmarked = [product + other, product - other * 0 + other * 0,
                    MultiVector(n, k, product.coeffs),
                    MultiVector.from_json(product.to_json()), product * 0]
        assert not any(marked(x) for x in unmarked)
        # a factor that is not known to be decomposable keeps the product
        # unmarked
        assert not marked(wedge(product + other, rows[0]))


@pytest.mark.parametrize("build,error,message", [
    pytest.param(lambda: MultiVector(4, 2, {(1,): 1}), ValueError,
                 "does not have size 2", id="short key"),
    pytest.param(lambda: MultiVector(4, 2, {(2, 1): 1}), ValueError,
                 "not ascending in 1..4", id="descending key"),
    pytest.param(lambda: MultiVector(2, 3), GradeError,
                 "grade 3 out of range", id="grade above n"),
    pytest.param(lambda: MultiVector.basis(4, (1,)) + MultiVector.basis(4, (1, 2)),
                 GradeError, r"shape mismatch: \(4,1\) vs \(4,2\)",
                 id="sum of shapes"),
    pytest.param(lambda: contract(MultiVector.basis(4, (1, 2)),
                                  MultiVector.basis(4, (1, 2))),
                 GradeError, "direction must have grade 1", id="contract grade"),
    pytest.param(lambda: contract(MultiVector.basis(4, (1, 2)),
                                  MultiVector.basis(3, (1,))),
                 GradeError, "ambient mismatch: 4 vs 3", id="contract ambient"),
    pytest.param(lambda: inner(MultiVector.basis(4, (1,)),
                               MultiVector.basis(4, (1, 2))),
                 GradeError, "requires equal shapes", id="inner shapes"),
])
def test_public_input_checks_raise_documented_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()
