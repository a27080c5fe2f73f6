"""Constructive shrink/extend witnesses for nonnegative decomposable vectors.

Given a normalized nonnegative decomposable grade-k element, ``shrink_*``
produces a contained grade-(k-1) element and ``extend_*`` a containing
grade-(k+1) element, preserving nonnegativity; the ``*_positive`` variants
keep strict positivity by an explicit epsilon construction, epsilon the
first of 1/2, 1/4, ... that works, halved as far as a bound read off the
candidate's own integers requires (``_search``).

Every witness is a wedge of vectors by construction, so it carries the
decomposable mark of ``exterior`` and ``plucker`` reads its plane with no
decomposability product.  The searches wedge as little as they can.  The
contained plane a shrink starts from, the wedge of the plane's RREF rows
after the first, is a relabel: ``mv`` contracted by e_j, j the least index
in its support, keeps the keys that hold j and drops j from them, and over
the integer coefficients c of ``mv`` the wedge of the integer RREF rows
(the RREF times p = c[I], I the first key) after the first is p^(k-2)
times that contraction (``_contract_least``).  An extend candidate
(e_1 + eps v) ^ omega is e_1 ^ omega + eps (v ^ omega), an integer
combination of a relabel and one wedge made once per search.  The row that
completes a recursive witness to the plane around it needs no search, and
its sign or scale no wedge: the recursion's inputs are positive, so every
plane involved has the first columns of its ambient as RREF pivots, the
first RREF row of the outer plane completes the inner one, and the
proportionality factor is a ratio of two coefficients, positive.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .exterior import (
    MultiVector,
    SignClass,
    _known_decomposable,
    classify_sign,
    combine_ints,
    normalize,
    wedge,
    wedge_all,
    wedge_first_ints,
    wedge_ints,
)
from .plucker import plane_vectors, require_chamber_vector

__all__ = [
    "EpsilonExhausted",
    "shrink_nonneg",
    "shrink_positive",
    "extend_nonneg",
    "extend_positive",
]


class EpsilonExhausted(RuntimeError):
    """No epsilon makes the witness candidate positive: on some key its
    lowest-order coefficient is not positive, so the witness's hypothesis
    fails, which a strictly positive decomposable input rules out."""


def _l1(v: MultiVector) -> int:
    """Sum of the absolute values of v's integer coefficients."""
    return sum(map(abs, v._ints.values()))


def _search(bound: int, candidate) -> MultiVector:
    """First eps = 2^-j, j = 1, 2, ..., whose candidate is strictly positive,
    tried up to j = ``bound.bit_length()``.

    Each candidate is a polynomial in eps; over one denominator it has
    integer coefficients on every key, and ``bound`` is at least the sum of
    the absolute values of those above the lowest nonzero one, on any key.
    When the witness exists that lowest coefficient, of eps^i say, is an
    integer a >= 1, so for eps <= 1 the key's value is at least
    eps^i (a - eps bound), positive once 2^j > bound, which holds at
    j = bound.bit_length().  If instead some key's polynomial is zero or its
    lowest coefficient negative, that key's value stays at most 0 from that
    j on, so a search that fails there could not succeed further down.
    """
    halvings = bound.bit_length()
    for j in range(1, halvings + 1):
        result = candidate(Fraction(1, 1 << j))
        if classify_sign(result) is SignClass.POSITIVE:
            return normalize(result)
    raise EpsilonExhausted(
        f"no positive candidate for eps down to 2^-{halvings}"
    )


def _contract_least(mv: MultiVector) -> MultiVector:
    """mv contracted by e_j, j the least index in its support: the keys that
    hold j, with j dropped and no sign, since j comes first in each of them.

    With p = mv[I] on the first key I and r_1, ..., r_k the RREF rows of
    mv's plane, r_1 reads 1 at column j and the other rows 0 there, so
    contracting r_1 ^ R by e_j gives R = r_2 ^ ... ^ r_k; and r_1 ^ R is
    mv / p.  So the result is p R, a multiple of a wedge of vectors, and
    carries the decomposable mark.
    """
    j = min(mv._ints)[0]
    return MultiVector._of_ints(
        mv.n, mv.k - 1,
        {key[1:]: c for key, c in mv._ints.items() if key[0] == j},
        mv._den, True,
    )


def shrink_nonneg(mv: MultiVector) -> MultiVector:
    """Nonnegative nonzero grade-(k-1) element contained in ``mv``.

    Row-reduce the plane so the first spanning vector is e_j plus higher
    columns (j the least index in the support); the wedge of the remaining
    rows is nonnegative and lies in the plane.  It is read off the
    coordinates, normalized: mv contracted by e_j is mv[I] times that wedge
    (``_contract_least``), I the first key, and mv[I] > 0.
    """
    require_chamber_vector(mv)
    if mv.k < 1:
        raise ValueError("cannot shrink a grade-0 element")
    return normalize(_contract_least(mv))


def _all_hyperplane_vector(n: int) -> MultiVector:
    """Sum of every grade-(n-1) basis element; positive and decomposable."""
    from itertools import combinations

    coeffs = {key: Fraction(1) for key in combinations(range(1, n + 1), n - 1)}
    return normalize(MultiVector(n, n - 1, coeffs))


def shrink_positive(mv: MultiVector) -> MultiVector:
    """Strictly positive grade-(k-1) element contained in ``mv``.

    Recursive construction: for grade 2 take eps*(e_1+v_1) + v_2; above that,
    refactor the tail wedge so its own tail is positive (recursion one grade
    and one dimension down) and combine per
    (eps*w_2 + w_3) ^ (-eps^2*(e_1+v_1) + w_3) ^ w_4 ^ ... ^ w_k.

    ``_search`` halves eps within a bound, here over integer vectors F,
    W_i, L over denominators d_F, d_i: at grade 2 the candidate times
    d_F d_2 is d_F W_2 + eps d_2 F, bound |F|_1 d_2; above it, it is
    eps w_2^w_3^L - eps^2 w_3^f^L - eps^3 w_2^f^L, L the later factors, and
    no minor exceeds the product of its rows' l1 norms (Hadamard), so the
    bound is prod |L|_1 |F|_1 (|W_3|_1 d_2 + |W_2|_1 d_3).
    """
    require_chamber_vector(mv, positive=True)
    return _shrink_positive(mv)


def _shrink_positive(mv: MultiVector) -> MultiVector:
    """``shrink_positive`` of a positive ``mv``, unchecked: its recursion
    hands on only positive elements."""
    n, k = mv.n, mv.k
    if k == 1:
        return MultiVector.scalar(n, 1)
    if k == n:
        return _all_hyperplane_vector(n)

    first, *tail = plane_vectors(mv)  # first is e_1 + v_1, no earlier columns

    if k == 2:
        return _search(_l1(first) * tail[0]._den,
                       lambda eps: first * eps + tail[0])

    # mv contracted by e_1, a positive multiple of the wedge of the tail
    # rows, is positive away from index 1; recurse in R^(n-1).
    tail_wedge = _contract_least(mv)
    inner = _shrink_positive(tail_wedge.shift(-1)).shift(+1, n=n)

    # The rows of inner's RREF wedge to inner over its first coefficient, a
    # positive multiple of the recursive witness.  The tail wedge is positive
    # on 2..n with pivots I = {2..k}, and tail[0], its first RREF row, is 1
    # at column 2 and 0 at 3..k, so tail[0] ^ inner is
    # inner[{3..k}] / tail_wedge[I] > 0 times the tail wedge: tail[0]
    # completes inner, with the right sign.
    w2 = tail[0]
    w3, *later = plane_vectors(inner)

    def candidate(eps: Fraction) -> MultiVector:
        return wedge_all([w2 * eps + w3, first * (-eps * eps) + w3, *later])

    bound = prod(map(_l1, [first, *later])) * (
        _l1(w3) * w2._den + _l1(w2) * w3._den)
    return _search(bound, candidate)


def _least_omitted_index(mv: MultiVector) -> int:
    """Smallest index missing from at least one support set."""
    for j in range(1, mv.n + 1):
        if any(j not in key for key in mv._ints):
            return j
    raise ValueError("every index lies in every support set; is the grade n?")


def extend_nonneg(mv: MultiVector) -> MultiVector:
    """Nonnegative nonzero grade-(k+1) element containing ``mv``.

    Wedges on e_j for the least index j omitted by some support set; every
    smaller index lies in every support set, which makes the sign uniform.
    """
    require_chamber_vector(mv)
    if mv.k >= mv.n:
        raise ValueError("cannot extend a top-grade element")
    j = _least_omitted_index(mv)
    sign = -1 if (j - 1) % 2 else 1
    return normalize(wedge(MultiVector.basis(mv.n, (j,)), mv) * sign)


def extend_positive(mv: MultiVector) -> MultiVector:
    """Strictly positive grade-(k+1) element containing ``mv``.

    Induction on the ambient dimension: the part of ``mv`` away from index 1
    is positive one dimension down; a recursively extended witness supplies a
    direction v with v ^ omega_2 positive, and (e_1 + eps*v) ^ mv works for
    small eps.  That candidate is e_1 ^ mv + eps * (v ^ mv): a relabel and
    one wedge, made once, and one integer combination per eps.  Over the
    denominators d_v of v and d of mv it is d_v (e_1 ^ M) + eps (V ^ M), so
    ``_search`` halves eps within the bound max |V ^ M|.
    """
    require_chamber_vector(mv, positive=True)
    return _extend_positive(mv)


def _extend_positive(mv: MultiVector) -> MultiVector:
    """``extend_positive`` of a positive ``mv``, unchecked: its recursion
    hands on only positive elements."""
    n, k = mv.n, mv.k
    if k >= n:
        raise ValueError("cannot extend a top-grade element")
    if n == k + 1:
        return MultiVector.basis(n, range(1, n + 1))

    # the projection of mv away from e_1, decomposable when mv is
    known = _known_decomposable(mv)
    away = MultiVector._of_ints(
        n, k, {key: c for key, c in mv._ints.items() if 1 not in key},
        mv._den, known,
    )
    away_small = normalize(away.shift(-1))
    bigger = _extend_positive(away_small).shift(+1, n=n)

    # bigger is positive on 2..n with pivots I = {2..k+2}, and its first
    # RREF row u is 1 at column 2 and 0 at 3..k+2, so
    # u ^ away = away[{3..k+2}] / bigger[I] * bigger; v ^ away = bigger
    pivots = min(bigger._ints)
    v = plane_vectors(bigger)[0] * (
        bigger.coefficient(pivots) / away.coefficient(pivots[1:]))

    # (e_1 + eps v) ^ mv over b * v den * mv den, for eps = a / b
    lifted = wedge_first_ints(mv._ints)
    moved = wedge_ints(v._ints, mv._ints, n)

    def candidate(eps: Fraction) -> MultiVector:
        scale = eps.denominator * v._den
        return MultiVector._of_ints(
            n, k + 1, combine_ints((scale, eps.numerator), (lifted, moved)),
            scale * mv._den, known,
        )

    return _search(max(map(abs, moved.values())), candidate)
