"""Exact multilinear algebra on the exterior powers of R^n.

Everything here is exact; there is no floating point in this module.  A
grade-k element is a sparse map from k-subsets of {1..n} (ascending tuples)
to nonzero rational coefficients, in the fixed basis e_1, ..., e_n,
orthonormal for the standard inner product.

An element stores its coefficients as Python integers ``_ints`` over one
positive denominator ``_den``, in lowest terms: gcd(den, every int) = 1 and
no int is zero.  That form is canonical, so equality and hashing compare
(n, k, den, ints) and never touch ``Fraction``.  Sums, scalings, contraction,
normalization and products run over integers and reduce once, through
``MultiVector._of_ints``: one gcd over the denominator and every value, and a
sign flip when the denominator came out negative.  ``wedge`` and
``wedge_all`` multiply the stored integer maps and the denominators as they
are, through ``wedge_ints``, and ``contract`` through its twin
``contract_ints``.  ``coeffs`` is a read-only ``Fraction`` view for callers
outside the library, built on each access and never stored.

Almost every product the library forms has a grade-1 factor: the rows of a
plane, the witness vectors, the generators of a fiber frame.  ``wedge_ints``
places each index of such a factor with a table per (n, key), built on first
use and kept, that maps an index y to the merged key and the parity of the
shuffle; the general loop runs only when neither factor has grade 1.

An element may carry a decomposable mark (``MultiVector`` says how), so
that ``plucker`` reads its plane without proving it a single wedge again.
The mark is set only where the construction guarantees it: on a nonzero
``wedge_all`` of factors known to be decomposable, and on the results of
operations that keep decomposability (nonzero scaling, negation,
``normalize``, ``shift``, ``complement``, and the two index-1 parts that
``chamber.split`` and ``lemmas.extend_positive`` take: the contraction by
e_1 and the projection away from e_1).  Wedges formed without
``wedge_all`` get it under the same condition: e_1 ^ eta in
``chamber.assemble`` and the extend candidates (e_1 + eps v) ^ omega in
``lemmas``.  Sums, the public constructor, ``from_json`` and ``_of_ints``
on a caller's ints never set it.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Mapping

from .linalg import _ratio

__all__ = [
    "SignClass",
    "MultiVector",
    "NormalizationError",
    "GradeError",
    "wedge",
    "contract",
    "normalize",
    "classify_sign",
    "complement",
    "q_form",
    "inner",
]


class GradeError(ValueError):
    """Raised for grade overflow or mismatched ambient dimensions."""


class NormalizationError(ValueError):
    """Raised when normalizing a multivector whose coefficient sum is zero."""


class SignClass(enum.Enum):
    ZERO = "Zero"
    POSITIVE = "Positive"
    NONNEGATIVE = "Nonnegative"
    MIXED = "Mixed"


IndexSet = tuple  # ascending tuple of ints in 1..n


def _check_index_set(elements: IndexSet, n: int, k: int) -> None:
    if len(elements) != k:
        raise ValueError(f"index set {elements} does not have size {k}")
    prev = 0
    for e in elements:
        if not isinstance(e, int) or e <= prev or e > n:
            raise ValueError(f"index set {elements} is not ascending in 1..{n}")
        prev = e


def _shuffle_sign(a: IndexSet, b: IndexSet) -> int:
    """Sign of the permutation merging two disjoint ascending tuples."""
    inversions = sum(x > y for x in a for y in b)
    return -1 if inversions & 1 else 1


_set = object.__setattr__

# The ``_plane`` state of an element known to be decomposable whose plane
# rows are not read yet.
DECOMPOSABLE = "decomposable"


def _known_decomposable(mv: "MultiVector") -> bool:
    """True when mv is decomposable by its grade (0, 1, n - 1 or n) or by its
    ``_plane`` state (rows read, or marked); False says nothing."""
    return (mv.k <= 1 or mv.k >= mv.n - 1
            or getattr(mv, "_plane", None) is not None)


class MultiVector:
    """Immutable element of the k-th exterior power of R^n.

    The e_A coefficient is ``_ints[A] / _den``, in lowest terms with
    ``_den`` > 0; keys with zero coefficient are never stored, so
    ``support()`` is the true support.

    ``_plane`` holds what is known of the element's plane, in one of four
    states: unset (nothing known yet); ``DECOMPOSABLE`` (a mark: the element
    is a nonzero single wedge by construction, its rows not read yet);
    ``(rows, p)`` (the plane's integer RREF rows, stored by ``plucker`` on
    the first read); or None (read, and not decomposable).  The mark is set
    by ``wedge_all`` on a nonzero product whose factors are all known to be
    decomposable (by grade 0, 1, n - 1 or n, or by their ``_plane`` state),
    and carried by nonzero ``*`` and ``/`` by a scalar, negation,
    ``normalize``, ``shift``, ``complement`` and the two index-1 parts (the
    module docstring lists them).  ``plucker`` reads a marked element's rows
    without the decomposability product.
    """

    __slots__ = ("n", "k", "_ints", "_den", "_plane")

    def __init__(self, n: int, k: int, coeffs: Mapping[IndexSet, object] | None = None):
        if not 0 <= k <= n:
            raise GradeError(f"grade {k} out of range for ambient dimension {n}")
        clean: dict[IndexSet, Fraction] = {}
        for key, value in (coeffs or {}).items():
            key = tuple(key)
            _check_index_set(key, n, k)
            if type(value) is not Fraction:
                value = Fraction(value)
            if value:
                clean[key] = value
        # over the lcm of reduced denominators the ints share no factor
        # with it, so this is lowest terms already
        den = lcm(*[c.denominator for c in clean.values()])
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "_ints", {
            key: c.numerator * (den // c.denominator) for key, c in clean.items()
        })
        _set(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("MultiVector is immutable")

    @classmethod
    def _of_ints(cls, n: int, k: int, ints: dict[IndexSet, int], den: int,
                 decomposable: bool = False) -> "MultiVector":
        """The element with coefficients ints[key] / den, reduced once.

        The keys are ascending k-subsets of 1..n, the ints nonzero and den
        nonzero, as the integer kernels make them, so nothing is checked;
        the element takes ``ints`` over and may store it as it is.  With
        ``decomposable``, which a caller passes only when the construction
        makes the element a single wedge, a nonzero element gets the mark.
        """
        g = gcd(den, *ints.values())
        if den < 0:
            g = -g
        if g != 1:
            ints = {key: c // g for key, c in ints.items()}
            den //= g
        mv = cls.__new__(cls)
        _set(mv, "n", n)
        _set(mv, "k", k)
        _set(mv, "_ints", ints)
        _set(mv, "_den", den)
        if decomposable and ints:
            _set(mv, "_plane", DECOMPOSABLE)
        return mv

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, k: int) -> "MultiVector":
        return cls(n, k, {})

    @classmethod
    def scalar(cls, n: int, value) -> "MultiVector":
        return cls(n, 0, {(): Fraction(value)})

    @classmethod
    def basis(cls, n: int, indices: Iterable[int]) -> "MultiVector":
        key = tuple(indices)
        return cls(n, len(key), {key: Fraction(1)})

    @classmethod
    def from_vector(cls, entries: Iterable) -> "MultiVector":
        """Grade-1 element from a dense coordinate sequence."""
        entries = [Fraction(e) for e in entries]
        return cls(len(entries), 1, {(i + 1,): c for i, c in enumerate(entries) if c})

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self) -> dict[IndexSet, Fraction]:
        """The coefficients as ``Fraction``s: a new dict on every access."""
        den = self._den
        return {key: Fraction(c, den) for key, c in self._ints.items()}

    def coefficient(self, indices: Iterable[int]) -> Fraction:
        return Fraction(self._ints.get(tuple(indices), 0), self._den)

    def support(self) -> list[IndexSet]:
        return sorted(self._ints)

    def is_zero(self) -> bool:
        return not self._ints

    def coefficient_sum(self) -> Fraction:
        return Fraction(sum(self._ints.values()), self._den)

    def shift(self, offset: int, n: int | None = None) -> "MultiVector":
        """Relabel every index by ``offset`` into ambient dimension ``n``.

        Used to move between elements supported on e_2..e_n and the same
        elements viewed inside R^(n-1).
        """
        new_n = self.n + offset if n is None else n
        if not 0 <= self.k <= new_n:
            raise GradeError(
                f"grade {self.k} out of range for ambient dimension {new_n}"
            )
        moved = {tuple(i + offset for i in key): c for key, c in self._ints.items()}
        # relabelling keeps keys ascending; only the range can break
        for key in moved:
            if key and (key[0] < 1 or key[-1] > new_n):
                raise ValueError(f"index set {key} is not ascending in 1..{new_n}")
        return MultiVector._of_ints(new_n, self.k, moved, self._den,
                                    _known_decomposable(self))

    # -- arithmetic --------------------------------------------------------

    def _require_same_shape(self, other: "MultiVector") -> None:
        if self.n != other.n or self.k != other.k:
            raise GradeError(
                f"shape mismatch: ({self.n},{self.k}) vs ({other.n},{other.k})"
            )

    def _combine(self, other: "MultiVector", sign: int) -> "MultiVector":
        """self + sign * other over the lcm of the two denominators."""
        self._require_same_shape(other)
        den = lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        out = {key: a * c for key, c in self._ints.items()}
        for key, c in other._ints.items():
            out[key] = out.get(key, 0) + b * c
        return MultiVector._of_ints(
            self.n, self.k, {key: c for key, c in out.items() if c}, den
        )

    def __add__(self, other: "MultiVector") -> "MultiVector":
        return self._combine(other, 1)

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        return self._combine(other, -1)

    def __neg__(self) -> "MultiVector":
        return MultiVector._of_ints(
            self.n, self.k, {key: -c for key, c in self._ints.items()},
            self._den, _known_decomposable(self),
        )

    def __mul__(self, scale) -> "MultiVector":
        num, den = _ratio(scale)
        if not num:
            return MultiVector._of_ints(self.n, self.k, {}, 1)
        return MultiVector._of_ints(
            self.n, self.k, {key: c * num for key, c in self._ints.items()},
            self._den * den, _known_decomposable(self),
        )

    __rmul__ = __mul__

    def __truediv__(self, scale) -> "MultiVector":
        num, den = _ratio(scale)
        if not num:
            raise ZeroDivisionError(f"MultiVector division by {scale!r}")
        return MultiVector._of_ints(
            self.n, self.k, {key: c * den for key, c in self._ints.items()},
            self._den * num, _known_decomposable(self),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiVector):
            return NotImplemented
        return (self.n == other.n and self.k == other.k
                and self._den == other._den and self._ints == other._ints)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self._den, frozenset(self._ints.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"MultiVector({self.n}, {self.k}, 0)"
        parts = []
        for key in self.support():
            c = Fraction(self._ints[key], self._den)
            label = "e{" + ",".join(map(str, key)) + "}" if key else "1"
            parts.append(f"{c}*{label}")
        return " + ".join(parts)

    # -- JSON --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "coeffs": {
                ",".join(map(str, key)): str(self.coefficient(key))
                for key in self.support()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MultiVector":
        raw = data.get("coeffs", {}) if isinstance(data, Mapping) else None
        if not isinstance(raw, Mapping):
            raise ValueError("a multivector and its coeffs must be JSON objects")
        coeffs = {}
        for key, value in raw.items():
            indices = tuple(int(part) for part in str(key).split(",")) if key else ()
            coeffs[indices] = Fraction(str(value))
        # through str, a null or a list is a ValueError like a bad string
        return cls(int(str(data["n"])), int(str(data["k"])), coeffs)

    @classmethod
    def from_json(cls, text: str) -> "MultiVector":
        return cls.from_json_dict(json.loads(text))


# -- operations ------------------------------------------------------------


def integer_coeffs(mv: MultiVector) -> tuple[dict[IndexSet, int], int]:
    """(ints, den) with mv's e_A coefficient ints[A] / den: the stored pair,
    in lowest terms with den > 0 (1 for the zero element).  The dict is the
    element's own, so callers read it and never change it."""
    return mv._ints, mv._den


@cache
def _placements(n: int, key: IndexSet) -> list:
    """e_key ^ e_y for every index y of 1..n: entry y is None when y lies in
    key, and otherwise (merged key, parity), the parity that of the number
    of indices of key above y.  Built on first use and kept, one list of
    n + 1 entries per (n, key)."""
    row: list = [None] * (n + 1)
    size = len(key)
    for y in range(1, n + 1):
        pos = bisect_left(key, y)
        if pos == size or key[pos] != y:
            row[y] = (key[:pos] + (y,) + key[pos:], (size - pos) & 1)
    return row


def _wedge_vector_ints(m: Mapping[IndexSet, int], vec: Mapping[IndexSet, int],
                       n: int, left: bool) -> dict[IndexSet, int]:
    """m ^ vec, or vec ^ m when ``left``, for a grade-1 map vec, zeros
    dropped.  e_B ^ e_y is read off ``_placements``; e_y ^ e_B is
    (-1)^|B| e_B ^ e_y, so on the left the parity flips with the grade."""
    flip = len(next(iter(m))) & 1 if left else 0
    entries = [(key[0], c) for key, c in vec.items()]
    out: dict[IndexSet, int] = {}
    for key, c in m.items():
        row = _placements(n, key)
        for y, cy in entries:
            placed = row[y]
            if placed is not None:
                merged, odd = placed
                term = c * cy
                out[merged] = out.get(merged, 0) + (-term if odd ^ flip else term)
    return {key: c for key, c in out.items() if c}


def wedge_ints(a: Mapping[IndexSet, int], b: Mapping[IndexSet, int], n: int
               ) -> dict[IndexSet, int]:
    """Exterior product of two integer coefficient maps of one grade each,
    in ambient dimension n, zeros dropped.

    e_A ^ e_B is 0 when A and B meet, and otherwise e_(A u B) times the sign
    of the shuffle merging A then B: (-1)^(pairs x in A, y in B with x > y).
    A grade-1 factor, on either side, is placed by ``_placements``.
    """
    if not a or not b:
        return {}
    if len(next(iter(b))) == 1:
        return _wedge_vector_ints(a, b, n, False)
    if len(next(iter(a))) == 1:
        return _wedge_vector_ints(b, a, n, True)
    out: dict[IndexSet, int] = {}
    for key_a, ca in a.items():
        for key_b, cb in b.items():
            if not set(key_a).isdisjoint(key_b):
                continue
            merged = tuple(sorted(key_a + key_b))
            term = _shuffle_sign(key_a, key_b) * ca * cb
            out[merged] = out.get(merged, 0) + term
    return {key: c for key, c in out.items() if c}


def wedge_first_ints(a: Mapping[IndexSet, int]) -> dict[IndexSet, int]:
    """e_1 ^ a over integers: a relabel, since e_1 ^ e_A is e_(1 A) with sign
    +1 when 1 is not in A (no index of A lies below 1) and 0 when it is."""
    return {(1,) + key: c for key, c in a.items() if not key or key[0] != 1}


def combine_ints(coefficients, maps) -> dict[IndexSet, int]:
    """sum_j coefficients[j] * maps[j] over integer coefficient maps, zeros
    dropped."""
    out: dict = {}
    for c, ints in zip(coefficients, maps):
        if c:
            for key, a in ints.items():
                out[key] = out.get(key, 0) + c * a
    return {key: a for key, a in out.items() if a}


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    """Exterior product; grade adds, antisymmetric, associative."""
    return wedge_all((a, b))


def wedge_all(factors: Iterable[MultiVector]) -> MultiVector:
    """factors[0] ^ factors[1] ^ ..., accumulated over integers.  A nonzero
    product of factors that are all known to be decomposable gets the
    decomposable mark."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty wedge")
    first = factors[0]
    if len(factors) == 1:
        return first
    n, k = first.n, first.k
    ints, den = first._ints, first._den
    for f in factors[1:]:
        if f.n != n:
            raise GradeError(f"ambient mismatch: {n} vs {f.n}")
        if k + f.k > n:
            raise GradeError(f"grade overflow: {k}+{f.k} > {n}")
        k += f.k
        ints = wedge_ints(ints, f._ints, n)
        den *= f._den
    return MultiVector._of_ints(
        n, k, ints, den, all(_known_decomposable(f) for f in factors)
    )


def contract_ints(a: Mapping[IndexSet, int], v: Mapping[IndexSet, int]
                  ) -> dict[IndexSet, int]:
    """Interior product of an integer coefficient map by a grade-1 one,
    zeros dropped: the twin of ``wedge_ints``.

    e_A contracted by e_i is 0 when i is not in A, and otherwise
    (-1)^pos * e_(A without i), pos the place of i in A, counted from 0.
    """
    out: dict[IndexSet, int] = {}
    for key, c in a.items():
        for pos, idx in enumerate(key):
            cv = v.get((idx,))
            if cv is None:
                continue
            reduced = key[:pos] + key[pos + 1 :]
            term = c * cv
            out[reduced] = out.get(reduced, 0) + (-term if pos & 1 else term)
    return {key: c for key, c in out.items() if c}


def contract(mv: MultiVector, v: MultiVector) -> MultiVector:
    """Interior product by a grade-1 element, adjoint to wedging by it.

    Satisfies <contract(w, v), xi> = <w, v ^ xi> for every (k-1)-vector xi.
    """
    if mv.k == 0:
        raise GradeError("cannot contract a grade-0 element")
    if v.k != 1:
        raise GradeError("contraction direction must have grade 1")
    if mv.n != v.n:
        raise GradeError(f"ambient mismatch: {mv.n} vs {v.n}")
    return MultiVector._of_ints(
        mv.n, mv.k - 1, contract_ints(mv._ints, v._ints), mv._den * v._den
    )


def normalize(mv: MultiVector) -> MultiVector:
    """Scale so the coefficient sum is exactly 1: divide the ints by their
    sum, which the denominator cancels out of."""
    total = sum(mv._ints.values())
    if total == 0:
        raise NormalizationError("coefficient sum is zero")
    if total == mv._den:
        return mv
    return MultiVector._of_ints(mv.n, mv.k, dict(mv._ints), total,
                                _known_decomposable(mv))


def classify_sign(mv: MultiVector) -> SignClass:
    """Exact sign classification of the full coefficient vector.

    Absent coefficients count as zero, so POSITIVE needs all C(n,k) of them
    present and positive.  The denominator is positive, so the signs are
    those of the ints.
    """
    if not mv._ints:
        return SignClass.ZERO
    if any(c < 0 for c in mv._ints.values()):
        return SignClass.MIXED
    full = 1
    for i in range(mv.k):
        full = full * (mv.n - i) // (i + 1)
    return SignClass.POSITIVE if len(mv._ints) == full else SignClass.NONNEGATIVE


def complement(mv: MultiVector) -> MultiVector:
    """Send every e_A to e_{A complement}; preserves the coefficient multiset.

    For a decomposable element this is the Q-complement of its plane up to
    scale (``plucker.q_orthocomplement`` says why the sign is global), so
    it is decomposable too, and the result keeps the decomposable mark."""
    everything = range(1, mv.n + 1)
    out = {
        tuple(i for i in everything if i not in key): c
        for key, c in mv._ints.items()
    }
    return MultiVector._of_ints(mv.n, mv.n - mv.k, out, mv._den,
                                _known_decomposable(mv))


def _complement_sign(key: IndexSet, n: int) -> int:
    """Sign of the permutation (key, key complement) of (1..n)."""
    rest = tuple(i for i in range(1, n + 1) if i not in set(key))
    return _shuffle_sign(key, rest)


def q_form(a: MultiVector, b: MultiVector) -> Fraction:
    """The scalar Q with a ^ complement(b) = Q * e_{1..n}.

    Its Gram matrix on the e_A basis is diagonal with entries +-1, hence the
    form is nondegenerate.
    """
    if a.n != b.n or a.k != b.k:
        raise GradeError("q_form requires equal ambient dimension and grade")
    total = 0
    for key, ca in a._ints.items():
        cb = b._ints.get(key)
        if cb is not None:
            total += _complement_sign(key, a.n) * ca * cb
    return Fraction(total, a._den * b._den)


def inner(a: MultiVector, b: MultiVector) -> Fraction:
    """Induced inner product: the e_A form an orthonormal basis."""
    if a.n != b.n or a.k != b.k:
        raise GradeError("inner product requires equal shapes")
    other = b._ints
    total = sum(c * other[key] for key, c in a._ints.items() if key in other)
    return Fraction(total, a._den * b._den)


def all_subsets(n: int, k: int) -> list[IndexSet]:
    return list(combinations(range(1, n + 1), k))
