"""Exact multilinear algebra on the exterior powers of R^n.

Everything here is exact; there is no floating point in this module.  A
grade-k element is stored as a sparse map from k-subsets of {1..n} (ascending
tuples) to nonzero rational coefficients (``fractions.Fraction``), in the
fixed basis e_1, ..., e_n, orthonormal for the standard inner product.

Products take ``Fraction`` coefficients in and give them out, but run over
Python integers: ``wedge`` and ``wedge_all`` scale each operand once by the
lcm of its denominators, multiply and sum integers over the merged index
keys, and divide by the product of those lcms only for the nonzero
coefficients of the result.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Mapping

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
    inversions = 0
    for x in a:
        for y in b:
            if x > y:
                inversions += 1
    return -1 if inversions % 2 else 1


class MultiVector:
    """Immutable element of the k-th exterior power of R^n.

    ``coeffs`` maps ascending index tuples to exact rationals; keys with zero
    coefficient are never stored, so ``support()`` is the true support.
    """

    __slots__ = ("n", "k", "coeffs")

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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiVector is immutable")

    @classmethod
    def _of_ints(cls, n: int, k: int, ints: Mapping[IndexSet, int], den: int
                 ) -> "MultiVector":
        """The element with coefficients ints[key] / den.  The keys are
        ascending k-subsets of 1..n and the ints nonzero, as the integer
        products below make them, so nothing is checked."""
        mv = cls.__new__(cls)
        object.__setattr__(mv, "n", n)
        object.__setattr__(mv, "k", k)
        object.__setattr__(
            mv, "coeffs", {key: Fraction(c, den) for key, c in ints.items()}
        )
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

    def coefficient(self, indices: Iterable[int]) -> Fraction:
        return self.coeffs.get(tuple(indices), Fraction(0))

    def support(self) -> list[IndexSet]:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient_sum(self) -> Fraction:
        return sum(self.coeffs.values(), Fraction(0))

    def shift(self, offset: int, n: int | None = None) -> "MultiVector":
        """Relabel every index by ``offset`` into ambient dimension ``n``.

        Used to move between elements supported on e_2..e_n and the same
        elements viewed inside R^(n-1).
        """
        new_n = self.n + offset if n is None else n
        moved = {tuple(i + offset for i in key): c for key, c in self.coeffs.items()}
        return MultiVector(new_n, self.k, moved)

    # -- arithmetic --------------------------------------------------------

    def _require_same_shape(self, other: "MultiVector") -> None:
        if self.n != other.n or self.k != other.k:
            raise GradeError(
                f"shape mismatch: ({self.n},{self.k}) vs ({other.n},{other.k})"
            )

    def __add__(self, other: "MultiVector") -> "MultiVector":
        self._require_same_shape(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + c
        return MultiVector(self.n, self.k, out)

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        return self + (-other)

    def __neg__(self) -> "MultiVector":
        return MultiVector(self.n, self.k, {key: -c for key, c in self.coeffs.items()})

    def __mul__(self, scale) -> "MultiVector":
        scale = Fraction(scale)
        return MultiVector(
            self.n, self.k, {key: c * scale for key, c in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def __truediv__(self, scale) -> "MultiVector":
        return self * (Fraction(1) / Fraction(scale))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiVector):
            return NotImplemented
        return self.n == other.n and self.k == other.k and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.k, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"MultiVector({self.n}, {self.k}, 0)"
        parts = []
        for key in self.support():
            c = self.coeffs[key]
            label = "e{" + ",".join(map(str, key)) + "}" if key else "1"
            parts.append(f"{c}*{label}")
        return " + ".join(parts)

    # -- JSON --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "coeffs": {
                ",".join(map(str, key)): str(self.coeffs[key]) for key in self.support()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MultiVector":
        coeffs = {}
        for key, value in data.get("coeffs", {}).items():
            indices = tuple(int(part) for part in str(key).split(",")) if key else ()
            coeffs[indices] = Fraction(str(value))
        return cls(int(data["n"]), int(data["k"]), coeffs)

    @classmethod
    def from_json(cls, text: str) -> "MultiVector":
        return cls.from_json_dict(json.loads(text))


# -- operations ------------------------------------------------------------


def integer_coeffs(mv: MultiVector) -> tuple[dict[IndexSet, int], int]:
    """(ints, den) with mv's e_A coefficient ints[A] / den, den the lcm of the
    coefficient denominators (1 for the zero element)."""
    den = lcm(*[c.denominator for c in mv.coeffs.values()])
    return {
        key: c.numerator * (den // c.denominator) for key, c in mv.coeffs.items()
    }, den


def wedge_ints(a: Mapping[IndexSet, int], b: Mapping[IndexSet, int]
               ) -> dict[IndexSet, int]:
    """Exterior product of two integer coefficient maps, zeros dropped.

    e_A ^ e_B is 0 when A and B meet, and otherwise e_(A u B) times the sign
    of the shuffle merging A then B: (-1)^(pairs x in A, y in B with x > y).
    A single index, the common case, is placed by bisection.
    """
    out: dict[IndexSet, int] = {}
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


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    """Exterior product; grade adds, antisymmetric, associative."""
    return wedge_all((a, b))


def wedge_all(factors: Iterable[MultiVector]) -> MultiVector:
    """factors[0] ^ factors[1] ^ ..., accumulated over integers."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty wedge")
    first = factors[0]
    if len(factors) == 1:
        return first
    n, k = first.n, first.k
    ints, den = integer_coeffs(first)
    for f in factors[1:]:
        if f.n != n:
            raise GradeError(f"ambient mismatch: {n} vs {f.n}")
        if k + f.k > n:
            raise GradeError(f"grade overflow: {k}+{f.k} > {n}")
        k += f.k
        f_ints, f_den = integer_coeffs(f)
        ints = wedge_ints(ints, f_ints)
        den *= f_den
    return MultiVector._of_ints(n, k, ints, den)


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
    out: dict[IndexSet, Fraction] = {}
    for key, c in mv.coeffs.items():
        for pos, idx in enumerate(key):
            cv = v.coeffs.get((idx,))
            if cv is None:
                continue
            reduced = key[:pos] + key[pos + 1 :]
            term = (-1) ** pos * c * cv
            new = out.get(reduced, Fraction(0)) + term
            if new:
                out[reduced] = new
            else:
                out.pop(reduced, None)
    return MultiVector(mv.n, mv.k - 1, out)


def normalize(mv: MultiVector) -> MultiVector:
    """Scale so the coefficient sum is exactly 1."""
    total = mv.coefficient_sum()
    if total == 0:
        raise NormalizationError("coefficient sum is zero")
    if total == 1:
        return mv
    return mv / total


def classify_sign(mv: MultiVector) -> SignClass:
    """Exact sign classification of the full coefficient vector.

    Absent coefficients count as zero, so POSITIVE needs all C(n,k) of them
    present and positive.
    """
    if not mv.coeffs:
        return SignClass.ZERO
    if any(c < 0 for c in mv.coeffs.values()):
        return SignClass.MIXED
    full = 1
    for i in range(mv.k):
        full = full * (mv.n - i) // (i + 1)
    return SignClass.POSITIVE if len(mv.coeffs) == full else SignClass.NONNEGATIVE


def complement(mv: MultiVector) -> MultiVector:
    """Send every e_A to e_{A complement}; preserves the coefficient multiset."""
    everything = range(1, mv.n + 1)
    out = {
        tuple(i for i in everything if i not in set(key)): c
        for key, c in mv.coeffs.items()
    }
    return MultiVector(mv.n, mv.n - mv.k, out)


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
    total = Fraction(0)
    for key, ca in a.coeffs.items():
        cb = b.coeffs.get(key)
        if cb is not None:
            total += _complement_sign(key, a.n) * ca * cb
    return total


def inner(a: MultiVector, b: MultiVector) -> Fraction:
    """Induced inner product: the e_A form an orthonormal basis."""
    if a.n != b.n or a.k != b.k:
        raise GradeError("inner product requires equal shapes")
    return sum(
        (c * b.coeffs[key] for key, c in a.coeffs.items() if key in b.coeffs),
        Fraction(0),
    )


def all_subsets(n: int, k: int) -> list[IndexSet]:
    return list(combinations(range(1, n + 1), k))
