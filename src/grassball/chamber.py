"""Chamber coordinates on nonnegative Grassmannians and the ball chart.

A chamber point is a normalized nonnegative decomposable grade-k element of
the k-th exterior power of R^n; it splits exactly (all rationals) as
rho = t * e_1 ^ eta + (1 - t) * omega with eta, omega supported away from
index 1 and eta contained in omega.  The two fibrations this induces (over
omega for t <= 1/2, over eta for t >= 1/2) have convex polytope fibers.
Both are one construction read in two directions: a ``FiberFrame`` over a
base element, whose generators and image map are picked by ``EFiberFrame``
(contractions of omega) or ``FFiberFrame`` (wedges of eta), and one
``_Side`` per half that turns its frames into a convexoid.  Gluing the two
halves along t = 1/2 yields a chart onto the closed ball of dimension
k(n-k).

The generators do not depend on the base: both sides read them off one
fixed totally positive reference per (n, count), the vectors
b_i = sum_{j=0}^{n-2} (i+1)^j e_(j+2), i = 0..count-1, on the E side, and
the same with every other entry negated on the F side (``_reference``).
So no RREF pivot moves with the base, and each generator image depends
linearly on the base element's coefficients.  The generator images are
those integer maps run through ``exterior.contract_ints`` or
``wedge_ints`` with the base's integer coefficients, all over the base's
denominator.  A frame is one integer affine map from centered slice
coordinates to fiber elements: the slice is parametrized by the free
generator coordinates, measured from the pivot point of the slice (the
point on the first generator whose image has a nonzero coefficient sum),
whose image O and the images M_f of the free directions are integer
combinations of the generator images; an element is one integer
combination of O and the M_f, and its centered point is one integer
solve against the generator images.

Every level of the chart maps onto the cube [-1, 1]^d, the sup-norm ball,
over the rationals, and a side reads its base chart in cube coordinates,
rounded (``convexoid.limit_point``).  Only ``BallChart.forward`` and
``inverse`` use floats, to regauge the cube to the Euclidean ball and back.

The public constructors ``ChamberPoint`` and ``SplitTriple`` check every
invariant of their input.  The points and triples the chart builds itself
(in ``split``, ``assemble``, the simplex leaves and the two sides) satisfy
those invariants by construction, so they are built with private unchecked
constructors, and each such site says why.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, combinations
from math import lcm
from typing import Sequence

from . import linalg
from .convexoid import (
    ConvexoidSpec,
    DomainError,
    GluedBallMap,
    HPolytope,
    MAX_FIBER_DIM,
    NORM_SLACK,
    SLACK,
    _float,
    _integer_vector,
    _radial_about,
    centered,
    centroid,
    limit_point,
    norm_gauge,
    rationalize,
    rationalize_point,
    regauge,
    sup_gauge,
    vertices,
)
from .exterior import (
    MultiVector,
    SignClass,
    _known_decomposable,
    classify_sign,
    combine_ints,
    contract_ints,
    integer_coeffs,
    wedge_first_ints,
    wedge_ints,
)
from .plucker import contains, is_decomposable, require_chamber_vector

__all__ = [
    "ValidationError",
    "ContainmentError",
    "ChamberPoint",
    "SplitTriple",
    "ChartPoint",
    "split",
    "assemble",
    "FiberFrame",
    "EFiberFrame",
    "FFiberFrame",
    "e_fiber",
    "f_fiber",
    "BallChart",
    "get_chart",
    "ball_chart",
    "ball_chart_inverse",
]

class ValidationError(ValueError):
    """An input fails the chamber-point or split-triple invariants."""


class ContainmentError(ValueError):
    """A split triple lacks the required containment of eta in omega."""


def _check_chamber_vector(mv: MultiVector, what: str) -> None:
    """Nonnegative and nonzero, normalized, and decomposable."""
    if classify_sign(mv) not in (SignClass.POSITIVE, SignClass.NONNEGATIVE):
        raise ValidationError(f"{what} must be nonnegative and nonzero")
    if mv.coefficient_sum() != 1:
        raise ValidationError(f"{what} must be normalized")
    if not is_decomposable(mv):
        raise ValidationError(f"{what} must be decomposable")


@dataclass(frozen=True)
class ChamberPoint:
    """Normalized nonnegative decomposable representative of a plane."""

    rho: MultiVector

    def __post_init__(self):
        _check_chamber_vector(self.rho, "chamber point")

    @classmethod
    def _unchecked(cls, rho: MultiVector) -> "ChamberPoint":
        """The point of a rho that is a chamber vector by construction, built
        without the checks of the public constructor; each caller says why."""
        point = object.__new__(cls)
        object.__setattr__(point, "rho", rho)
        return point

    @property
    def n(self) -> int:
        return self.rho.n

    @property
    def k(self) -> int:
        return self.rho.k


def _check_away_from_first(mv: MultiVector, what: str) -> None:
    if any(1 in key for key in mv._ints):
        raise ValidationError(f"{what} must be supported on indices 2..n")


@dataclass(frozen=True)
class SplitTriple:
    """The (t, eta, omega) coordinates of a chamber point.

    eta is absent exactly when t = 0 and omega exactly when t = 1; present
    parts are normalized, nonnegative, decomposable, supported away from
    index 1, and eta is contained in omega when both are present.
    """

    t: Fraction
    eta: MultiVector | None
    omega: MultiVector | None

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        if not 0 <= self.t <= 1:
            raise ValidationError(f"t = {self.t} outside [0, 1]")
        if (self.eta is None) != (self.t == 0):
            raise ValidationError("eta must be present exactly when t > 0")
        if (self.omega is None) != (self.t == 1):
            raise ValidationError("omega must be present exactly when t < 1")
        for part, what in ((self.eta, "eta"), (self.omega, "omega")):
            if part is None:
                continue
            _check_away_from_first(part, what)
            _check_chamber_vector(part, what)
        if self.eta is not None and self.omega is not None:
            if self.eta.k + 1 != self.omega.k:
                raise ValidationError("eta must have grade one below omega")
            if not contains(self.eta, self.omega):
                raise ContainmentError("eta is not contained in omega")

    @classmethod
    def _unchecked(cls, t: Fraction, eta: MultiVector | None,
                   omega: MultiVector | None) -> "SplitTriple":
        """A triple that is valid by construction, t a ``Fraction``, built
        without the checks of the public constructor; each caller says why."""
        triple = object.__new__(cls)
        object.__setattr__(triple, "t", t)
        object.__setattr__(triple, "eta", eta)
        object.__setattr__(triple, "omega", omega)
        return triple


def split(point: ChamberPoint) -> SplitTriple:
    """Exact decomposition rho = t * e_1 ^ eta + (1 - t) * omega.

    The triple is built unchecked: for a nonnegative decomposable rho, its
    part with index 1 is e_1 ^ eta0, eta0 the contraction of rho by e_1,
    and the rest is the projection of rho along e_1; both are nonnegative
    and decomposable, supported away from index 1, eta0 is contained in the
    rest, and dividing each by its coefficient sum normalizes it.  Both
    parts carry the decomposable mark when rho is known to be decomposable.
    """
    rho = point.rho
    ints, den = integer_coeffs(rho)
    with_first = {
        key[1:]: c for key, c in ints.items() if key and key[0] == 1
    }
    # t = first / den; eta = eta0 / t and omega = rest / (1 - t) divide the
    # ints by their sums, which den cancels out of
    first = sum(with_first.values())
    if first == 0:
        return SplitTriple._unchecked(Fraction(0), None, rho)
    known = _known_decomposable(rho)
    eta = MultiVector._of_ints(rho.n, rho.k - 1, with_first, first, known)
    if first == den:
        return SplitTriple._unchecked(Fraction(1), eta, None)
    without_first = {
        key: c for key, c in ints.items() if not key or key[0] != 1
    }
    omega = MultiVector._of_ints(rho.n, rho.k, without_first, den - first,
                                 known)
    return SplitTriple._unchecked(Fraction(first, den), eta, omega)


def assemble(triple: SplitTriple) -> ChamberPoint:
    """Exact inverse of split: rho = t * e_1 ^ eta + (1 - t) * omega.

    The point is built unchecked, because the triple is valid: with
    omega = eta ^ w, rho = eta ^ (+-t e_1 + (1 - t) w) is decomposable, and
    it is nonnegative with coefficient sum t + (1 - t) = 1.  eta avoids
    index 1, so e_1 ^ eta is a relabel (``wedge_first_ints``), not a wedge;
    it carries the decomposable mark when eta is known to be decomposable.
    """
    t = triple.t
    if t == 0:
        rho = triple.omega
    else:
        eta = triple.eta
        lifted = MultiVector._of_ints(
            eta.n, eta.k + 1, wedge_first_ints(eta._ints), eta._den,
            _known_decomposable(eta),
        )
        rho = lifted * t if t == 1 else lifted * t + triple.omega * (1 - t)
    return ChamberPoint._unchecked(rho)


# ---------------------------------------------------------------------------
# fiber frames


class FiberFrame:
    """Normalized fiber over a base element, as a polytope in centered coords.

    The fiber elements are the images ``image(base, g)`` of the linear span
    of the grade-1 generators g that have coefficient sum 1 and are
    nonnegative.  The frame is one integer affine map from centered slice
    coordinates to those elements, and ``polytope`` collects one
    nonnegativity inequality per coefficient of the grade-``grade`` images.
    Subclasses pick the generators and the image map, and name the
    SplitTriple fields of their base and fiber elements.

    The generators come as integer coefficient maps, and ``image`` is an
    integer kernel (``contract_ints``, ``wedge_ints``), so the generator
    images I_j = image(base ints, g_j) share the base's denominator D, with
    no multivector built and none reduced.  The subclasses pass one fixed
    reference (``_reference``) on which ``image(base, .)`` is injective for
    every base of the closed chamber, so the generator coordinates of an
    element are unique and the frame varies continuously with the base.
    The element of generator coordinates x is sum_j x_j I_j / D, with
    coefficient sum v . x / D for the integer sums v_j of the I_j.
    The slice v . x = D is parametrized by the free generator coordinates,
    every f but the first p with v_p != 0, measured from the pivot point
    x = (D / v_p) e_p: over E = |v_p D| and with s the sign of v_p D, that
    point maps to O = s D I_p, and free coordinate f, which moves x_p by
    -v_f / v_p, to M_f = s (v_p I_f - v_f I_p).  ``polytope`` and
    ``center`` are in those slice coordinates; centering cancels the choice
    of origin, so the centered polytope, its points and their elements do
    not depend on it.  A centered point yc is the slice point
    y = center + yc, and the centered point of an element is read off the
    free columns of its generator coordinates.  ``center`` is computed when
    the frame is built, ``centered_polytope`` the first time it is read:
    a frame that only maps elements to centered points never builds it.
    """

    base_part = fiber_part = None

    def __init__(self, base: MultiVector, generators, image, grade: int):
        self.base = base
        base_ints, self._den = integer_coeffs(base)
        self._ints = [image(base_ints, g) for g in generators]
        self._grade = grade
        values = [sum(m.values()) for m in self._ints]
        pivot = next((j for j, v in enumerate(values) if v), None)
        if pivot is None:
            raise ValidationError("the normalization functional vanishes")
        self._free = [j for j in range(len(values)) if j != pivot]
        self.dim = len(self._free)
        # O and the M_f over one denominator E, so slice point y maps to
        # (O + sum_f y_f M_f) / E
        vp, ip = values[pivot], self._ints[pivot]
        self._map_den = abs(vp * self._den)
        s = 1 if vp * self._den > 0 else -1
        self._maps = [{key: s * self._den * c for key, c in ip.items()}] + [
            combine_ints((s * vp, -s * values[f]), (self._ints[f], ip))
            for f in self._free
        ]
        # one nonnegativity row per coefficient key: O + sum_f y_f M_f >= 0
        # reads (-M) . y <= O, over E; keys where no M_f moves are dropped
        origin, *moves = self._maps
        rows = []
        for key in sorted(set().union(*self._maps)):
            normal = [-m.get(key, 0) for m in moves]
            if any(normal):
                rows.append((*normal, origin.get(key, 0)))
        self.polytope = HPolytope._of_rows(self.dim, rows, self._map_den)
        # chart fibers are centered only by their frames, on the first read
        # of ``centered_polytope``; ``_Side.oracle`` scales them with their
        # centroid cached.  The pivot point has free coordinates 0, so the
        # centered origin has free generator coordinates ``center``.
        self.center = centroid(self.polytope)

    @property
    def centered_polytope(self) -> HPolytope:
        """The fiber polytope translated by -``center``, built on first read
        and then cached on ``polytope`` (``convexoid.centered``)."""
        return centered(self.polytope)

    def element_of_centered(self, yc: Sequence) -> MultiVector:
        """(O + sum_f y_f M_f) / E at y = center + yc, as one integer
        combination over L E, with L the lcm of the denominators of y."""
        y = [Fraction(1)] + [c + v for c, v in zip(self.center, yc)]
        scale = lcm(*[c.denominator for c in y])
        out = combine_ints(
            [c.numerator * (scale // c.denominator) for c in y], self._maps
        )
        return MultiVector._of_ints(
            self.base.n, self._grade, out, scale * self._map_den
        )

    def centered_point_of(self, element: MultiVector) -> tuple[Fraction, ...]:
        """The centered point whose element is ``element``.

        Its generator coordinates x solve sum_j x_j I_j / D = e / d, e the
        element's integers over d; that is the integer system (d I) x = D e,
        one row per coefficient key, row-reduced by ``linalg.solve_ints``.
        The solution is unique: the image map is injective on the span of
        the reference (``EFiberFrame`` and ``FFiberFrame`` say why).
        """
        ints, den = element._ints, element._den
        keys = sorted(set(ints).union(*self._ints))
        x = linalg.solve_ints([
            [den * image.get(key, 0) for image in self._ints]
            + [self._den * ints.get(key, 0)]
            for key in keys
        ])
        if x is None:
            raise ValidationError(
                f"{self.fiber_part} is not contained in the fiber family"
            )
        if element.coefficient_sum() != 1:
            raise ValidationError(
                f"{self.fiber_part} does not lie on the normalized slice"
            )
        return tuple(x[f] - c for f, c in zip(self._free, self.center))


@cache
def _reference(n: int, count: int, alternate: bool) -> tuple[dict, ...]:
    """The integer maps of b_i = sum_{j=0}^{n-2} (+-1)^j (i+1)^j e_(j+2),
    i = 0..count-1, the sign negative on odd j only when ``alternate``.

    Without the signs, the count x (n-1) matrix (i+1)^j on e_2..e_n is
    totally positive: each maximal minor is a generalized Vandermonde
    determinant at the increasing positive nodes 1..count.
    """
    return tuple(
        {(j + 2,): -(i + 1) ** j if alternate and j % 2 else (i + 1) ** j
         for j in range(n - 1)}
        for i in range(count)
    )


class EFiberFrame(FiberFrame):
    """Fiber over omega on the low-t side: contained grade-(k-1) elements.

    Contained codimension-one elements are contractions of omega by vectors,
    and contracting by v depends only on the projection of v to omega's
    plane.  The generators are the k reference vectors b_i, and contraction
    by their span is injective for every omega of the closed chamber: the
    projection of that span to omega's plane is onto iff
    <omega, b_1 ^ ... ^ b_k> != 0, and by Cauchy-Binet that pairing is
    sum_I omega_I Delta_I(B), nonnegative terms with every Delta_I(B) > 0
    and omega nonzero.
    """

    base_part, fiber_part = "omega", "eta"

    def __init__(self, omega: MultiVector):
        _check_away_from_first(omega, "omega")
        super().__init__(omega, _reference(omega.n, omega.k, False),
                         contract_ints, omega.k - 1)


class FFiberFrame(FiberFrame):
    """Fiber over eta on the high-t side: containing grade-(k+1) elements.

    Containing elements away from index 1 are wedges of eta with vectors of
    the span of e_2..e_n.  The generators are the n - 1 - k alternating
    reference vectors, and wedging eta with their span C is injective for
    every eta of the closed chamber exactly when C meets eta's plane only
    in 0, that is when eta ^ c_1 ^ ... ^ c_(n-1-k) != 0.  Expanded by
    Laplace, that coefficient is a sum of eta_I times the complementary
    minors of the alternating matrix, each signed so that all terms share
    one sign: the alternating-sign duality of the nonnegative
    Grassmannian (Karp, arXiv:1503.05622) sends the totally positive
    reference to a matrix whose plane meets no nonnegative plane.
    """

    base_part, fiber_part = "eta", "omega"

    def __init__(self, eta: MultiVector):
        _check_away_from_first(eta, "eta")
        super().__init__(eta, _reference(eta.n, eta.n - 1 - eta.k, True),
                         partial(wedge_ints, n=eta.n), eta.k + 1)


def e_fiber(omega: MultiVector) -> EFiberFrame:
    require_chamber_vector(omega)
    return EFiberFrame(omega)


def f_fiber(eta: MultiVector) -> FFiberFrame:
    require_chamber_vector(eta)
    return FFiberFrame(eta)


def nudge_into(poly: HPolytope, y: Sequence) -> tuple[Fraction, ...]:
    """Exact pullback of a nearly-feasible point into the polytope.

    Moves from the vertex mean m toward y by the radial function of the
    polytope about m along y - m (``convexoid._radial_about``, read off the
    polytope's own rows), which is just far enough to satisfy every
    constraint; a no-op for feasible points.  The mean lies in the polytope
    and y outside it, so that factor is in [0, 1).
    """
    y = tuple(Fraction(v) for v in y)
    if poly.contains_point(y):
        return y
    verts = vertices(poly)
    if not verts:
        raise ValidationError("cannot nudge into an empty polytope")
    center = tuple(
        sum((v[i] for v in verts), Fraction(0)) / len(verts)
        for i in range(poly.dim)
    )
    direction = tuple(a - b for a, b in zip(y, center))
    lam = _radial_about(poly, center, direction)
    return tuple(c + lam * d for c, d in zip(center, direction))


# ---------------------------------------------------------------------------
# ball chart


class ChartPoint:
    """Coordinates of a chamber point in the closed unit ball."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(_float(v) for v in coords)
        norm = norm_gauge(coords)
        if not norm <= 1 + NORM_SLACK:  # NaN fails it too
            raise ValidationError(f"chart point has norm {norm} > 1")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("ChartPoint is immutable")

    def __repr__(self):
        return f"ChartPoint({list(self.coords)})"


class _SimplexChart:
    """Fixed homeomorphism of the coefficient simplex onto the cube
    [-1, 1]^(count - 1), over integers over one denominator.

    The offsets d = v - 1 / count of the values v have the coordinates
    c_i = d_1 + ... + d_i in the basis e_i - e_(i+1) of the sum-zero
    hyperplane, and each ray is rescaled so that the sup norm of c matches
    the simplex gauge -count min(d).  Used at every recursion leaf (grade 1
    and corank <= 1, where every nonnegative normalized element is
    decomposable).  The point chamber (corank 0) has one value, 1, and maps
    to the point of the cube [-1, 1]^0.
    """

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.subsets = list(combinations(range(1, n + 1), k))
        self.count = len(self.subsets)

    def forward(self, point: ChamberPoint) -> tuple[Fraction, ...]:
        """c g / sup(c) over integers: with the values A / D, the offsets
        are E / (count D) for E = count A - D, so c is C / (count D) for the
        partial sums C of E, the gauge m / D for m = -min E, and the cube
        point C m / (D S) for S = max |C|."""
        ints, den = integer_coeffs(point.rho)
        offsets = [self.count * ints.get(key, 0) - den for key in self.subsets]
        sums = list(accumulate(offsets[:-1]))
        top = max(map(abs, sums), default=0)
        if not top:
            return (Fraction(0),) * len(sums)
        low = -min(offsets)
        return tuple(Fraction(c * low, den * top) for c in sums)

    def inverse(self, z) -> ChamberPoint:
        """The point of cube point z = Z / L over integers: its direction
        has the offsets E_i = Z_i - Z_(i-1) (Z_0 = Z_count = 0), which the
        map rescales to E S / (L count m) for S = max |Z| and m = -min E;
        so the values are L m + E_i S, up to the factor 1 / (L count m)
        that normalizing divides out.  They are nonnegative for z in the
        cube, and m = 0 only at z = 0, the barycenter.
        """
        ints, den = _integer_vector(z)
        padded = [0, *ints, 0]
        offsets = [b - a for a, b in zip(padded, padded[1:])]
        low = -min(offsets)
        if not low:
            values = dict.fromkeys(self.subsets, 1)
        else:
            top = max(map(abs, ints))
            values = {
                key: den * low + e * top
                for key, e in zip(self.subsets, offsets)
                if den * low + e * top > 0
            }
        # unchecked: the values are nonnegative and not all 0 (the offsets
        # sum to 0, so some is positive), dividing by their total normalizes
        # them, and every nonnegative element of grade 1 or n - 1 is
        # decomposable
        return ChamberPoint._unchecked(
            MultiVector._of_ints(self.n, self.k, values, sum(values.values()))
        )


class _Side:
    """One fibered half of the chamber as a convexoid over a base chart.

    The E side (t <= 1/2) fibers over omega with eta in the fiber, the F
    side (t >= 1/2) over eta with omega in the fiber; ``frame_cls`` builds
    the fibers and names the base and fiber fields of a SplitTriple.  The
    convexoid coordinates are (tau, z, (1 - tau) y): tau = sign * (2t - 1)
    runs from the shared bottom t = 1/2 to the top, z is the base element's
    point in the cube of ``base`` (the recursive chart of the base factor)
    and y the fiber element's centered point in the base element's frame.

    ``coords`` reads a split triple's coordinates and ``triple_of_coords``
    builds the triple back; these two are the side's one fiber path.
    ``point_of_coords`` assembles that triple, and ``bottom_to`` hands it,
    at t = 1/2, to the other side's ``coords``.

    The cube points a side hands to ``base`` and takes from it are rounded
    (``convexoid.limit_point``).  ``element_of_cube`` inverts ``base`` once
    per rounded point and caches the element in ``elements``, keyed by its
    (numerator, denominator) pairs, as ``ConvexoidSpec.fiber`` keys its
    memo: they hash without the modular inverse a ``Fraction`` hash takes.
    """

    def __init__(self, name, n, base, frame_cls, fiber_dim, sign):
        self.name, self.n, self.base = name, n, base
        self.frame_cls = frame_cls
        self.frames: dict[MultiVector, FiberFrame] = {}
        self.elements: dict[tuple[tuple[int, int], ...], MultiVector] = {}
        self.fiber_dim = fiber_dim
        self.sign = sign

    def frame(self, base_el: MultiVector) -> FiberFrame:
        frame = self.frames.get(base_el)
        if frame is None:
            frame = self.frame_cls(base_el)
            self.frames[base_el] = frame
        return frame

    def element_of_cube(self, z) -> MultiVector:
        z = limit_point(z)
        key = tuple((v.numerator, v.denominator) for v in z)
        element = self.elements.get(key)
        if element is None:
            element = self.base._point_of_cube(z).rho.shift(+1, n=self.n)
            self.elements[key] = element
        return element

    def cube_of_element(self, base_el: MultiVector) -> tuple[Fraction, ...]:
        # unchecked: base_el is a part of a valid split triple or a fiber
        # element (see ``triple_of_coords``), a chamber vector away from
        # index 1
        point = ChamberPoint._unchecked(base_el.shift(-1))
        return limit_point(self.base._cube_of(point))

    def oracle(self, p) -> HPolytope:
        tau, z = p[0], p[1:]
        frame = self.frame(self.element_of_cube(z))
        return frame.centered_polytope.scaled(max(Fraction(0), 1 - tau))

    def spec(self) -> ConvexoidSpec:
        return ConvexoidSpec(1 + self.base.dim, self.fiber_dim, self.oracle)

    def coords(self, triple: SplitTriple) -> tuple[Fraction, ...]:
        tau = self.sign * (2 * triple.t - 1)
        base_el = getattr(triple, self.frame_cls.base_part)
        fiber_el = getattr(triple, self.frame_cls.fiber_part)
        if fiber_el is None:
            y = (Fraction(0),) * self.fiber_dim
        else:
            y = self.frame(base_el).centered_point_of(fiber_el)
        scaled = tuple((1 - tau) * v for v in y)
        return (tau, *self.cube_of_element(base_el), *scaled)

    def triple_of_coords(self, x) -> SplitTriple:
        """The split triple of convexoid coordinates x, unchecked."""
        # tau is in [0, 1]: x is a half-cube inverse or a bottom point,
        # whose base point lies in the cube, and rounding keeps it there
        tau = x[0]
        base_el = self.element_of_cube(x[1 : 1 + self.base.dim])
        if 1 - tau < SLACK:
            t, fiber_el = Fraction(1 + self.sign, 2), None
        else:
            frame = self.frame(base_el)
            y = nudge_into(
                frame.centered_polytope,
                [v / (1 - tau) for v in x[1 + self.base.dim :]],
            )
            t = (1 + self.sign * tau) / 2
            fiber_el = frame.element_of_centered(y)
        # unchecked: t is in [0, 1], with the fiber element absent exactly
        # at t = (1 + sign) / 2; base_el is a base chart point moved off
        # index 1; the fiber element was nudged exactly into the slice
        # polytope, so it is nonnegative with coefficient sum 1, and it is
        # the contraction or wedge of the base by one vector of the frame's
        # span, hence decomposable and contained in or containing the base
        parts = {
            self.frame_cls.base_part: base_el,
            self.frame_cls.fiber_part: fiber_el,
        }
        return SplitTriple._unchecked(t, **parts)

    def point_of_coords(self, x) -> ChamberPoint:
        return assemble(self.triple_of_coords(x))

    def bottom_to(self, other: "_Side", x) -> tuple[Fraction, ...]:
        """This side's bottom coordinates -> the other side's, through the
        split triple at t = 1/2, where both elements are present: the base
        element here is the fiber element there and the other way round."""
        return other.coords(self.triple_of_coords(x))


class BallChart:
    """Chart of the nonnegative (k, n) chamber onto the ball.

    Grade 1 and corank <= 1 are simplex leaves; a chart whose fibers, of
    dimension k - 1 and n - k - 1, exceed ``convexoid.MAX_FIBER_DIM`` is
    refused here, before any recursion.  Otherwise the chamber splits
    into the two fibered halves (``_Side``), each half becomes a convexoid
    whose base cube coordinates come from the recursive chart of the base
    factor, and the glued convexoid maps provide the cube coordinates
    (``_cube_of``, ``_point_of_cube``), which ``forward`` and ``inverse``
    regauge to the Euclidean ball and back.
    """

    def __init__(self, k: int, n: int):
        if not 1 <= k <= n:
            raise ValidationError(f"no chamber for grade {k} in dimension {n}")
        self.k, self.n = k, n
        self.dim = k * (n - k)
        self._simplex = None
        self._glued = None
        if k == 1 or k >= n - 1:
            self._simplex = _SimplexChart(n, k)
        elif max(k - 1, n - k - 1) > MAX_FIBER_DIM:
            raise ValidationError(
                f"no chart for grade {k} in dimension {n}: its fibers "
                f"have dimension {k - 1} and {n - k - 1}, and fibers of "
                f"dimension above {MAX_FIBER_DIM} are not supported"
            )
        else:
            self._e = _Side("E", n, get_chart(k, n - 1), EFiberFrame, k - 1,
                            -1)
            self._f = _Side("F", n, get_chart(k - 1, n - 1), FFiberFrame,
                            n - k - 1, +1)

    def _glued_map(self) -> GluedBallMap:
        if self._glued is None:
            e, f = self._e, self._f
            self._glued = GluedBallMap(
                e.spec(),
                f.spec(),
                lambda x: e.bottom_to(f, x),
                lambda x: f.bottom_to(e, x),
                bottom_samples=self._bottom_samples(8),
            )
        return self._glued

    def _bottom_samples(self, count: int):
        rng = random.Random(20240517)
        samples = []
        e = self._e
        for _ in range(count):
            z = [rng.uniform(-0.8, 0.8) for _ in range(e.base.dim)]
            frame = e.frame(e.element_of_cube(rationalize_point(z)))
            verts = vertices(frame.centered_polytope)
            # Dirichlet(1, ..., 1): exponential draws over their sum
            draws = [rng.expovariate(1.0) for _ in verts]
            weights = [rationalize(d / sum(draws)) for d in draws]
            y = [
                sum(
                    (wt * v[i] for wt, v in zip(weights, verts)),
                    Fraction(0),
                )
                for i in range(frame.dim)
            ]
            y = nudge_into(frame.centered_polytope, y)
            samples.append(
                (Fraction(0),) + rationalize_point(z) + tuple(y)
            )
        return samples

    def forward(self, point: ChamberPoint) -> ChartPoint:
        if point.n != self.n or point.k != self.k:
            raise ValidationError("point belongs to a different chamber")
        return ChartPoint(regauge(self._cube_of(point), sup_gauge, norm_gauge))

    def _cube_of(self, point: ChamberPoint) -> tuple[Fraction, ...]:
        """The point's coordinates in the cube [-1, 1]^dim, rational."""
        if self._simplex is not None:
            return self._simplex.forward(point)
        triple = split(point)
        side = self._e if 2 * triple.t <= 1 else self._f
        return self._glued_map().forward(side.name, side.coords(triple))

    def inverse(self, chart: ChartPoint | Sequence) -> ChamberPoint:
        coords = chart.coords if isinstance(chart, ChartPoint) else tuple(chart)
        if len(coords) != self.dim:
            raise ValidationError(
                f"chart point has dimension {len(coords)}, expected {self.dim}"
            )
        norm = norm_gauge(coords)
        if not norm <= 1 + NORM_SLACK:  # NaN fails it too
            raise DomainError(f"chart point has norm {norm} > 1")
        if norm > 1:
            coords = tuple(c / norm for c in coords)
        cube = regauge(coords, norm_gauge, sup_gauge)
        return self._point_of_cube(rationalize_point(cube))

    def _point_of_cube(self, z) -> ChamberPoint:
        """The chamber point of the rational cube point z."""
        if self._simplex is not None:
            return self._simplex.inverse(z)
        name, x = self._glued_map().inverse(z)
        side = self._e if name == "E" else self._f
        return side.point_of_coords(x)


_CHARTS: dict[tuple[int, int], BallChart] = {}


def get_chart(k: int, n: int) -> BallChart:
    """Shared chart instance per (k, n); reuses fiber and oracle setup."""
    chart = _CHARTS.get((k, n))
    if chart is None:
        chart = BallChart(k, n)
        _CHARTS[(k, n)] = chart
    return chart


def ball_chart(point: ChamberPoint) -> ChartPoint:
    """Ball coordinates of a chamber point; dimension k(n-k)."""
    return get_chart(point.k, point.n).forward(point)


def ball_chart_inverse(chart: ChartPoint | Sequence, k: int, n: int) -> ChamberPoint:
    """Chamber point of ball coordinates; inverse of ball_chart up to the
    rounding of the rationals handed between chart levels."""
    return get_chart(k, n).inverse(chart)
