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
k(n-k), evaluated numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import linalg
from .convexoid import (
    ConvexoidSpec,
    DomainError,
    GluedBallMap,
    HPolytope,
    centered,
    centroid,
    rationalize,
    rationalize_point,
    vertices,
)
from .exterior import (
    MultiVector,
    SignClass,
    classify_sign,
    contract,
    wedge,
)
from .plucker import (
    contains,
    is_decomposable,
    require_chamber_vector,
    spanning_vectors,
)

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
    "e_fiber_polytope",
    "f_fiber_polytope",
    "BallChart",
    "get_chart",
    "ball_chart",
    "ball_chart_inverse",
]

DEGENERATE_EPS = Fraction(1, 10**9)
NORM_SLACK = 1e-9


class ValidationError(ValueError):
    """An input fails the chamber-point or split-triple invariants."""


class ContainmentError(ValueError):
    """A split triple lacks the required containment of eta in omega."""


@dataclass(frozen=True)
class ChamberPoint:
    """Normalized nonnegative decomposable representative of a plane."""

    rho: MultiVector

    def __post_init__(self):
        mv = self.rho
        if classify_sign(mv) not in (SignClass.POSITIVE, SignClass.NONNEGATIVE):
            raise ValidationError("chamber point must be nonnegative and nonzero")
        if mv.coefficient_sum() != 1:
            raise ValidationError("chamber point must be normalized")
        if not is_decomposable(mv):
            raise ValidationError("chamber point must be decomposable")

    @property
    def n(self) -> int:
        return self.rho.n

    @property
    def k(self) -> int:
        return self.rho.k


def _check_away_from_first(mv: MultiVector, what: str) -> None:
    if any(1 in key for key in mv.coeffs):
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
            if classify_sign(part) not in (
                SignClass.POSITIVE,
                SignClass.NONNEGATIVE,
            ):
                raise ValidationError(f"{what} must be nonnegative and nonzero")
            if part.coefficient_sum() != 1:
                raise ValidationError(f"{what} must be normalized")
            if not is_decomposable(part):
                raise ValidationError(f"{what} must be decomposable")
        if self.eta is not None and self.omega is not None:
            if self.eta.k + 1 != self.omega.k:
                raise ValidationError("eta must have grade one below omega")
            if not contains(self.eta, self.omega):
                raise ContainmentError("eta is not contained in omega")


def split(point: ChamberPoint) -> SplitTriple:
    """Exact decomposition rho = t * e_1 ^ eta + (1 - t) * omega."""
    rho = point.rho
    with_first = {
        key[1:]: c for key, c in rho.coeffs.items() if key and key[0] == 1
    }
    without_first = {
        key: c for key, c in rho.coeffs.items() if not key or key[0] != 1
    }
    eta0 = MultiVector(rho.n, rho.k - 1, with_first) if rho.k else None
    t = eta0.coefficient_sum() if eta0 is not None else Fraction(0)
    if t == 0:
        return SplitTriple(Fraction(0), None, rho)
    eta = eta0 / t
    if t == 1:
        return SplitTriple(Fraction(1), eta, None)
    omega = MultiVector(rho.n, rho.k, without_first) / (1 - t)
    return SplitTriple(t, eta, omega)


def assemble(triple: SplitTriple) -> ChamberPoint:
    """Exact inverse of split: rho = t * e_1 ^ eta + (1 - t) * omega."""
    t = triple.t
    if t == 0:
        rho = triple.omega
    else:
        n = triple.eta.n
        lifted = wedge(MultiVector.basis(n, (1,)), triple.eta)
        rho = lifted * t if t == 1 else lifted * t + triple.omega * (1 - t)
    try:
        return ChamberPoint(rho)
    except ValidationError as exc:  # unreachable when the triple is valid
        raise AssertionError(f"assembled point violates invariants: {exc}")


# ---------------------------------------------------------------------------
# fiber frames


def _sum_functional_frame(values):
    """Origin and kernel directions for the affine slice sum == 1.

    values are the images of the generators under the coefficient sum
    functional.  Returns (origin coords, kernel coordinate rows) in the
    generator basis.
    """
    total_sq = sum((v * v for v in values), Fraction(0))
    if total_sq == 0:
        raise ValidationError("the normalization functional vanishes")
    origin = [v / total_sq for v in values]
    kernel = linalg.kernel_basis([values], len(values))
    return origin, kernel


def _add_images(out: MultiVector, coords, images) -> MultiVector:
    """out + sum of c * image over the nonzero coords c."""
    for c, img in zip(coords, images):
        if c:
            out = out + img * c
    return out


class FiberFrame:
    """Normalized fiber over a base element, as a polytope in slice coords.

    The fiber elements are the images ``image(base, g)`` of the linear span
    of ``generators`` (vectors of R^n) that have coefficient sum 1 and are
    nonnegative.  The frame solves the normalization slice exactly, takes
    coordinates along its kernel, and collects one nonnegativity inequality
    per coefficient of the grade-``grade`` images into the polytope.
    Subclasses pick the generators and the image map, and name the
    SplitTriple fields of their base and fiber elements.
    """

    base_part = fiber_part = None

    def __init__(self, base: MultiVector, generators, image, grade: int):
        self.base = base
        self.images = [
            image(base, MultiVector.from_vector(r)) for r in generators
        ]
        values = [img.coefficient_sum() for img in self.images]
        origin_coords, kernel = _sum_functional_frame(values)
        self.origin_coords = origin_coords
        self.kernel_coords = kernel
        self.dim = len(kernel)
        zero = MultiVector.zero(base.n, grade)
        origin_image = _add_images(zero, origin_coords, self.images)
        basis_images = [_add_images(zero, kc, self.images) for kc in kernel]
        support = sorted(
            set(origin_image.support()).union(
                *[img.support() for img in basis_images]
            )
        )
        constraints = []
        for key in support:
            normal = tuple(-img.coefficient(key) for img in basis_images)
            offset = origin_image.coefficient(key)
            if any(normal):
                constraints.append((normal, offset))
        self.polytope = HPolytope(self.dim, constraints)
        self._origin_image = origin_image
        self._basis_images = basis_images
        # centered coordinates: centering cancels the translation part of a
        # frame jump across support strata, but not all of it.  When a
        # Plucker coordinate hits exactly 0, spanning_vectors picks other
        # pivots, so the generators change by a linear map and the fiber
        # frame can be rescaled as well as moved.  Chart fibers are centered
        # only here; ``_Side.oracle`` scales them with their centroid cached.
        self.center = centroid(self.polytope)
        self.centered_polytope = centered(self.polytope)

    def element_of_point(self, y: Sequence) -> MultiVector:
        return _add_images(self._origin_image, y, self._basis_images)

    def element_of_centered(self, yc: Sequence) -> MultiVector:
        return self.element_of_point(
            tuple(v + c for v, c in zip(yc, self.center))
        )

    def centered_point_of(self, element: MultiVector) -> tuple[Fraction, ...]:
        return tuple(
            v - c for v, c in zip(self.point_of_element(element), self.center)
        )

    def point_of_element(self, element: MultiVector) -> tuple[Fraction, ...]:
        keys = sorted(
            set().union(
                *[img.support() for img in self.images], element.support()
            )
        )
        columns = [[img.coefficient(key) for img in self.images] for key in keys]
        target = [element.coefficient(key) for key in keys]
        coords = linalg.solve(columns, target)
        if coords is None:
            raise ValidationError(
                f"{self.fiber_part} is not contained in the fiber family"
            )
        rel = [c - o for c, o in zip(coords, self.origin_coords)]
        kernel_cols = [
            [kc[i] for kc in self.kernel_coords]
            for i in range(len(self.images))
        ]
        y = linalg.solve(kernel_cols, rel)
        if y is None:
            raise ValidationError(
                f"{self.fiber_part} does not lie on the normalized slice"
            )
        return tuple(y)


class EFiberFrame(FiberFrame):
    """Fiber over omega on the low-t side: contained grade-(k-1) elements.

    Contained codimension-one elements are contractions of omega by vectors
    of its plane.
    """

    base_part, fiber_part = "omega", "eta"

    def __init__(self, omega: MultiVector):
        _check_away_from_first(omega, "omega")
        super().__init__(
            omega, spanning_vectors(omega).rows, contract, omega.k - 1
        )


class FFiberFrame(FiberFrame):
    """Fiber over eta on the high-t side: containing grade-(k+1) elements.

    Containing elements are wedges of eta with vectors orthogonal to its
    plane inside the span of e_2..e_n.
    """

    base_part, fiber_part = "eta", "omega"

    def __init__(self, eta: MultiVector):
        _check_away_from_first(eta, "eta")
        n = eta.n
        plane = spanning_vectors(eta).rows if eta.k else []
        first_axis = [Fraction(0)] * n
        first_axis[0] = Fraction(1)
        complement = linalg.kernel_basis(
            list(plane) + [tuple(first_axis)], n
        )
        super().__init__(eta, complement, wedge, eta.k + 1)


def e_fiber(omega: MultiVector) -> EFiberFrame:
    require_chamber_vector(omega)
    return EFiberFrame(omega)


def f_fiber(eta: MultiVector) -> FFiberFrame:
    require_chamber_vector(eta)
    return FFiberFrame(eta)


def e_fiber_polytope(omega: MultiVector) -> HPolytope:
    return e_fiber(omega).polytope


def f_fiber_polytope(eta: MultiVector) -> HPolytope:
    return f_fiber(eta).polytope


def nudge_into(poly: HPolytope, y: Sequence) -> tuple[Fraction, ...]:
    """Exact pullback of a nearly-feasible point into the polytope.

    Moves toward the vertex mean just far enough to satisfy every
    constraint; a no-op for feasible points.
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
    lam = Fraction(1)
    for normal, offset in poly.constraints:
        num = offset - linalg.dot(normal, center)
        den = linalg.dot(normal, direction)
        if den > 0 and num < den * lam:
            lam = num / den
    lam = max(lam, Fraction(0))
    return tuple(c + lam * d for c, d in zip(center, direction))


# ---------------------------------------------------------------------------
# ball chart


class ChartPoint:
    """Coordinates of a chamber point in the closed unit ball."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(float(v) for v in coords)
        norm = float(np.linalg.norm(coords))
        if norm > 1 + NORM_SLACK:
            raise ValidationError(f"chart point has norm {norm} > 1")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("ChartPoint is immutable")

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __repr__(self):
        return f"ChartPoint({list(self.coords)})"


def cube_of_ball(x: np.ndarray) -> np.ndarray:
    """Radial rescale of the unit ball onto the unit sup-norm cube."""
    x = np.asarray(x, dtype=float)
    sup = float(np.max(np.abs(x))) if x.size else 0.0
    if sup < 1e-300:
        return np.zeros_like(x)
    return x * (float(np.linalg.norm(x)) / sup)


def ball_of_cube(z: np.ndarray) -> np.ndarray:
    """Inverse radial rescale of the cube onto the ball."""
    z = np.asarray(z, dtype=float)
    norm = float(np.linalg.norm(z))
    if norm < 1e-300:
        return np.zeros_like(z)
    return z * (float(np.max(np.abs(z))) / norm)


class _SimplexChart:
    """Fixed homeomorphism of the coefficient simplex onto the unit ball.

    Center at the barycenter, then rescale each ray so the simplex gauge
    matches the Euclidean norm.  Used at every recursion leaf (grade 1 and
    corank 1, where every nonnegative normalized element is decomposable).
    """

    def __init__(self, n: int, k: int):
        from itertools import combinations

        self.n, self.k = n, k
        self.subsets = list(combinations(range(1, n + 1), k))
        count = len(self.subsets)
        self.count = count
        raw = np.zeros((count - 1, count))
        for i in range(count - 1):
            raw[i, i] = 1.0
            raw[i, i + 1] = -1.0
        q, r = np.linalg.qr(raw.T)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        self.frame = (q * signs).T  # rows orthonormal, span {sum == 0}

    def forward(self, point: ChamberPoint) -> ChartPoint:
        values = [point.rho.coefficient(key) for key in self.subsets]
        offsets = [v - Fraction(1, self.count) for v in values]
        gauge = self.count * max(-min(offsets), Fraction(0))
        d = np.array([float(v) for v in offsets])
        x = self.frame @ d
        norm = float(np.linalg.norm(x))
        if norm < 1e-300 or gauge == 0:
            return ChartPoint(np.zeros(self.count - 1))
        return ChartPoint(x * (float(gauge) / norm))

    def inverse(self, coords) -> ChamberPoint:
        y = np.asarray(coords, dtype=float)
        norm = float(np.linalg.norm(y))
        if norm < 1e-14:
            values = [Fraction(1, self.count)] * self.count
            return self._point_from_values(values)
        d_dir = self.frame.T @ y
        gauge_dir = self.count * float(-np.min(d_dir))
        if gauge_dir <= 0:
            raise DomainError("direction leaves the simplex hyperplane")
        d = d_dir * (norm / gauge_dir)
        values = [
            max(rationalize(v) + Fraction(1, self.count), Fraction(0))
            for v in d
        ]
        return self._point_from_values(values)

    def _point_from_values(self, values) -> ChamberPoint:
        total = sum(values, Fraction(0))
        coeffs = {
            key: v / total for key, v in zip(self.subsets, values) if v
        }
        return ChamberPoint(MultiVector(self.n, self.k, coeffs))


class _Side:
    """One fibered half of the chamber as a convexoid over a base chart.

    The E side (t <= 1/2) fibers over omega with eta in the fiber, the F
    side (t >= 1/2) over eta with omega in the fiber; ``frame_cls`` builds
    the fibers and names the base and fiber fields of a SplitTriple.  The
    convexoid coordinates are (tau, z, (1 - tau) y): tau = sign * (2t - 1)
    runs from the shared bottom t = 1/2 to the top, z is the base element's
    point in the cube of ``base`` (the recursive chart of the base factor)
    and y the fiber element's centered point in the base element's frame.
    """

    def __init__(self, name, n, base, frame_cls, fiber_dim, sign):
        self.name, self.n, self.base = name, n, base
        self.frame_cls = frame_cls
        self.frames: dict[MultiVector, FiberFrame] = {}
        self.fiber_dim = fiber_dim
        self.sign = sign

    def frame(self, base_el: MultiVector) -> FiberFrame:
        frame = self.frames.get(base_el)
        if frame is None:
            frame = self.frame_cls(base_el)
            self.frames[base_el] = frame
        return frame

    def element_of_cube(self, z) -> MultiVector:
        ball = ball_of_cube(np.array([float(v) for v in z]))
        return self.base.inverse(ChartPoint(ball)).rho.shift(+1, n=self.n)

    def cube_of_element(self, base_el: MultiVector) -> np.ndarray:
        return cube_of_ball(
            np.array(self.base.forward(ChamberPoint(base_el.shift(-1))).coords)
        )

    def oracle(self, p) -> HPolytope:
        tau, z = p[0], p[1:]
        frame = self.frame(self.element_of_cube(z))
        return frame.centered_polytope.scaled(max(Fraction(0), 1 - tau))

    def spec(self) -> ConvexoidSpec:
        return ConvexoidSpec(1 + self.base.dim, self.fiber_dim, self.oracle)

    def coords(self, triple: SplitTriple):
        tau = self.sign * (2 * triple.t - 1)
        base_el = getattr(triple, self.frame_cls.base_part)
        fiber_el = getattr(triple, self.frame_cls.fiber_part)
        z = self.cube_of_element(base_el)
        if fiber_el is None:
            y = (Fraction(0),) * self.fiber_dim
        else:
            y = self.frame(base_el).centered_point_of(fiber_el)
        scaled = tuple((1 - tau) * v for v in y)
        return (tau,) + tuple(rationalize(float(v)) for v in z) + scaled

    def _unpack(self, x):
        """(tau, z, fiber part) of convexoid coordinates, as rationals."""
        x = rationalize_point(x)
        return x[0], x[1 : 1 + self.base.dim], x[1 + self.base.dim :]

    def point_of_coords(self, x) -> ChamberPoint:
        tau, z, scaled = self._unpack(x)
        tau = min(max(tau, Fraction(0)), Fraction(1))
        base_el = self.element_of_cube(z)
        if 1 - tau < DEGENERATE_EPS:
            return self._assemble(Fraction(1 + self.sign, 2), base_el, None)
        frame = self.frame(base_el)
        y = nudge_into(
            frame.centered_polytope, [v / (1 - tau) for v in scaled]
        )
        fiber_el = frame.element_of_centered(y)
        return self._assemble((1 + self.sign * tau) / 2, base_el, fiber_el)

    def _assemble(self, t, base_el, fiber_el) -> ChamberPoint:
        parts = {
            self.frame_cls.base_part: base_el,
            self.frame_cls.fiber_part: fiber_el,
        }
        return assemble(SplitTriple(t, **parts))

    def bottom_to(self, other: "_Side", x):
        """This side's bottom coordinates -> the other side's.

        At t = 1/2 both elements are present; the base element here is the
        fiber element there and the other way round.
        """
        _, z, y = self._unpack(x)
        base_el = self.element_of_cube(z)
        frame = self.frame(base_el)
        fiber_el = frame.element_of_centered(
            nudge_into(frame.centered_polytope, y)
        )
        z_other = other.cube_of_element(fiber_el)
        y_other = other.frame(fiber_el).centered_point_of(base_el)
        return (0.0,) + tuple(float(v) for v in z_other) + tuple(
            float(v) for v in y_other
        )


class BallChart:
    """Numerical chart of the nonnegative (k, n) chamber onto the ball.

    Grade 1 and corank 1 are simplex leaves; otherwise the chamber splits
    into the two fibered halves (``_Side``), each half becomes a convexoid
    whose base cube coordinates come from the recursive chart of the base
    factor, and the glued convexoid maps provide the ball coordinates.
    """

    def __init__(self, k: int, n: int):
        if not 1 <= k <= n:
            raise ValidationError(f"no chamber for grade {k} in dimension {n}")
        self.k, self.n = k, n
        self.dim = k * (n - k)
        self._simplex = None
        self._glued = None
        if k == 1 or k == n - 1:
            self._simplex = _SimplexChart(n, k)
        elif k != n:
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
        rng = np.random.default_rng(20240517)
        samples = []
        e = self._e
        for _ in range(count):
            z = rng.uniform(-0.8, 0.8, e.base.dim)
            frame = e.frame(e.element_of_cube(rationalize_point(z)))
            verts = vertices(frame.centered_polytope)
            weights = rng.dirichlet(np.ones(len(verts)))
            y = [
                sum(
                    (rationalize(float(wt)) * v[i] for wt, v in zip(weights, verts)),
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
        if self.dim == 0:
            return ChartPoint(())
        if self._simplex is not None:
            return self._simplex.forward(point)
        triple = split(point)
        side = self._e if 2 * triple.t <= 1 else self._f
        return ChartPoint(
            self._glued_map().forward(side.name, side.coords(triple))
        )

    def inverse(self, chart: ChartPoint | Sequence) -> ChamberPoint:
        coords = chart.coords if isinstance(chart, ChartPoint) else tuple(chart)
        if len(coords) != self.dim:
            raise ValidationError(
                f"chart point has dimension {len(coords)}, expected {self.dim}"
            )
        norm = float(np.linalg.norm(coords))
        if norm > 1 + NORM_SLACK:
            raise DomainError(f"chart point has norm {norm} > 1")
        if norm > 1:
            coords = tuple(c / norm for c in coords)
        if self.dim == 0:
            return ChamberPoint(
                MultiVector.basis(self.n, range(1, self.n + 1))
            )
        if self._simplex is not None:
            return self._simplex.inverse(coords)
        name, x = self._glued_map().inverse(np.array(coords))
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
    """Chamber point of ball coordinates; inverse of ball_chart up to 1e-6."""
    return get_chart(k, n).inverse(chart)
