"""Chamber coordinates on nonnegative Grassmannians and the ball chart.

A chamber point is a normalized nonnegative decomposable grade-k element of
the k-th exterior power of R^n; it splits exactly (all rationals) as
rho = t * e_1 ^ eta + (1 - t) * omega with eta, omega supported away from
index 1 and eta contained in omega.  The two fibrations this induces (over
omega for t <= 1/2, over eta for t >= 1/2) have convex polytope fibers;
feeding them to the convexoid machinery and gluing the halves yields a chart
onto the closed ball of dimension k(n-k), evaluated numerically.
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
    _centroid_any,
    rationalize,
    rationalize_point,
    vertices,
)
from .exterior import (
    MultiVector,
    SignClass,
    classify_sign,
    contract,
    normalize,
    wedge,
)
from .plucker import (
    DecomposabilityError,
    contains,
    is_decomposable,
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


def _sum_functional_frame(generators, values):
    """Origin and kernel directions for the affine slice sum == 1.

    generators are vectors in R^n; values their images under the coefficient
    sum functional.  Returns (origin coords, kernel coordinate rows) in the
    generator basis.
    """
    total_sq = sum((v * v for v in values), Fraction(0))
    if total_sq == 0:
        raise ValidationError("the normalization functional vanishes")
    origin = [v / total_sq for v in values]
    kernel = linalg.kernel_basis([values], len(values))
    return origin, kernel


def _combine(generators, coords):
    out = [Fraction(0)] * len(generators[0])
    for c, g in zip(coords, generators):
        if c:
            for i, x in enumerate(g):
                out[i] += c * x
    return tuple(out)


class EFiberFrame:
    """Fiber over omega on the low-t side: contained grade-(k-1) elements.

    Contained codimension-one elements are contractions of omega by vectors
    of its plane; the frame solves the normalization slice exactly and the
    polytope collects one nonnegativity inequality per coefficient.
    """

    def __init__(self, omega: MultiVector):
        _check_away_from_first(omega, "omega")
        self.omega = omega
        rows = spanning_vectors(omega).rows
        self.generators = [tuple(r) for r in rows]
        gen_mvs = [MultiVector.from_vector(r) for r in rows]
        self.images = [contract(omega, g) for g in gen_mvs]
        values = [img.coefficient_sum() for img in self.images]
        origin_coords, kernel = _sum_functional_frame(self.generators, values)
        self.origin_coords = origin_coords
        self.kernel_coords = kernel
        self.dim = len(kernel)
        origin_image = self._image_at(origin_coords)
        basis_images = [self._image_at(kc) for kc in kernel]
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
        # frame can be rescaled as well as moved.
        self.center = _centroid_any(self.polytope) if self.dim else ()
        self.centered_polytope = self.polytope.translated(
            [-c for c in self.center]
        )

    def _image_at(self, coords) -> MultiVector:
        out = MultiVector.zero(self.omega.n, self.omega.k - 1)
        for c, img in zip(coords, self.images):
            if c:
                out = out + img * c
        return out

    def eta_of_point(self, y: Sequence) -> MultiVector:
        out = self._origin_image
        for c, img in zip(y, self._basis_images):
            if c:
                out = out + img * c
        return out

    def eta_of_centered(self, yc: Sequence) -> MultiVector:
        return self.eta_of_point(
            tuple(v + c for v, c in zip(yc, self.center))
        )

    def centered_point_of_eta(self, eta: MultiVector) -> tuple[Fraction, ...]:
        return tuple(
            v - c for v, c in zip(self.point_of_eta(eta), self.center)
        )

    def point_of_eta(self, eta: MultiVector) -> tuple[Fraction, ...]:
        keys = sorted(
            set().union(*[img.support() for img in self.images], eta.support())
        )
        columns = [[img.coefficient(key) for img in self.images] for key in keys]
        target = [eta.coefficient(key) for key in keys]
        coords = linalg.solve(columns, target)
        if coords is None:
            raise ValidationError("eta is not contained in the fiber family")
        rel = [c - o for c, o in zip(coords, self.origin_coords)]
        kernel_cols = [
            [kc[i] for kc in self.kernel_coords]
            for i in range(len(self.generators))
        ]
        y = linalg.solve(kernel_cols, rel)
        if y is None:
            raise ValidationError("eta does not lie on the normalized slice")
        return tuple(y)


class FFiberFrame:
    """Fiber over eta on the high-t side: containing grade-k elements.

    Containing elements are wedges of eta with vectors orthogonal to its
    plane inside the span of e_2..e_n.
    """

    def __init__(self, eta: MultiVector):
        _check_away_from_first(eta, "eta")
        self.eta = eta
        n = eta.n
        plane = spanning_vectors(eta).rows if eta.k else []
        first_axis = [Fraction(0)] * n
        first_axis[0] = Fraction(1)
        complement = linalg.kernel_basis(
            list(plane) + [tuple(first_axis)], n
        )
        self.generators = [tuple(r) for r in complement]
        gen_mvs = [MultiVector.from_vector(r) for r in complement]
        self.images = [wedge(eta, g) for g in gen_mvs]
        values = [img.coefficient_sum() for img in self.images]
        origin_coords, kernel = _sum_functional_frame(self.generators, values)
        self.origin_coords = origin_coords
        self.kernel_coords = kernel
        self.dim = len(kernel)
        origin_image = self._image_at(origin_coords)
        basis_images = [self._image_at(kc) for kc in kernel]
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
        self.center = _centroid_any(self.polytope) if self.dim else ()
        self.centered_polytope = self.polytope.translated(
            [-c for c in self.center]
        )

    def _image_at(self, coords) -> MultiVector:
        out = MultiVector.zero(self.eta.n, self.eta.k + 1)
        for c, img in zip(coords, self.images):
            if c:
                out = out + img * c
        return out

    def omega_of_point(self, y: Sequence) -> MultiVector:
        out = self._origin_image
        for c, img in zip(y, self._basis_images):
            if c:
                out = out + img * c
        return out

    def omega_of_centered(self, yc: Sequence) -> MultiVector:
        return self.omega_of_point(
            tuple(v + c for v, c in zip(yc, self.center))
        )

    def centered_point_of_omega(self, omega: MultiVector) -> tuple[Fraction, ...]:
        return tuple(
            v - c for v, c in zip(self.point_of_omega(omega), self.center)
        )

    def point_of_omega(self, omega: MultiVector) -> tuple[Fraction, ...]:
        keys = sorted(
            set().union(
                *[img.support() for img in self.images], omega.support()
            )
        )
        columns = [[img.coefficient(key) for img in self.images] for key in keys]
        target = [omega.coefficient(key) for key in keys]
        coords = linalg.solve(columns, target)
        if coords is None:
            raise ValidationError("omega does not contain eta compatibly")
        rel = [c - o for c, o in zip(coords, self.origin_coords)]
        kernel_cols = [
            [kc[i] for kc in self.kernel_coords]
            for i in range(len(self.generators))
        ]
        y = linalg.solve(kernel_cols, rel)
        if y is None:
            raise ValidationError("omega does not lie on the normalized slice")
        return tuple(y)


def e_fiber(omega: MultiVector) -> EFiberFrame:
    from .plucker import require_chamber_vector

    require_chamber_vector(omega)
    return EFiberFrame(omega)


def f_fiber(eta: MultiVector) -> FFiberFrame:
    from .plucker import require_chamber_vector

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


class BallChart:
    """Numerical chart of the nonnegative (k, n) chamber onto the ball.

    Grade 1 and corank 1 are simplex leaves; otherwise the chamber splits
    into the two fibered halves, each half becomes a convexoid whose base
    cube coordinates come from the recursive chart of the base factor, and
    the glued convexoid maps provide the ball coordinates.
    """

    def __init__(self, k: int, n: int):
        if not 1 <= k <= n:
            raise ValidationError(f"no chamber for grade {k} in dimension {n}")
        self.k, self.n = k, n
        self.dim = k * (n - k)
        self._simplex = None
        self._glued = None
        self._e_frames: dict[MultiVector, EFiberFrame] = {}
        self._f_frames: dict[MultiVector, FFiberFrame] = {}
        if k == 1 or k == n - 1:
            self._simplex = _SimplexChart(n, k)
        elif k != n:
            self.base_e = get_chart(k, n - 1)
            self.base_f = get_chart(k - 1, n - 1)

    # -- shared frame caches -------------------------------------------------

    def _e_frame(self, omega: MultiVector) -> EFiberFrame:
        frame = self._e_frames.get(omega)
        if frame is None:
            frame = EFiberFrame(omega)
            self._e_frames[omega] = frame
        return frame

    def _f_frame(self, eta: MultiVector) -> FFiberFrame:
        frame = self._f_frames.get(eta)
        if frame is None:
            frame = FFiberFrame(eta)
            self._f_frames[eta] = frame
        return frame

    # -- convexoid construction ----------------------------------------------

    def _omega_of_cube(self, z) -> MultiVector:
        ball = ball_of_cube(np.array([float(v) for v in z]))
        return self.base_e.inverse(ChartPoint(ball)).rho.shift(+1, n=self.n)

    def _eta_of_cube(self, z) -> MultiVector:
        ball = ball_of_cube(np.array([float(v) for v in z]))
        return self.base_f.inverse(ChartPoint(ball)).rho.shift(+1, n=self.n)

    def _glued_map(self) -> GluedBallMap:
        if self._glued is not None:
            return self._glued

        def oracle_e(p):
            tau, z = p[0], p[1:]
            frame = self._e_frame(self._omega_of_cube(z))
            return frame.centered_polytope.scaled(max(Fraction(0), 1 - tau))

        def oracle_f(p):
            tau, z = p[0], p[1:]
            frame = self._f_frame(self._eta_of_cube(z))
            return frame.centered_polytope.scaled(max(Fraction(0), 1 - tau))

        spec_e = ConvexoidSpec(1 + self.base_e.dim, self.k - 1, oracle_e)
        spec_f = ConvexoidSpec(
            1 + self.base_f.dim, self.n - self.k - 1, oracle_f
        )
        samples = self._bottom_samples(8)
        self._glued = GluedBallMap(
            spec_e,
            spec_f,
            self._phi,
            self._phi_inverse,
            bottom_samples=samples,
            tol=1e-6,
        )
        return self._glued

    def _bottom_samples(self, count: int):
        rng = np.random.default_rng(20240517)
        samples = []
        for _ in range(count):
            z = rng.uniform(-0.8, 0.8, self.base_e.dim)
            omega = self._omega_of_cube(rationalize_point(z))
            frame = self._e_frame(omega)
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

    # -- bottom identification -----------------------------------------------

    def _phi(self, x_e):
        """E-side bottom coordinates -> F-side bottom coordinates."""
        x_e = rationalize_point(x_e)
        z = x_e[1 : 1 + self.base_e.dim]
        y = x_e[1 + self.base_e.dim :]
        omega = self._omega_of_cube(z)
        frame = self._e_frame(omega)
        eta = frame.eta_of_centered(nudge_into(frame.centered_polytope, y))
        z_f = cube_of_ball(
            np.array(self.base_f.forward(ChamberPoint(eta.shift(-1))).coords)
        )
        f_frame = self._f_frame(eta)
        y_f = f_frame.centered_point_of_omega(omega)
        return (0.0,) + tuple(float(v) for v in z_f) + tuple(
            float(v) for v in y_f
        )

    def _phi_inverse(self, x_f):
        x_f = rationalize_point(x_f)
        z = x_f[1 : 1 + self.base_f.dim]
        y = x_f[1 + self.base_f.dim :]
        eta = self._eta_of_cube(z)
        frame = self._f_frame(eta)
        omega = frame.omega_of_centered(nudge_into(frame.centered_polytope, y))
        z_e = cube_of_ball(
            np.array(self.base_e.forward(ChamberPoint(omega.shift(-1))).coords)
        )
        e_frame = self._e_frame(omega)
        y_e = e_frame.centered_point_of_eta(eta)
        return (0.0,) + tuple(float(v) for v in z_e) + tuple(
            float(v) for v in y_e
        )

    # -- chart ----------------------------------------------------------------

    def forward(self, point: ChamberPoint) -> ChartPoint:
        if point.n != self.n or point.k != self.k:
            raise ValidationError("point belongs to a different chamber")
        if self.dim == 0:
            return ChartPoint(())
        if self._simplex is not None:
            return self._simplex.forward(point)
        triple = split(point)
        if 2 * triple.t <= 1:
            side, x = "E", self._e_coords(triple)
        else:
            side, x = "F", self._f_coords(triple)
        return ChartPoint(self._glued_map().forward(side, x))

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
        side, x = self._glued_map().inverse(np.array(coords))
        if side == "E":
            return self._from_e_coords(x)
        return self._from_f_coords(x)

    # -- side coordinates ------------------------------------------------------

    def _e_coords(self, triple: SplitTriple):
        tau = 1 - 2 * triple.t
        omega = triple.omega
        z = cube_of_ball(
            np.array(
                self.base_e.forward(ChamberPoint(omega.shift(-1))).coords
            )
        )
        if triple.t == 0:
            y = (Fraction(0),) * (self.k - 1)
        else:
            frame = self._e_frame(omega)
            y = frame.centered_point_of_eta(triple.eta)
        scaled = tuple((1 - tau) * v for v in y)
        return (tau,) + tuple(rationalize(float(v)) for v in z) + scaled

    def _f_coords(self, triple: SplitTriple):
        tau = 2 * triple.t - 1
        eta = triple.eta
        z = cube_of_ball(
            np.array(self.base_f.forward(ChamberPoint(eta.shift(-1))).coords)
        )
        if triple.t == 1:
            y = (Fraction(0),) * (self.n - self.k - 1)
        else:
            frame = self._f_frame(eta)
            y = frame.centered_point_of_omega(triple.omega)
        scaled = tuple((1 - tau) * v for v in y)
        return (tau,) + tuple(rationalize(float(v)) for v in z) + scaled

    def _from_e_coords(self, x) -> ChamberPoint:
        x = rationalize_point(x)
        tau = min(max(x[0], Fraction(0)), Fraction(1))
        z = x[1 : 1 + self.base_e.dim]
        scaled = x[1 + self.base_e.dim :]
        omega = self._omega_of_cube(z)
        t = (1 - tau) / 2
        if 1 - tau < DEGENERATE_EPS:
            return assemble(SplitTriple(Fraction(0), None, omega))
        frame = self._e_frame(omega)
        y = nudge_into(
            frame.centered_polytope, [v / (1 - tau) for v in scaled]
        )
        eta = frame.eta_of_centered(y)
        return assemble(SplitTriple(t, eta, omega))

    def _from_f_coords(self, x) -> ChamberPoint:
        x = rationalize_point(x)
        tau = min(max(x[0], Fraction(0)), Fraction(1))
        z = x[1 : 1 + self.base_f.dim]
        scaled = x[1 + self.base_f.dim :]
        eta = self._eta_of_cube(z)
        t = (1 + tau) / 2
        if 1 - tau < DEGENERATE_EPS:
            return assemble(SplitTriple(Fraction(1), eta, None))
        frame = self._f_frame(eta)
        y = nudge_into(
            frame.centered_polytope, [v / (1 - tau) for v in scaled]
        )
        omega = frame.omega_of_centered(y)
        return assemble(SplitTriple(t, eta, omega))


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
