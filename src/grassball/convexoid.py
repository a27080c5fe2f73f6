"""Fibered polytope bodies over a cube and their maps onto half-balls.

A convexoid is a family of convex polytope fibers over the cube
Q = [0,1] x [-1,1]^(nb-1), bounded with nonempty interior over interior base
points and over the interior of the bottom face {0} x [-1,1]^(nb-1).  Such a
body is homeomorphic to a closed half-ball with bottom going to bottom; two
of them glued along their bottoms give a closed ball.

Polytope data is exact rational.  Vertex enumeration, the boundedness check,
the centroid and the support function compute over integer rows (each
constraint or point scaled by a positive integer) and emit ``Fraction``
results, and ``rationalize`` runs its continued fraction for a float over
integers; the half-ball and ball maps emit floats with explicit tolerances.
Every centroid, of a full polytope or of a flat one in its own affine span,
is one exact simplex fan over the integer vertices (``_fan_centroid``),
except that of an interval: the midpoint of its two bounds, read off the
constraints, so that its vertices stay unenumerated until asked for.  No
linear program runs: boundedness is an exact extreme-ray check on the
integer constraint normals, and the joined body (the union of segments from
the bottom center's fiber to the fibers over the distinguished boundary) is
never built as a polytope.  Its exit times and radial
functions are closed forms in the support functions of the two fibers it
joins.  The exit time is still rounded to a dyadic within ``EXIT_TOL`` (see
``_Ray.exit_scale``).  The maps center fibers with ``centroid`` and
``centered``, which cache on the polytope; ``translated`` and ``scaled``
carry the vertex and centroid caches over, so a fiber centered once is never
centered again.  Those copies keep the normals, already checked, so they
are built unchecked; the public ``HPolytope`` constructor checks and
converts every constraint.

The numeric layer's radial rescales (ball and cube, half-ball and
half-cylinder, long cylinder and ball) are one map, ``regauge``, between
the unit bodies of two gauges.  The tolerances that remain:

- ``EXIT_TOL`` (1e-10, exact): exit times are rounded to a dyadic within it.
- ``SLACK`` (1e-9, exact): how far outside the base cube or its fiber a
  point given to ``HalfBallMap.forward`` may lie, how far beyond norm 1 or
  below height 0 a half-ball point may lie, and the stand-in for a radial
  function that is 0.
- ``NORM_SLACK`` (1e-9, float): how far beyond norm 1 a ball or chart point
  may lie; ``chamber`` and the CLI checks use it too.
- ``GLUE_TOL`` (1e-6): the two sides must agree within it on the bottom
  samples.
- ``RATIONALIZE_DEN`` (10^12): the denominator limit of floats made exact;
  a half-ball point that it rounds to 0 is the center of the bottom.

``regauge`` guards an exact 0 only.  Outside this module,
``chamber.DEGENERATE_EPS`` (1e-9) puts tau that close to the top on the
top, and the simplex leaves treat a norm below 1e-300 (forward) or 1e-14
(inverse) as the center.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import ceil, lcm
from typing import Callable, Sequence

import numpy as np

from . import linalg

__all__ = [
    "HPolytope",
    "ConvexoidSpec",
    "UnboundedError",
    "DegenerateError",
    "DomainError",
    "GluingError",
    "vertices",
    "barycenter",
    "centroid",
    "centered",
    "radial_project_base",
    "exit_time",
    "to_half_ball",
    "from_half_ball",
    "HalfBallMap",
    "GluedBallMap",
]

EXIT_TOL = Fraction(1, 10**10)
SLACK = Fraction(1, 10**9)
RATIONALIZE_DEN = 10**12
GLUE_TOL = 1e-6
NORM_SLACK = 1e-9
# the largest fiber dimension the centroid and the exit times handle
MAX_FIBER_DIM = 3


class UnboundedError(ValueError):
    """Raised when a polytope expected to be bounded is not."""


class DegenerateError(ValueError):
    """Raised when a full-dimensional polytope is required."""


class DomainError(ValueError):
    """Raised when a point lies outside the domain of a map."""


class GluingError(ValueError):
    """The bottom identification disagrees beyond tolerance."""


def rationalize(value) -> Fraction:
    """Exact value for rationals; bounded-denominator rational for floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return _limit_float(value)
    return Fraction(value).limit_denominator(RATIONALIZE_DEN)


def _limit_float(value: float) -> Fraction:
    """``Fraction(value).limit_denominator(RATIONALIZE_DEN)`` over integers.

    The same continued fraction of ``value.as_integer_ratio()`` as the
    standard library's, whose last convergent p1 / q1 and semiconvergent
    p / q bracket the value; the closer one is picked by cross-multiplying
    instead of subtracting ``Fraction``s, with the convergent on a tie.
    """
    num, den = value.as_integer_ratio()
    if den <= RATIONALIZE_DEN:
        return Fraction(num, den)
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > RATIONALIZE_DEN:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (RATIONALIZE_DEN - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1
    # |p1 / q1 - x| <= |p / q - x| with x = num / den, times q1 q den > 0
    if abs(p1 * den - num * q1) * q <= abs(p * den - num * q) * q1:
        return Fraction(p1, q1)
    return Fraction(p, q)


def rationalize_point(point) -> tuple[Fraction, ...]:
    return tuple(rationalize(v) for v in point)


# ---------------------------------------------------------------------------
# polytopes


class HPolytope:
    """Intersection of half-spaces normal . y <= offset in dimension ``dim``."""

    __slots__ = ("dim", "constraints", "_cache")

    def __init__(self, dim: int, constraints: Sequence):
        clean = []
        for normal, offset in constraints:
            normal = tuple(Fraction(v) for v in normal)
            if len(normal) != dim:
                raise ValueError("constraint normal has the wrong dimension")
            if not any(normal):
                raise ValueError("constraint normal is zero")
            clean.append((normal, Fraction(offset)))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "constraints", tuple(clean))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("HPolytope is immutable")

    def __repr__(self):
        return f"HPolytope(dim={self.dim}, n_constraints={len(self.constraints)})"

    def contains_point(self, point, slack: Fraction = Fraction(0)) -> bool:
        point = tuple(point)
        return all(
            linalg.dot(normal, point) <= offset + slack
            for normal, offset in self.constraints
        )

    @classmethod
    def _of_clean(cls, dim: int, constraints: Sequence) -> "HPolytope":
        """The polytope of constraints that are already clean: nonzero
        normals of length ``dim`` and offsets, all ``Fraction``.  Nothing is
        checked or converted; the public constructor does both."""
        poly = cls.__new__(cls)
        object.__setattr__(poly, "dim", dim)
        object.__setattr__(poly, "constraints", tuple(constraints))
        object.__setattr__(poly, "_cache", {})
        return poly

    def _moved(self, constraints, move) -> "HPolytope":
        """Image under ``move``, with the same normals in the same order, so
        cached vertices (in their order) and centroid carry over, moved.

        The normals are this polytope's, already clean, and the offsets
        ``Fraction``s, so the copy is built unchecked.  Moved vertices are
        de-duplicated: a shift or a positive scale keeps them distinct, and
        scaling by 0 sends them all to the origin, which is the one vertex of
        the point polytope."""
        out = HPolytope._of_clean(self.dim, constraints)
        if "vertices" in self._cache:
            out._cache["vertices"] = list(
                dict.fromkeys(move(v) for v in self._cache["vertices"])
            )
        if "centroid" in self._cache:
            out._cache["centroid"] = move(self._cache["centroid"])
        return out

    def scaled(self, factor) -> "HPolytope":
        factor = Fraction(factor)
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        constraints = [(n, o * factor) for n, o in self.constraints]
        return self._moved(constraints, lambda v: tuple(x * factor for x in v))

    def translated(self, shift) -> "HPolytope":
        shift = tuple(Fraction(v) for v in shift)
        if not any(shift):
            return self
        return self._moved(
            [(n, o + linalg.dot(n, shift)) for n, o in self.constraints],
            lambda v: tuple(x + d for x, d in zip(v, shift)),
        )


def _cross(a, b) -> tuple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _kernel_line(rows, dim: int):
    """Spanning vector of {d : rows d = 0} if that is a line, else None."""
    if dim == 1:
        return (1,)
    if dim == 2:
        (a, b), = rows
        return (-b, a)
    if dim == 3:
        r = _cross(*rows)
        return r if any(r) else None
    basis = linalg.kernel_basis(rows, dim)
    return basis[0] if len(basis) == 1 else None


def _is_unbounded(normals, dim: int) -> bool:
    """Whether some d != 0 has normal . d <= 0 for every normal.

    When the normals have full rank the recession cone {d : A d <= 0} is
    pointed, so it is nonzero iff it has an extreme ray, and an extreme ray
    spans the kernel of dim - 1 independent normals.  When they have rank
    dim - 1 that kernel is the kernel of all of them, and when their rank is
    lower no dim - 1 of them are independent; either way d exists.  Scaling
    a normal by a positive number keeps every sign, so integer normals do.
    """
    independent = False
    for rows in itertools.combinations(normals, dim - 1):
        r = _kernel_line(rows, dim)
        if r is None:
            continue
        independent = True
        dots = [sum(map(operator.mul, n, r)) for n in normals]
        if all(d <= 0 for d in dots) or all(d >= 0 for d in dots):
            return True
    return not independent


def vertices(poly: HPolytope) -> list[tuple[Fraction, ...]]:
    """Exact vertex set by exhaustive dim-subset constraint intersection.

    The work is over integers: each constraint is scaled by a positive
    integer to a primitive integer row (a, b), every dim-subset of rows is
    reduced by ``linalg.eliminate``, and a candidate X / D with D > 0 is
    kept iff a . X <= b D for every row.  ``Fraction`` vertices are built
    only for the candidates kept, in subset order, the first subset giving
    a vertex winning.
    """
    if "vertices" in poly._cache:
        return poly._cache["vertices"]
    dim = poly.dim
    if dim == 0:
        poly._cache["vertices"] = [()]
        return [()]
    rows = [linalg.integer_row((*n, o))[0] for n, o in poly.constraints]
    if _is_unbounded([row[:dim] for row in rows], dim):
        raise UnboundedError("polytope is unbounded")
    found = []
    seen = set()
    square = list(range(dim))
    for subset in itertools.combinations(rows, dim):
        # the normals are independent iff every one of their columns pivots;
        # then row r reads p * y_r = q with gcd(p, q) = 1 (eliminate divides
        # out contents), so X / D over the lcm D of the p is in lowest terms
        # and (X, -D) is a canonical key
        reduced = list(subset)
        if linalg.eliminate(reduced, reduced=True) != square:
            continue
        den = lcm(*[row[r] for r, row in enumerate(reduced)])
        point = (*[row[dim] * (den // row[r]) for r, row in enumerate(reduced)],
                 -den)
        if point not in seen and all(
            sum(map(operator.mul, row, point)) <= 0 for row in rows
        ):
            seen.add(point)
            found.append(tuple(Fraction(x, den) for x in point[:dim]))
    poly._cache["vertices"] = found
    return found


def _hull_order_2d(points):
    """Counterclockwise convex hull order (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _integer_points(points) -> tuple[list[tuple[int, ...]], int]:
    """(integer points, D): the rational points scaled by the lcm D of their
    denominators, which keeps their order and affine dependencies."""
    den = lcm(*[x.denominator for p in points for x in p])
    return [
        tuple(x.numerator * (den // x.denominator) for x in p) for p in points
    ], den


def _affine_pivots(points) -> list[int]:
    """Pivot columns of the differences of integer points from the first.

    Their count is the points' affine rank, and the projection onto them is
    injective on the points' affine hull: every other column of the
    differences is a combination of the pivot columns.
    """
    first = points[0]
    return linalg.eliminate(
        [[a - b for a, b in zip(p, first)] for p in points[1:]], reduced=False
    )


def _polygon_loop(points, pivots) -> list[tuple[int, ...]]:
    """The hull vertices of integer points of affine rank 2, in any ambient
    dimension, in hull order: that of their images in the two pivot
    columns, where the projection keeps the hull and its fan."""
    c0, c1 = pivots
    by_image = {(p[c0], p[c1]): p for p in points}
    return [by_image[q] for q in _hull_order_2d(by_image)]


def _fan_centroid(poly: HPolytope, full: bool) -> tuple[Fraction, ...]:
    """Exact centroid of the hull of the vertices, in its own affine span.

    The vertices are scaled to integer points X / D once
    (``_integer_points``) and cut into simplices by their affine rank r: the
    one vertex (r = 0), the segment from the least to the greatest (r = 1),
    the fan of triangles from the first vertex of the polygon (r = 2, in any
    ambient dimension), or, in dimension 3, the cones from the least vertex
    over that fan of each facet it is not on (r = 3), each facet counted
    once, keyed by its vertex set, however many rows cut it out.  The
    centroid is the mean of the simplex centroids weighted by |det| of their
    edges in the pivot columns (``_affine_pivots``), which is the same
    multiple of the volume for every simplex.  With ``full`` a hull of rank
    below the dimension raises ``DegenerateError``; a hull of any other rank
    ``ValueError``.
    """
    verts = vertices(poly)
    if not verts:
        raise DegenerateError("empty polytope")
    ints, den = _integer_points(verts)
    pivots = _affine_pivots(ints)
    rank = len(pivots)
    if full and rank < poly.dim:
        raise DegenerateError("polytope is not full-dimensional")
    if rank <= 1:
        cells = [((min(ints), max(ints)), 1)]
    elif rank == 2:
        c0, c1 = pivots
        o, *rest = _polygon_loop(ints, pivots)
        cells = [
            ((o, b, c), abs((b[c0] - o[c0]) * (c[c1] - o[c1])
                            - (b[c1] - o[c1]) * (c[c0] - o[c0])))
            for b, c in zip(rest, rest[1:])
        ]
    elif rank == poly.dim == 3:
        apex = min(ints)
        cells, facets = [], set()
        for normal, offset in poly.constraints:
            *a, b = linalg.integer_row((*normal, offset))[0]
            facet = [p for p in ints if sum(map(operator.mul, a, p)) == b * den]
            key = frozenset(facet)
            if len(facet) < 3 or apex in key or key in facets:
                continue
            facets.add(key)
            o, *rest = _polygon_loop(facet, _affine_pivots(facet))
            u = [x - y for x, y in zip(o, apex)]
            for b, c in zip(rest, rest[1:]):
                v = [x - y for x, y in zip(b, apex)]
                w = [x - y for x, y in zip(c, apex)]
                weight = abs(sum(map(operator.mul, u, _cross(v, w))))
                cells.append(((apex, o, b, c), weight))
    else:
        raise ValueError(
            "centroid implemented for hulls of dimension <= 2 and for "
            f"full-dimensional polytopes of dimension <= {MAX_FIBER_DIM}"
        )
    scale = len(cells[0][0]) * sum(w for _, w in cells) * den
    return tuple(
        Fraction(sum(w * sum(p[i] for p in cell) for cell, w in cells), scale)
        for i in range(poly.dim)
    )


def barycenter(poly: HPolytope) -> tuple[Fraction, ...]:
    """Exact volume-weighted centroid of a full-dimensional polytope
    (``_fan_centroid``), implemented for dimensions up to
    ``MAX_FIBER_DIM``.  An empty polytope, or one that is not
    full-dimensional, raises ``DegenerateError``.
    """
    return _fan_centroid(poly, full=True)


def centroid(poly: HPolytope) -> tuple[Fraction, ...]:
    """Centroid with respect to the polytope's own affine hull, cached.

    Needed for the centering step on degenerate boundary fibers; exact for
    hulls of dimension <= 2 in any dimension and for full-dimensional
    polytopes of dimension <= ``MAX_FIBER_DIM`` (``_fan_centroid``).
    """
    if "centroid" not in poly._cache:
        poly._cache["centroid"] = _hull_centroid(poly)
    return poly._cache["centroid"]


def centered(poly: HPolytope) -> HPolytope:
    """The polytope translated to centroid zero, cached; idempotent."""
    if "centered" not in poly._cache:
        poly._cache["centered"] = poly.translated([-c for c in centroid(poly)])
    return poly._cache["centered"]


def _interval_midpoint(poly: HPolytope) -> tuple[Fraction] | None:
    """((lo + hi) / 2,) for the interval {y : a y <= b for every row}, or
    None if it is unbounded or empty.

    lo is the largest b / a over the rows with a < 0 and hi the smallest
    over those with a > 0; the vertices are never enumerated.
    """
    lo = hi = None
    for (a,), b in poly.constraints:
        x = b / a
        if a < 0:
            if lo is None or x > lo:
                lo = x
        elif hi is None or x < hi:
            hi = x
    if lo is None or hi is None or lo > hi:
        return None
    return ((lo + hi) / 2,)


def _hull_centroid(poly: HPolytope) -> tuple[Fraction, ...]:
    if poly.dim == 1:
        # closed form; unbounded and empty intervals go on below, so that
        # ``vertices`` raises the same errors as in every other dimension
        mid = _interval_midpoint(poly)
        if mid is not None:
            return mid
    return _fan_centroid(poly, full=False)


# ---------------------------------------------------------------------------
# convexoid specs


class ConvexoidSpec:
    """Cube base plus a deterministic continuous fiber-polytope oracle."""

    def __init__(self, base_dim: int, fiber_dim: int, fiber_oracle: Callable):
        if base_dim < 1 or fiber_dim < 1:
            raise ValueError("base and fiber dimensions must be positive")
        self.base_dim = base_dim
        self.fiber_dim = fiber_dim
        self._oracle = fiber_oracle
        self._memo: dict = {}

    @property
    def dim(self) -> int:
        return self.base_dim + self.fiber_dim

    def origin(self) -> tuple[Fraction, ...]:
        return (Fraction(0),) * self.base_dim

    def fiber(self, p) -> HPolytope:
        key = rationalize_point(p)
        poly = self._memo.get(key)
        if poly is None:
            poly = self._oracle(key)
            if poly.dim != self.fiber_dim:
                raise ValueError("oracle returned a fiber of the wrong dimension")
            self._memo[key] = poly
        return poly

    def in_base(self, p, slack: Fraction = Fraction(0)) -> bool:
        if not -slack <= p[0] <= 1 + slack:
            return False
        return all(-1 - slack <= v <= 1 + slack for v in p[1:])


def _clamp_to_cube(p) -> tuple[Fraction, ...]:
    """Nearest point of the base cube [0, 1] x [-1, 1]^(nb-1)."""
    return (min(max(p[0], Fraction(0)), Fraction(1)),) + tuple(
        min(max(v, Fraction(-1)), Fraction(1)) for v in p[1:]
    )


def base_gauge(p) -> Fraction:
    """Minkowski gauge of the base cube as seen from the bottom center."""
    return max([p[0]] + [abs(v) for v in p[1:]])


def radial_project_base(p) -> tuple[tuple[Fraction, ...], Fraction]:
    """Radial projection onto the distinguished boundary, with its scale s.

    The distinguished boundary is the cube boundary minus the open bottom
    face; the ray from the bottom center through p meets it exactly once.
    """
    p = rationalize_point(p)
    if p[0] < 0 or p[0] > 1 or any(abs(v) > 1 for v in p[1:]):
        raise DomainError("point lies outside the base cube")
    g = base_gauge(p)
    if g == 0:
        raise ValueError("the bottom center has no radial projection")
    return tuple(v / g for v in p), g


# ---------------------------------------------------------------------------
# rays, exit times, half-ball map


def _support(poly: HPolytope, u) -> Fraction:
    """Support function h(u) = max of u . v over the vertices, cached per u.

    Over integers: with the vertices scaled to integer points X / D once
    (``_integer_points``, cached; ``_moved`` does not carry it) and
    u = U content / den_u with U a primitive integer row, h(u) is
    max U . X times content / (den_u D).
    """
    table = poly._cache.setdefault("support", {})
    h = table.get(u)
    if h is None:
        points = poly._cache.get("integer vertices")
        if points is None:
            verts = vertices(poly)
            if not verts:
                raise DegenerateError("empty polytope")
            points = poly._cache["integer vertices"] = _integer_points(verts)
        ints, den = points
        row, row_den, content = linalg.integer_row(u)
        best = max(sum(map(operator.mul, row, x)) for x in ints)
        h = table[u] = Fraction(best * content, row_den * den)
    return h


def _edge_directions(poly: HPolytope) -> list[tuple[Fraction, ...]]:
    """v - w for every edge [w, v] of a polytope in dimension 3.

    Two vertices span an edge iff two independent constraints are tight at
    both: those cut out a line, and its intersection with the polytope is a
    face holding both vertices.
    """
    cached = poly._cache.get("edges")
    if cached is None:
        verts = vertices(poly)
        tight = [
            {i for i, (n, o) in enumerate(poly.constraints)
             if linalg.dot(n, v) == o}
            for v in verts
        ]
        cached = []
        for (v, tv), (w, tw) in itertools.combinations(zip(verts, tight), 2):
            common = [poly.constraints[i][0] for i in tv & tw]
            if any(any(_cross(a, b)) for a, b in
                   itertools.combinations(common, 2)):
                cached.append(tuple(x - y for x, y in zip(v, w)))
        poly._cache["edges"] = cached
    return cached


def _join_normals(e0: HPolytope, e1: HPolytope | None) -> tuple:
    """Directions u whose inequalities u . y <= (1 - s) h0(u) + s h1(u)
    together cut out (1 - s) E0 + s E1 for every s in [0, 1].

    A facet of a Minkowski sum is a sum of faces of the summands, so its
    normal is a facet normal of E0 or of E1 or, in dimension 3, normal to an
    edge of each (Gritzmann-Sturmfels 1993; Fukuda 2004).  Every u gives a
    valid inequality, so extra directions cost time, not exactness.  With no
    E1 (a ray inside the bottom center's fiber) only E0 counts.
    """
    owner = e0 if e1 is None else e1
    key = ("join normals", e0)
    normals = owner._cache.get(key)
    if normals is None:
        if e0.dim > MAX_FIBER_DIM:
            raise ValueError(
                f"exit times implemented for fiber dimension <= {MAX_FIBER_DIM}"
            )
        polys = (e0,) if e1 is None else (e0, e1)
        found = dict.fromkeys(n for poly in polys for n, _ in poly.constraints)
        if e0.dim == 3 and e1 is not None:
            for a in _edge_directions(e0):
                for b in _edge_directions(e1):
                    u = _cross(a, b)
                    if any(u):
                        found[u] = None
                        found[tuple(-x for x in u)] = None
        normals = owner._cache[key] = tuple(found)
    return normals


class _Ray:
    """The ray t -> t * direction, t >= 0, against the joined body.

    With g the base gauge of the direction, t * direction lies in the body
    iff t * g <= 1, so that the base point stays in the cube, and
    t u . vf <= (1 - t g) h0(u) + t g h1(u) for every join normal u, where
    h0 and h1 are the support functions of the bottom center's fiber E0 and
    of the fiber E1 the ray's base part points at.
    """

    def __init__(self, fiber_at: Callable, base_dim: int, direction):
        self.base_dim = base_dim
        self.v = rationalize_point(direction)
        self.vb = self.v[:base_dim]
        self.vf = self.v[base_dim:]
        if not any(self.v):
            raise ValueError("ray direction is zero")
        self.g = base_gauge(self.vb) if any(self.vb) else Fraction(0)
        self.E0 = fiber_at(tuple(Fraction(0) for _ in range(base_dim)))
        if self.g > 0:
            q = tuple(x / self.g for x in self.vb)
            self.E1 = fiber_at(q)
        else:
            self.E1 = None
        self.normals = _join_normals(self.E0, self.E1)

    def exit_bound(self) -> Fraction | None:
        """max{t : t * direction in the joined body}, exact; None if unbounded.

        The fibers are centered, so h0 >= 0 and the ray starts inside.  A
        join normal with d(u) = u . vf - g (h1(u) - h0(u)) > 0 caps t at
        h0(u) / d(u); one with d(u) <= 0 never binds.  A ray whose base part
        points below the bottom leaves the base cube at once.
        """
        if self.vb[0] < 0:
            return Fraction(0)
        best = 1 / self.g if self.g else None
        for u in self.normals:
            h0 = _support(self.E0, u)
            d = linalg.dot(u, self.vf)
            if self.g:
                d -= self.g * (_support(self.E1, u) - h0)
            if d > 0 and (best is None or h0 < best * d):
                best = h0 / d
        return best

    def exit_scale(self) -> Fraction:
        """The exit time, rounded to the midpoint of a dyadic bracket.

        Bisecting [hi / 2, hi), hi the least power of 2 above t* (or [0, 1))
        until narrower than ``EXIT_TOL`` ends in the grid cell of width
        ``step`` that holds t*: step = (hi - lo) / 2^m with m the least
        integer such that 2^m >= (hi - lo) / EXIT_TOL.  The rounding is kept
        on purpose: dividing by the exact exit time puts the images of
        boundary points exactly on the support strata where the fiber frames
        change, and chart round trips then get worse (G(2,5) samples by up
        to 8.6e-2).
        """
        t_star = self.exit_bound()
        if t_star is None or t_star >= 2**80:
            raise UnboundedError("ray never leaves the joined body")
        # t* < 0 (a ray from outside an uncentered fiber) lands in [0, step)
        t_star = max(t_star, Fraction(0))
        hi = 1 << int(t_star).bit_length()
        lo = hi // 2
        halvings = (ceil((hi - lo) / EXIT_TOL) - 1).bit_length()
        step = Fraction(hi - lo, 1 << halvings)
        return lo + (t_star - lo) // step * step + step / 2


def exit_time(spec: ConvexoidSpec, direction) -> Fraction:
    """Exit time of a ray from the joined body of a centered spec: the exit
    scale of ``_Ray.exit_scale``."""
    return _Ray(spec.fiber, spec.base_dim, direction).exit_scale()


class HalfBallMap:
    """Homeomorphism from a convexoid body onto the closed unit half-ball.

    Pipeline: center fibers (``centered``; free for centered ones), radially
    rescale each fiber onto the joined body's fiber, then divide by the exit
    time of the ray through the point.
    Both the rescale and the exit time are exact closed forms in the support
    functions of the two fibers the joined body combines; the exit time is
    then rounded to a dyadic within ``EXIT_TOL`` (``_Ray.exit_scale`` says
    why).  The bottom (base first coordinate 0) lands on the half-ball
    bottom.
    """

    def __init__(self, spec: ConvexoidSpec):
        self.spec = spec
        self.degenerate_rescales = 0

    # -- centered fibers ----------------------------------------------------

    def centroid(self, p) -> tuple[Fraction, ...]:
        return centroid(self.spec.fiber(p))

    def centered_fiber(self, p) -> HPolytope:
        return centered(self.spec.fiber(p))

    # -- radial rescale between the fiber and the joined fiber --------------

    def _lambda_fiber(self, poly: HPolytope, y) -> Fraction:
        """sup{l >= 0 : l * y in poly} for a centered bounded fiber."""
        best = None
        for normal, offset in poly.constraints:
            d = linalg.dot(normal, y)
            if d > 0:
                lam = offset / d
                if best is None or lam < best:
                    best = lam
        if best is None:
            raise UnboundedError("radial function undefined; fiber unbounded")
        return best

    def _lambda_joined(self, p, y) -> Fraction:
        """sup{l : l * y in joined fiber over p}, by support functions."""
        key = rationalize_point(p)
        if all(v == 0 for v in key):
            return self._lambda_fiber(self.centered_fiber(key), y)
        q, s = radial_project_base(key)
        if s == 1:
            return self._lambda_fiber(self.centered_fiber(key), y)
        e0 = self.centered_fiber(self.spec.origin())
        e1 = self.centered_fiber(q)
        best = None
        for u in _join_normals(e0, e1):
            d = linalg.dot(u, y)
            if d > 0:
                lam = ((1 - s) * _support(e0, u) + s * _support(e1, u)) / d
                if best is None or lam < best:
                    best = lam
        if best is None:
            raise UnboundedError("joined fiber radial function undefined")
        return best

    def _joined_scale(self, p, y) -> Fraction:
        """Radial function of the joined fiber over p along y, over that of
        the fiber; forward multiplies by it and inverse divides, and y = 0
        stays.  0 on the boundary of either body means the radial map
        degenerates; it is counted, perturbed by the slack, and the map
        carries on, as the hypotheses put such points over the distinguished
        boundary only."""
        if not any(y):
            return Fraction(1)
        lam_e = self._lambda_fiber(self.centered_fiber(p), y)
        lam_j = self._lambda_joined(p, y)
        if lam_e <= 0 or lam_j <= 0:
            self.degenerate_rescales += 1
        return ((lam_j if lam_j > 0 else SLACK)
                / (lam_e if lam_e > 0 else SLACK))

    # -- forward / inverse ---------------------------------------------------

    def forward(self, x) -> np.ndarray:
        nb = self.spec.base_dim
        x = rationalize_point(x)
        p, y = x[:nb], x[nb:]
        if not self.spec.in_base(p, SLACK):
            raise DomainError("base point outside the cube")
        p = _clamp_to_cube(p)
        if not self.spec.fiber(p).contains_point(y, SLACK):
            raise DomainError("fiber point outside its polytope")
        yc = tuple(a - b for a, b in zip(y, self.centroid(p)))
        # gauge fraction in the fiber becomes gauge fraction in the joined
        # fiber
        scale = self._joined_scale(p, yc)
        point = p + tuple(v * scale for v in yc)
        if not any(point):
            return np.zeros(self.spec.dim)
        ray = _Ray(self.centered_fiber, nb, point)
        t_star = ray.exit_scale()
        arr = np.array([float(v) for v in point])
        return arr / (float(t_star) * float(np.linalg.norm(arr)))

    def inverse(self, h) -> tuple[float, ...]:
        nb = self.spec.base_dim
        h = np.array(h, dtype=float)
        norm = float(np.linalg.norm(h))
        if norm > 1 + float(SLACK):
            raise DomainError(f"half-ball point has norm {norm} > 1")
        if h[0] < -float(SLACK):
            raise DomainError("half-ball point has negative height")
        h[0] = max(h[0], 0.0)
        direction = rationalize_point(h)
        if not any(direction):
            p = self.spec.origin()
            return tuple(float(v) for v in p) + tuple(
                float(v) for v in self.centroid(p)
            )
        ray = _Ray(self.centered_fiber, nb, direction)
        t_star = ray.exit_scale()
        point = tuple(v * t_star * rationalize(norm) for v in direction)
        p = _clamp_to_cube(point[:nb])
        yj = point[nb:]
        scale = self._joined_scale(p, yj)
        y = tuple(v / scale + c for v, c in zip(yj, self.centroid(p)))
        return tuple(float(v) for v in p) + tuple(float(v) for v in y)


def to_half_ball(spec: ConvexoidSpec, x):
    return HalfBallMap(spec).forward(x)


def from_half_ball(spec: ConvexoidSpec, h):
    return HalfBallMap(spec).inverse(h)


# ---------------------------------------------------------------------------
# gluing two convexoids into a ball


def norm_gauge(x) -> float:
    """Euclidean norm: the gauge of the unit ball."""
    return float(np.linalg.norm(x))


def sup_gauge(x) -> float:
    """Largest |coordinate|: the gauge of the cube [-1, 1]^d."""
    return float(np.abs(x).max(initial=0.0))


def _cylinder_gauge(c) -> float:
    """Gauge of the cylinder [-1, 1] x (unit disk).  The half-cylinder
    [0, 1] x (unit disk) is its top, as the half-ball is the ball's, so on
    c[0] >= 0 it is the half-cylinder's gauge too."""
    return max(abs(c[0]), norm_gauge(c[1:]))


def regauge(x, gauge_from: Callable, gauge_to: Callable) -> np.ndarray:
    """Radial map x * gauge_from(x) / gauge_to(x) from the unit body of
    gauge_from onto that of gauge_to; x itself where gauge_to(x) = 0."""
    x = np.asarray(x, dtype=float)
    to = gauge_to(x)
    if to == 0:
        return x
    return x * (gauge_from(x) / to)


def _across(source: HalfBallMap, identify, target: HalfBallMap, w):
    """The disk coordinate w of a bottom point of ``source``'s half-ball ->
    that point's disk coordinate in ``target``'s half-ball."""
    x = identify(source.inverse(np.concatenate(([0.0], w))))
    return target.forward(x)[1:]


class GluedBallMap:
    """Two convexoids glued along their bottoms, mapped onto a closed ball.

    Each side goes to a half-ball, which ``regauge`` takes onto the unit
    half-cylinder with the bottom at the shared slice.  On a long cylinder
    of axis a in [0, 2] the E half-cylinder sits at a = 1 - u and the F one
    at a = 1 + u, with the F disk coordinate moved across the bottom
    identification (``_across``) so that identified points agree, and
    ``regauge`` takes the long cylinder, shifted by a - 1, onto the ball.
    ``phi`` and ``phi_inverse`` identify the bottoms; on ``bottom_samples``
    the sides must agree within ``GLUE_TOL``.
    """

    def __init__(self, e_spec, f_spec, phi, phi_inverse, bottom_samples=()):
        if e_spec.dim != f_spec.dim:
            raise ValueError("the two convexoids have different dimensions")
        self.dim = e_spec.dim
        self.e_map = HalfBallMap(e_spec)
        self.f_map = HalfBallMap(f_spec)
        self.phi = phi
        self.phi_inverse = phi_inverse
        for x in bottom_samples:
            a = self.forward("E", x)
            b = self.forward("F", phi(x))
            err = float(np.linalg.norm(a - b))
            if err > GLUE_TOL:
                raise GluingError(
                    f"bottom identification disagrees by {err:.3g} at {x}"
                )

    def forward(self, side: str, x) -> np.ndarray:
        if side == "E":
            c = regauge(self.e_map.forward(x), norm_gauge, _cylinder_gauge)
            a, w = 1.0 - c[0], c[1:]
        elif side == "F":
            c = regauge(self.f_map.forward(x), norm_gauge, _cylinder_gauge)
            a = 1.0 + c[0]
            w = _across(self.f_map, self.phi_inverse, self.e_map, c[1:])
        else:
            raise ValueError(f"unknown side {side!r}")
        return regauge(np.concatenate(([a - 1.0], w)), _cylinder_gauge,
                       norm_gauge)

    def inverse(self, ball_point):
        b = np.asarray(ball_point, dtype=float)
        if norm_gauge(b) > 1 + NORM_SLACK:
            raise DomainError("point outside the closed ball")
        c = regauge(b, norm_gauge, _cylinder_gauge)
        a, w = c[0] + 1.0, c[1:]
        if a <= 1.0:
            side, half, u = "E", self.e_map, 1.0 - a
        else:
            side, half, u = "F", self.f_map, a - 1.0
            w = _across(self.e_map, self.phi, self.f_map, w)
        h = regauge(np.concatenate(([u], w)), _cylinder_gauge, norm_gauge)
        return side, half.inverse(h)
