"""Fibered polytope bodies over a cube and their maps onto half-cubes.

A convexoid is a family of convex polytope fibers over the cube
Q = [0,1] x [-1,1]^(nb-1), bounded with nonempty interior over interior base
points and over the interior of the bottom face {0} x [-1,1]^(nb-1).  Such a
body is homeomorphic to a closed half-ball with bottom going to bottom; two
of them glued along their bottoms give a closed ball.  The maps here take
them onto the sup-norm forms of those balls: the half-cube
[0, 1] x [-1, 1]^(d-1) and the cube [-1, 1]^d.

Polytope data is exact rational, held over integers: an ``HPolytope`` is
integer rows over one positive denominator in lowest terms, and its
vertices are cached as integer points over theirs.  Membership, the radial
function, translation and scaling, vertex enumeration, the boundedness
check, the centroid, the support function, the join normals (primitive
integer rows), the exit time and the joined radial function all compute on
those integers and build one ``Fraction`` per result; ``constraints`` and
``vertices`` are ``Fraction`` views built when asked for.  Every centroid,
of a full polytope or of a flat one in its own affine span, is one exact
simplex fan over the integer vertices (``_fan_centroid``), except that of
an interval: the midpoint of its two bounds, read off the rows, so that its
vertices stay unenumerated until asked for; they are those two bounds, with
no subset search.  No linear program runs:
boundedness is an exact extreme-ray check on the integer normals, and the
joined body (the union of segments from the bottom center's fiber to the
fibers over the distinguished boundary) is never built as a polytope.  Its
exit times and radial functions are closed forms in the support functions
of the two fibers it joins, both read off one ``_JoinedBody`` that each map
call builds once, reading each support value over the join normals once,
and the half-cube maps divide by the exact exit time.  A polytope caches
its own geometry only: its integer vertices, centroid, centered copy and
edges, nothing keyed by a query direction or by another polytope.  The
maps read each fiber in place, about its ``centroid``: centering is a
translation, so the support function of K - c is h_K(u) - u . c and its
radial function the least (b - a . c) / (a . y) over the rows, both read
off the fiber's own vertices and rows, and no centered copy is built.
``centered`` builds that copy for the chart's fiber frames;
``translated`` and ``scaled`` carry the integer vertices and the centroid
over, so a fiber centered once is never centered again; shifting by 0
and scaling by 1 return the polytope itself, caches and all.  Those
copies keep the normals, already checked, so they are built unchecked;
the public ``HPolytope`` constructor checks and converts every
constraint.

``HalfBallMap`` and ``GluedBallMap`` take and return rationals, each
coordinate they return rounded to a denominator of at most
``RATIONALIZE_DEN`` by ``_limit``, the continued fraction over integers
that ``rationalize`` runs for floats too; unrounded, the denominators grow
with every level of a chart.  ``HalfBallMap.inverse`` rounds the body point
it reads a fiber at the same way.  Floats appear only at the public API, where
one radial map, ``regauge``, takes the cube onto the Euclidean ball
(``chamber.BallChart``) and the half-cube onto the half-ball
(``to_half_ball``, ``from_half_ball``); it guards an exact 0 only.  The
public API works in Python floats: ``regauge`` takes and returns lists of
them, and its gauges are ``math.hypot``, which neither underflows nor
overflows, and the largest |coordinate|.  numpy only builds the array that
``to_half_ball`` returns, and is imported there, not with the package.  Every
tolerance of the numeric layer, this module's and ``chamber``'s, is one of
these:

- ``SLACK`` (1e-9, exact): how far outside its fiber a point given to
  ``HalfBallMap.forward`` may lie, the stand-in for a radial function that
  is 0, and, in ``chamber``, how close to the top a side's tau may come
  before it is put on the top.
- ``NORM_SLACK``: ``SLACK`` as a float, how far beyond norm 1 a ball or
  chart point may lie and how far outside its cube a point given to a map
  here may lie (``_cube_point``); ``chamber`` and the CLI checks use it.
- ``GLUE_TOL`` (1e-6): the two sides' cube points must agree within it, in
  the sup norm, on the bottom samples; the rounded handoffs are not exact.
- ``RATIONALIZE_DEN`` (10^12): the denominator limit of floats made exact
  and of the rationals the maps hand on; a half-cube point that it rounds
  to 0 is the center of the bottom.

Apart from them, ``_JoinedBody.exit_time`` takes an exit time of 2^80 or
more for a ray that never leaves, and clamps a negative one, which only a
ray from outside an uncentered fiber gives, at 0.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import gcd, hypot, inf, lcm
from typing import Callable, Sequence

from . import linalg
from .linalg import _EXACT, _ratio

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

SLACK = Fraction(1, 10**9)
RATIONALIZE_DEN = 10**12
GLUE_TOL = 1e-6
NORM_SLACK = float(SLACK)
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
    """Exact value for ints and ``Fraction``s; anything else, such as a
    float, a numpy float of any width or a ``Decimal``, rounded by ``_limit``
    from its exact ratio.  A value with no ``as_integer_ratio``, such as a
    numpy integer or a string, reads its ratio off ``Fraction``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    try:
        ratio = value.as_integer_ratio()
    except AttributeError:
        ratio = Fraction(value).as_integer_ratio()
    return Fraction(*_limit(*ratio))


def _limit(num: int, den: int) -> tuple[int, int]:
    """``Fraction(num, den).limit_denominator(RATIONALIZE_DEN)`` over
    integers, for den > 0, as its numerator and denominator.

    The same continued fraction of num / den as the standard library's,
    whose last convergent p1 / q1 and semiconvergent p / q bracket the
    value; the closer one is picked by cross-multiplying instead of
    subtracting ``Fraction``s, with the convergent on a tie.  A den within
    the limit comes back as it is; the expansion gives lowest terms.
    """
    if den <= RATIONALIZE_DEN:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while d:
        a, r = divmod(n, d)
        q2 = q0 + a * q1
        if q2 > RATIONALIZE_DEN:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, r
    else:
        return p1, q1
    k = (RATIONALIZE_DEN - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1
    # |p1 / q1 - x| <= |p / q - x| with x = num / den, times q1 q den > 0
    if abs(p1 * den - num * q1) * q <= abs(p * den - num * q) * q1:
        return p1, q1
    return p, q


def rationalize_point(point) -> tuple[Fraction, ...]:
    """``rationalize`` of each coordinate; ``Fraction``s pass through as
    they are, without a call."""
    return tuple(v if isinstance(v, Fraction) else rationalize(v)
                 for v in point)


def limit_point(point) -> tuple[Fraction, ...]:
    """The rationals of ``point`` rounded to denominators of at most
    ``RATIONALIZE_DEN`` (``_limit``); those within it stay as they are."""
    return tuple(
        v if v.denominator <= RATIONALIZE_DEN
        else Fraction(*_limit(v.numerator, v.denominator))
        for v in point
    )


# ---------------------------------------------------------------------------
# polytopes


class HPolytope:
    """Intersection of half-spaces normal . y <= offset in dimension ``dim``.

    Held as integer rows (a_1, ..., a_dim, b) over one positive denominator
    D in lowest terms, the way ``MultiVector`` holds its coefficients: row
    (a, b) is the constraint (a / D) . y <= b / D.  ``constraints`` is a
    read-only ``Fraction`` view of the rows, in their order, built when asked
    for.
    """

    __slots__ = ("dim", "_rows", "_den", "_cache")

    def __init__(self, dim: int, constraints: Sequence):
        clean = []
        for normal, offset in constraints:
            normal = tuple(Fraction(v) for v in normal)
            if len(normal) != dim:
                raise ValueError("constraint normal has the wrong dimension")
            if not any(normal):
                raise ValueError("constraint normal is zero")
            clean.append((*normal, Fraction(offset)))
        # over the lcm of the denominators the rows are in lowest terms
        _fill(self, dim, *_integer_points(clean))

    @classmethod
    def _of_rows(cls, dim: int, rows, den: int) -> "HPolytope":
        """The polytope of integer rows over ``den`` > 0, each with a nonzero
        normal part of length ``dim``, as the callers make them, put in
        lowest terms.  Nothing is checked or converted; the public
        constructor does both."""
        return _fill(cls.__new__(cls), dim, *_in_lowest_terms(rows, den))

    def __setattr__(self, name, value):
        raise AttributeError("HPolytope is immutable")

    def __repr__(self):
        return f"HPolytope(dim={self.dim}, n_constraints={len(self._rows)})"

    @property
    def constraints(self) -> tuple:
        """The (normal, offset) pairs as ``Fraction``s, in row order."""
        den = self._den
        return tuple(
            (tuple(Fraction(a, den) for a in row[:-1]), Fraction(row[-1], den))
            for row in self._rows
        )

    def contains_point(self, point, slack: Fraction = Fraction(0)) -> bool:
        """Whether normal . point <= offset + slack for every constraint.

        Over the rows, with point = P / L and slack = s / t, that is
        (a . P) t <= b L t + s D L for every row (a, b).
        """
        ints, den = _integer_vector(point)
        s_num, s_den = _ratio(slack)
        extra = s_num * self._den * den
        return all(
            sum(map(operator.mul, row, ints)) * s_den
            <= row[-1] * den * s_den + extra
            for row in self._rows
        )

    def _moved(self, num: int, den: int, shift, shift_den: int
               ) -> "HPolytope":
        """Image under y -> (num / den) y + S / L, with num >= 0 and den > 0
        integers and S = ``shift`` an integer point over L = ``shift_den``.

        The normals are the same, in the same order, so the cached integer
        vertices (in their order) and centroid carry over, moved; the copy is
        built unchecked.  An empty vertex cache is not carried: scaling by 0
        keeps the normals and zeroes the offsets, so the copy of an empty
        polytope need not be empty, and it enumerates its own.  Over the
        common denominator D den L of the image, row (a, b) becomes
        (a den L, b num L + (a . S) den).  Moved vertices are de-duplicated:
        a shift or a positive scale keeps them distinct, and scaling by 0
        sends them all to the shift, the one vertex of the point polytope.
        """
        rows = [
            (*[a * den * shift_den for a in row[:-1]],
             row[-1] * num * shift_den
             + sum(map(operator.mul, row, shift)) * den)
            for row in self._rows
        ]
        out = HPolytope._of_rows(self.dim, rows, self._den * den * shift_den)
        cached = self._cache.get("integer vertices")
        if cached is not None and cached[0]:
            points, vden = cached
            moved = dict.fromkeys(
                tuple(x * num * shift_den + d * vden * den
                      for x, d in zip(p, shift))
                for p in points
            )
            out._cache["integer vertices"] = _in_lowest_terms(
                list(moved), vden * den * shift_den)
        if "centroid" in self._cache:
            out._cache["centroid"] = tuple(
                Fraction(c.numerator * num * shift_den
                         + d * c.denominator * den,
                         c.denominator * den * shift_den)
                for c, d in zip(self._cache["centroid"], shift)
            )
        return out

    def scaled(self, factor) -> "HPolytope":
        num, den = _ratio(factor)
        if num < 0:
            raise ValueError("scale factor must be nonnegative")
        if num == den:  # in lowest terms: the factor is 1
            return self
        return self._moved(num, den, (0,) * self.dim, 1)

    def translated(self, shift) -> "HPolytope":
        ints, den = _integer_vector(shift)
        if not any(ints):
            return self
        return self._moved(1, 1, ints, den)


def _fill(poly: HPolytope, dim: int, rows, den: int) -> HPolytope:
    object.__setattr__(poly, "dim", dim)
    object.__setattr__(poly, "_rows", tuple(rows))
    object.__setattr__(poly, "_den", den)
    object.__setattr__(poly, "_cache", {})
    return poly


def _integer_vector(values) -> tuple[list[int], int]:
    """(X, L) with values == X / L, L the lcm of their denominators: ints
    and ``Fraction``s as they are, anything else through ``Fraction``."""
    values = [x if type(x) in _EXACT else Fraction(x) for x in values]
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def _in_lowest_terms(rows, den: int) -> tuple[list[tuple[int, ...]], int]:
    """Integer rows over ``den`` > 0, with the gcd of every entry and den
    divided out."""
    g = gcd(den, *[x for row in rows for x in row])
    if g == 1:
        return rows, den
    return [tuple(x // g for x in row) for row in rows], den // g


def _primitive(row) -> tuple[int, ...]:
    """A nonzero integer row divided by its content."""
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def _cross(a, b) -> tuple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _kernel_line(rows, dim: int):
    """Spanning vector of {d : rows d = 0} if that is a line, else None,
    for the dim - 1 rows of dimension dim >= 2."""
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
        # r or -r is a recession direction unless the dots take both signs
        below = above = False
        for n in normals:
            d = sum(map(operator.mul, n, r))
            if d < 0:
                below = True
            elif d > 0:
                above = True
            if below and above:
                break
        else:
            return True
    return not independent


def vertices(poly: HPolytope) -> list[tuple[Fraction, ...]]:
    """Exact vertex set, by exhaustive dim-subset constraint intersection
    from dimension 2 on, and read off the two interval bounds in dimension 1
    (``_enumerate_vertices``).

    The work is over integers: each row is divided by its content to a
    primitive integer row (a, b), every dim-subset of rows is solved by
    ``_subset_vertex`` (Cramer's rule in the plane, ``linalg.eliminate`` in
    other dims), and a candidate X / D with D > 0 is kept iff a . X <= b D
    for every row, in subset order, the first subset giving a vertex
    winning.  The vertices are cached as integer points over their common
    denominator (``_integer_vertices``); the ``Fraction`` vertices returned
    are built from them on each call.
    """
    points, den = _integer_vertices(poly)
    return [tuple(Fraction(x, den) for x in p) for p in points]


def _integer_vertices(poly: HPolytope) -> tuple[list[tuple[int, ...]], int]:
    """(points X, D): the vertices X / D, in ``vertices`` order, over the lcm
    D of their denominators, enumerated on first use and cached."""
    cached = poly._cache.get("integer vertices")
    if cached is None:
        cached = poly._cache["integer vertices"] = _enumerate_vertices(poly)
    return cached


def _enumerate_vertices(poly: HPolytope) -> tuple[list[tuple[int, ...]], int]:
    """The integer vertices of ``vertices``, uncached.

    An interval is no subset search: its vertices are its bounds lo and hi
    (``_interval_bounds``), one vertex when they meet and none when
    lo > hi, in the order of the first row that gives each, which is the
    order in which the one-row subsets find them.  A missing bound raises
    ``UnboundedError``, as the extreme-ray check does in every other
    dimension.
    """
    dim = poly.dim
    if dim == 0:
        return [()], 1
    if dim == 1:
        return _interval_vertices(poly)
    rows = [_primitive(row) for row in poly._rows]
    if _is_unbounded([row[:dim] for row in rows], dim):
        raise UnboundedError("polytope is unbounded")
    found = {}
    for subset in itertools.combinations(rows, dim):
        point = _subset_vertex(subset, dim)
        # most 2-D candidates are not vertices: reduce only the kept ones
        if point is not None and all(
            sum(map(operator.mul, row, point)) <= 0 for row in rows
        ):
            found[_primitive(point)] = None
    # each vertex is in lowest terms, so the lcm of their denominators is
    # that of all their coordinates
    den = lcm(*[-p[-1] for p in found])
    return [tuple(x * (den // -p[-1]) for x in p[:-1]) for p in found], den


def _subset_vertex(subset, dim: int) -> tuple[int, ...] | None:
    """(X, -D) for the point X / D, D > 0, where the dim integer rows
    (a | b) of ``subset`` hold with equality, or None when their normals
    are dependent.  Its ``_primitive`` form, X / D in lowest terms, is the
    canonical key, and D is then the lcm of the reduced denominators of
    the point's coordinates.

    For dim 2 the point is N / det by Cramer's rule, det the determinant of
    the normals and N_r that determinant with column r replaced by b, all
    three signed so that det > 0 and not reduced.  Other dims are reduced
    by ``linalg.eliminate``: every column pivots exactly when the normals
    are independent, and then row r reads p y_r = q with gcd(p, q) = 1, so
    D is the lcm of the p and the point is in lowest terms already.
    """
    if dim == 2:
        (a1, a2, b1), (c1, c2, b2) = subset
        det = a1 * c2 - a2 * c1
        if det > 0:
            return b1 * c2 - a2 * b2, a1 * b2 - b1 * c1, -det
        if det < 0:
            return a2 * b2 - b1 * c2, b1 * c1 - a1 * b2, det
        return None
    reduced = list(subset)
    if linalg.eliminate(reduced, reduced=True) != list(range(dim)):
        return None
    den = lcm(*[row[r] for r, row in enumerate(reduced)])
    return (*[row[dim] * (den // row[r]) for r, row in enumerate(reduced)],
            -den)


def _hull_order_2d(points):
    """Counterclockwise hull order of points that are all extreme, such as
    a polygon's vertices: the least point, the points below the chord from
    it to the greatest in ascending order, the greatest point, then the
    points above the chord in descending order, the order Andrew's monotone
    chain gives them."""
    lo, *rest, hi = sorted(points)
    dx, dy = hi[0] - lo[0], hi[1] - lo[1]
    side = [(dx * (p[1] - lo[1]) - dy * (p[0] - lo[0]), p) for p in rest]
    return ([lo] + [p for s, p in side if s < 0] + [hi]
            + [p for s, p in reversed(side) if s > 0])


def _integer_points(points) -> tuple[list[tuple[int, ...]], int]:
    """(integer points, D): the rational points scaled by the lcm D of their
    denominators, which keeps their order and affine dependencies and is the
    least common denominator, so the points over D are in lowest terms."""
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

    The integer vertices X / D (``_integer_vertices``) are cut into
    simplices by their affine rank r: the one vertex (r = 0), the segment
    from the least to the greatest (r = 1), the fan of triangles from the
    first vertex of the polygon (r = 2, in any ambient dimension), or, in
    dimension 3, the cones from the least vertex over that fan of each facet
    it is not on (r = 3), each facet counted once, keyed by its vertex set,
    however many rows cut it out.  The
    centroid is the mean of the simplex centroids weighted by |det| of their
    edges in the pivot columns (``_affine_pivots``), which is the same
    multiple of the volume for every simplex.  With ``full`` a hull of rank
    below the dimension raises ``DegenerateError``; a hull of any other rank
    ``ValueError``.
    """
    ints, den = _integer_vertices(poly)
    if not ints:
        raise DegenerateError("empty polytope")
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
        for *a, b in poly._rows:
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


def _interval_bounds(poly: HPolytope) -> tuple:
    """(lo, hi) of the interval {y : a y <= b for every row}, each as
    (p, q, i) with bound p / q, q > 0, and i the first row that gives it, or
    None where no row bounds that side.

    lo is the largest b / a over the rows with a < 0 and hi the smallest
    over those with a > 0, compared as integer pairs by cross-multiplying;
    a strict comparison keeps the first row attaining each.
    """
    lo = hi = None
    for i, (a, b) in enumerate(poly._rows):
        if a < 0:
            if lo is None or -b * lo[1] > lo[0] * -a:
                lo = (-b, -a, i)
        elif hi is None or b * hi[1] < hi[0] * a:
            hi = (b, a, i)
    return lo, hi


def _interval_vertices(poly: HPolytope) -> tuple[list[tuple[int]], int]:
    """``_enumerate_vertices`` of an interval: its bounds in lowest terms
    over the lcm of their denominators, in the order of their first rows."""
    lo, hi = _interval_bounds(poly)
    if lo is None or hi is None:
        raise UnboundedError("polytope is unbounded")
    gap = lo[0] * hi[1] - hi[0] * lo[1]
    if gap > 0:
        return [], 1
    ends = [lo] if gap == 0 else sorted((lo, hi), key=operator.itemgetter(2))
    ends = [(p // gcd(p, q), q // gcd(p, q)) for p, q, _ in ends]
    den = lcm(*[q for _, q in ends])
    return [(p * (den // q),) for p, q in ends], den


def _interval_midpoint(poly: HPolytope) -> tuple[Fraction] | None:
    """((lo + hi) / 2,) for the interval {y : a y <= b for every row}
    (``_interval_bounds``), or None if it is unbounded or empty; the
    vertices are never enumerated."""
    lo, hi = _interval_bounds(poly)
    if lo is None or hi is None or lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return (Fraction(lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]),)


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
        """The oracle's fiber over p, memoized by p's (numerator,
        denominator) pairs, which hash without the modular inverse a
        ``Fraction`` hash takes."""
        p = rationalize_point(p)
        key = tuple((x.numerator, x.denominator) for x in p)
        poly = self._memo.get(key)
        if poly is None:
            poly = self._oracle(p)
            if poly.dim != self.fiber_dim:
                raise ValueError("oracle returned a fiber of the wrong dimension")
            self._memo[key] = poly
        return poly


def base_gauge(p) -> Fraction:
    """Minkowski gauge of the base cube as seen from the bottom center."""
    return max([p[0]] + [abs(v) for v in p[1:]])


def radial_project_base(p) -> tuple[tuple[Fraction, ...], Fraction]:
    """Radial projection onto the distinguished boundary, with its scale s.

    The distinguished boundary is the cube boundary minus the open bottom
    face; the ray from the bottom center through p meets it exactly once.
    With p = P / L, the scale is G / L for G the base gauge of P, and the
    projection P / G.
    """
    p = rationalize_point(p)
    if p[0] < 0 or p[0] > 1 or any(abs(v) > 1 for v in p[1:]):
        raise DomainError("point lies outside the base cube")
    ints, den = _integer_vector(p)
    g = base_gauge(ints)
    if g == 0:
        raise ValueError("the bottom center has no radial projection")
    return tuple(Fraction(x, g) for x in ints), Fraction(g, den)


# ---------------------------------------------------------------------------
# rays, exit times, half-ball map


def radial(poly: HPolytope, y) -> Fraction:
    """Radial function sup{l >= 0 : l * y in poly} of a polytope that holds
    the origin, along y != 0: the least offset / (normal . y) over the
    constraints with normal . y > 0 (``_radial_about`` the origin)."""
    return _radial_about(poly, (0,) * poly.dim, y)


def _radial_about(poly: HPolytope, center, y) -> Fraction:
    """Radial function of poly - c along y != 0, for a point c of poly, read
    off poly's own rows, with no translated copy built: the least
    (b - a . c) / (a . y) over the rows with a . y > 0.  Over integers, with
    c = C / K and y = Y / L, that is L (b K - a . C) / (K (a . Y)).  The
    half-ball maps read their fibers about the centroid this way, and
    ``chamber.nudge_into`` its polytope about the vertex mean; a center of
    0 costs one ``any``."""
    ints, den = _integer_vector(y)
    if any(center):
        c_ints, c_den = _integer_vector(center)
    else:
        c_ints, c_den = (), 1
    best = None
    for row in poly._rows:
        d = sum(map(operator.mul, row, ints))
        if d > 0:
            b = row[-1] * c_den - sum(map(operator.mul, row, c_ints))
            if best is None or b * best[1] < best[0] * d:
                best = (b, d)
    if best is None:
        raise UnboundedError("radial function undefined; polytope unbounded")
    return Fraction(best[0] * den, best[1] * c_den)


def _support(poly: HPolytope, row: tuple[int, ...]) -> tuple[int, int]:
    """Support function h(u) = max of u . v over the vertices, for u the
    integer row ``row``, as (M, D) with h(u) = M / D.

    With the integer vertices X / D (``_integer_vertices``, cached on the
    polytope), M is the max of row . X.  Nothing is cached per row: each
    ``_JoinedBody`` reads the values it needs once.  The callers pass
    primitive rows: a positive multiple of u scales h(u) by the same
    factor, and their closed forms are invariant under it.
    """
    points, den = _integer_vertices(poly)
    if not points:
        raise DegenerateError("empty polytope")
    return max(sum(map(operator.mul, row, x)) for x in points), den


def _supports_about(poly: HPolytope, center, normals
                    ) -> tuple[list[int], int]:
    """The support values of poly - c over the integer rows ``normals``, as
    (numerators, d) with h(u) = M_u / d, c = ``center`` a point: h(u) - u . c
    (Schneider, *Convex Bodies: The Brunn-Minkowski Theory*, 1.7).  With
    the vertices X / D and c = C / K, M_u is (max u . X) K - (u . C) D over
    d = D K, not in lowest terms; a center of 0 costs one ``any``."""
    tops = [_support(poly, u) for u in normals]
    den = _integer_vertices(poly)[1]
    if not any(center):
        return [m for m, _ in tops], den
    c_ints, c_den = _integer_vector(center)
    return [m * c_den - sum(map(operator.mul, u, c_ints)) * den
            for u, (m, _) in zip(normals, tops)], den * c_den


def _edge_directions(poly: HPolytope) -> list[tuple[int, ...]]:
    """D (v - w) for every edge [w, v] of a polytope in dimension 3, with
    the vertices X / D (``_integer_vertices``).

    Two vertices span an edge iff two independent constraints are tight at
    both: those cut out a line, and its intersection with the polytope is a
    face holding both vertices.  Row (a, b) is tight at X / D iff
    a . X = b D.
    """
    cached = poly._cache.get("edges")
    if cached is None:
        points, den = _integer_vertices(poly)
        rows = poly._rows
        tight = [
            {i for i, row in enumerate(rows)
             if sum(map(operator.mul, row, x)) == row[-1] * den}
            for x in points
        ]
        cached = []
        for (v, tv), (w, tw) in itertools.combinations(zip(points, tight), 2):
            common = [rows[i] for i in tv & tw]
            if any(any(_cross(a, b)) for a, b in
                   itertools.combinations(common, 2)):
                cached.append(tuple(x - y for x, y in zip(v, w)))
        poly._cache["edges"] = cached
    return cached


def _join_normals(e0: HPolytope, e1: HPolytope | None) -> tuple:
    """Directions u, as primitive integer rows, whose inequalities
    u . y <= (1 - s) h0(u) + s h1(u) together cut out (1 - s) E0 + s E1 for
    every s in [0, 1]; a fresh tuple per call, cached nowhere.

    A facet of a Minkowski sum is a sum of faces of the summands, so its
    normal is a facet normal of E0 or of E1 or, in dimension 3, normal to an
    edge of each (Gritzmann-Sturmfels 1993; Fukuda 2004).  Every u gives a
    valid inequality, so extra directions cost time, not exactness.  With no
    E1 (a ray inside the bottom center's fiber) only E0 counts.
    """
    if e0.dim > MAX_FIBER_DIM:
        raise ValueError(
            f"exit times implemented for fiber dimension <= {MAX_FIBER_DIM}"
        )
    polys = (e0,) if e1 is None else (e0, e1)
    found = dict.fromkeys(
        _primitive(row[:-1]) for poly in polys for row in poly._rows
    )
    if e0.dim == 3 and e1 is not None:
        for a in _edge_directions(e0):
            for b in _edge_directions(e1):
                u = _cross(a, b)
                if any(u):
                    u = _primitive(u)
                    found[u] = None
                    found[tuple(-x for x in u)] = None
    return tuple(found)


def _origin(poly: HPolytope) -> tuple[int, ...]:
    """The point a ``_JoinedBody`` reads its fibers about by default."""
    return (0,) * poly.dim


class _JoinedBody:
    """The joined body over the ray from the bottom center through a base
    point p of the cube: the union of the segments from the bottom center's
    fiber E0 to the fiber E1 over q, the radial projection of p onto the
    distinguished boundary (``radial_project_base``), read here off p's
    integer form P / L as P / G, G the base gauge of P, with no domain
    check: the callers' points are in the cube.  Over the bottom center
    there is no q, and E1 is None.

    Each fiber E is read about the point ``center_of(E)``: the body is that
    of the fibers E - center_of(E).  By default that point is the origin,
    so the body is that of the fibers ``fiber_at`` returns, as the public
    ``exit_time`` wants; ``HalfBallMap`` passes ``centroid``, so that it
    reads uncentered fibers in place, with no centered copy built.

    Over the base point s q, 0 <= s <= 1, its fiber is (1 - s) E0 + s E1,
    cut out by the inequalities u . y <= (1 - s) h0(u) + s h1(u) for the
    join normals u (``_join_normals``), h0 and h1 the support functions of
    E0 and E1.  ``radial`` and ``exit_time`` are closed forms in h0 and h1
    over those normals.  The fibers are read once, through ``fiber_at``,
    and the support values once, here: ``terms`` holds one (u, M0, M1) per
    join normal, with h0(u) = M0 / d0 and h1(u) = M1 / d1 (M1 = 0 and
    d1 = 1 without E1).  Read about c = C / K, a fiber with vertices X / D
    has h(u) = (M K - (u . C) D) / (D K), M the max of u . X (Schneider,
    *Convex Bodies*, 1.7): the pairs need not be in lowest terms, as every
    closed form here is homogeneous in each (M, d).  The polytopes cache
    their vertices, not these values.
    """

    __slots__ = ("e0", "e1", "terms", "d0", "d1")

    def __init__(self, fiber_at: Callable, p, center_of: Callable = _origin):
        self.e0 = fiber_at((Fraction(0),) * len(p))
        if any(p):
            ints, _ = _integer_vector(p)
            gauge = base_gauge(ints)
            self.e1 = fiber_at(tuple(Fraction(x, gauge) for x in ints))
        else:
            self.e1 = None
        normals = _join_normals(self.e0, self.e1)
        tops0, self.d0 = _supports_about(self.e0, center_of(self.e0), normals)
        if self.e1 is None:
            tops1, self.d1 = (0,) * len(normals), 1
        else:
            tops1, self.d1 = _supports_about(
                self.e1, center_of(self.e1), normals)
        self.terms = tuple(zip(normals, tops0, tops1))

    def radial(self, s: Fraction, y) -> Fraction:
        """sup{l : l * y in the joined fiber at gauge s}, by support
        functions: the least ((1 - s) h0(u) + s h1(u)) / (u . y) over the
        join normals u with u . y > 0.  Over integers, with s = S / T,
        y = Y / L, h0 = M0 / D0 and h1 = M1 / D1, that is
        L ((T - S) M0 D1 + S M1 D0) / (T D0 D1 (u . Y)), where only the
        numerator and u . Y vary with u."""
        ints, den = _integer_vector(y)
        s_num, s_den = s.numerator, s.denominator
        d0, d1 = self.d0, self.d1
        best = None
        for u, m0, m1 in self.terms:
            d = sum(map(operator.mul, u, ints))
            if d > 0:
                num = (s_den - s_num) * m0 * d1 + s_num * m1 * d0
                if best is None or num * best[1] < best[0] * d:
                    best = (num, d)
        if best is None:
            raise UnboundedError("joined fiber radial function undefined")
        return Fraction(best[0] * den, best[1] * s_den * d0 * d1)

    def exit_time(self, ints, den: int) -> Fraction:
        """The exit time t* of the ray t -> t V / L, t >= 0, for the integer
        direction V = ``ints`` over L = ``den``, whose base part is a
        nonnegative multiple of p: exact, not rounded, for a ray that leaves.

        With G the base gauge of V's base part, t V / L lies in the body
        iff t G <= L, so that the base point stays in the cube, and
        t u . Vf / L <= (1 - t G / L) h0(u) + (t G / L) h1(u) for every join
        normal u.  A join normal with N = (u . Vf) D0 D1 - G (M1 D0 - M0 D1)
        > 0 caps t at L M0 D1 / N; one with N <= 0 never binds.  The caps
        are compared as integer pairs without the common factor L.  A t* of
        2^80 or more is taken for a ray that never leaves, and a negative
        one, which only a ray from outside an uncentered fiber gives, is
        clamped at 0.  A point inside the joined body has exit time at least
        1 along its own ray, so ``HalfBallMap.forward`` never divides by 0.
        The chart builds every fiber frame from one fixed reference, so its
        fibers vary continuously with the base point, boundary images
        included.
        """
        nb = len(ints) - self.e0.dim
        gauge = base_gauge(ints[:nb])
        vf = ints[nb:]
        d0, d1 = self.d0, self.d1
        best = (1, gauge) if gauge else None
        for u, m0, m1 in self.terms:
            n = (sum(map(operator.mul, u, vf)) * d0 * d1
                 - gauge * (m1 * d0 - m0 * d1))
            cap = m0 * d1
            if n > 0 and (best is None or cap * best[1] < best[0] * n):
                best = (cap, n)
        if best is None or best[0] * den >= 2**80 * best[1]:
            raise UnboundedError("ray never leaves the joined body")
        return max(Fraction(best[0] * den, best[1]), Fraction(0))


def exit_time(spec: ConvexoidSpec, direction) -> Fraction:
    """Exit time of the ray t -> t * direction, t >= 0, from the joined body
    of a centered spec, exact (``_JoinedBody.exit_time``).  A ray whose base
    part points below the bottom leaves the base cube at once."""
    v = rationalize_point(direction)
    if not any(v):
        raise ValueError("ray direction is zero")
    if v[0] < 0:
        return Fraction(0)
    # the body depends on the ray only, so a base part beyond the cube is
    # scaled onto its boundary
    base = v[:spec.base_dim]
    g = base_gauge(base)
    body = _JoinedBody(spec.fiber, [x / g for x in base] if g > 1 else base)
    return body.exit_time(*_integer_vector(v))


class HalfBallMap:
    """Homeomorphism from a convexoid body onto the closed half-cube
    [0, 1] x [-1, 1]^(d-1), the closed unit half-ball of the sup norm.

    Pipeline: read the fiber point about the fiber's centroid (``centroid``,
    cached on the fiber), radially rescale it onto the joined body's fiber,
    then take the point to point / (t* sup(point)), t* the exit time of the
    ray through it.  Each leg reads its fiber once and builds the joined
    body (``_JoinedBody``) once, of the fibers read about their centroids,
    and both the rescale and the exit time are exact closed forms over that
    body.  Centering is a translation, so no centered copy of a fiber is
    built: a fiber's support values and radial function about its centroid
    are read off its own vertices and rows.  The bottom (base first
    coordinate 0) lands on the half-cube bottom.  Points in and out are
    rational, and each coordinate out is rounded (``_limit``); ``inverse``
    also rounds the body point it reads its fiber at, as the exact one runs
    to hundreds of bits.
    """

    def __init__(self, spec: ConvexoidSpec):
        self.spec = spec
        self.degenerate_rescales = 0

    def _body(self, p) -> _JoinedBody:
        """The joined body over the ray through base point p, of the fibers
        read about their centroids."""
        return _JoinedBody(self.spec.fiber, p, centroid)

    def _joined_scale(self, body: _JoinedBody, fiber: HPolytope, p, y
                      ) -> Fraction:
        """Radial function along y of the joined fiber over p, over that of
        the fiber over p about its centroid (``_radial_about``); forward
        multiplies by it and inverse divides, and y = 0 stays.  Over the
        bottom center (no E1) and over the distinguished boundary (gauge 1)
        the joined fiber is the fiber itself.  0 on the boundary of either
        body means the radial map degenerates; it is counted, perturbed by
        the slack, and the map carries on, as the hypotheses put such points
        over the distinguished boundary only."""
        if not any(y):
            return Fraction(1)
        lam_e = _radial_about(fiber, centroid(fiber), y)
        s = base_gauge(p)
        lam_j = lam_e if body.e1 is None or s == 1 else body.radial(s, y)
        if lam_e <= 0 or lam_j <= 0:
            self.degenerate_rescales += 1
        return ((lam_j if lam_j > 0 else SLACK)
                / (lam_e if lam_e > 0 else SLACK))

    def _require_dim(self, x) -> None:
        """DomainError unless x has ``spec.dim`` coordinates."""
        if len(x) != self.spec.dim:
            raise DomainError(
                f"point has {len(x)} coordinates; the map takes "
                f"{self.spec.dim}"
            )

    def forward(self, x) -> tuple[Fraction, ...]:
        self._require_dim(x)
        nb = self.spec.base_dim
        p = _cube_point(x[:nb], 0, "base cube")
        y = rationalize_point(x[nb:])
        fiber = self.spec.fiber(p)
        if not fiber.contains_point(y, SLACK):
            raise DomainError("fiber point outside its polytope")
        yc = tuple(a - b for a, b in zip(y, centroid(fiber)))
        # gauge fraction in the fiber becomes gauge fraction in the joined
        # fiber
        body = self._body(p)
        scale = self._joined_scale(body, fiber, p, yc)
        point = p + tuple(v * scale for v in yc)
        if not any(point):
            return (Fraction(0),) * self.spec.dim
        # point / (t* sup(point)), over its integer form V / L:
        # V / (t* S), S = max |V|
        ints, den = _integer_vector(point)
        t_star = body.exit_time(ints, den)
        num = t_star.denominator
        den = t_star.numerator * max(map(abs, ints))
        return tuple(Fraction(*_limit(v * num, den)) for v in ints)

    def inverse(self, h) -> tuple[Fraction, ...]:
        """The body point h t*(h) sup(h), its fiber part rescaled back from
        the joined fiber and uncentered, each coordinate rounded.

        The body point is rounded (``_limit``) before its fiber is read, so
        the fiber, the rescale and the uncentering run on coordinates of
        denominator at most ``RATIONALIZE_DEN``, not on the exact point; the
        rounding keeps its base part in the cube, whose bounds 0 and +-1 it
        never crosses.  The output is rounded again (``limit_point``)."""
        self._require_dim(h)
        h = _cube_point(h, 0, "half-cube")
        nb = self.spec.base_dim
        if not any(h):
            p = self.spec.origin()
            return limit_point(p + centroid(self.spec.fiber(p)))
        body = self._body(h[:nb])
        ints, den = _integer_vector(h)
        t_star = body.exit_time(ints, den)
        # over h's integer form V / L, h t* sup(h) is V t* S / L^2,
        # S = max |V|; its base part is in the cube, since t* is at most the
        # cube's cap 1 / (base gauge of h), and a multiple of h's, so the
        # joined body over it is the one over h's; it is rounded here
        num = t_star.numerator * max(map(abs, ints))
        den = t_star.denominator * den * den
        point = tuple(Fraction(*_limit(v * num, den)) for v in ints)
        p, yj = point[:nb], point[nb:]
        fiber = self.spec.fiber(p)
        scale = self._joined_scale(body, fiber, p, yj)
        y = tuple(v / scale + c for v, c in zip(yj, centroid(fiber)))
        return limit_point(p + y)


def _cube_point(x, low: int, body: str) -> tuple[Fraction, ...]:
    """x as rationals clamped into [low, 1] x [-1, 1]^(d-1), if it lies
    within ``NORM_SLACK`` of it; else ``DomainError`` naming ``body``.  The
    test reads floats (``_float``), so NaN, infinities and numbers too large
    for a float fail before rationalizing.

    Only a coordinate whose float is at or past a bound is clamped: float
    rounding is monotone and the bounds are floats, so a float strictly
    inside (low, 1) or (-1, 1) comes from a value strictly inside, and
    ``rationalize`` keeps it inside, as the best approximations it takes
    never cross a bound of denominator 1.
    """
    values = [_float(v) for v in x]
    if not (values[0] >= low - NORM_SLACK
            and all(abs(v) <= 1 + NORM_SLACK for v in values)):
        raise DomainError(f"point outside the closed {body}")
    x = rationalize_point(x)
    lows = (low,) + (-1,) * (len(x) - 1)
    return tuple(
        v if lo < f < 1 else min(max(v, lo), 1)
        for v, f, lo in zip(x, values, lows)
    )


def _float(value) -> float:
    """``float(value)``, signed infinity for a number too large for a
    float."""
    try:
        return float(value)
    except OverflowError:
        return inf if value > 0 else -inf


def to_half_ball(spec: ConvexoidSpec, x):
    """``HalfBallMap.forward``, regauged onto the Euclidean half-ball, as a
    numpy array: the one place the package loads numpy."""
    import numpy as np

    h = HalfBallMap(spec).forward(x)
    return np.asarray(regauge(h, sup_gauge, norm_gauge))


def from_half_ball(spec: ConvexoidSpec, h) -> tuple[float, ...]:
    """``HalfBallMap.inverse`` of h regauged onto the half-cube, whose sup
    norm is h's Euclidean norm."""
    cube = regauge(h, norm_gauge, sup_gauge)
    return tuple(float(v) for v in HalfBallMap(spec).inverse(cube))


# ---------------------------------------------------------------------------
# gluing two convexoids into a cube


def norm_gauge(x) -> float:
    """Euclidean norm: the gauge of the unit ball.  ``hypot`` scales, so it
    neither underflows nor overflows; a coordinate too large for a float
    gives infinity."""
    try:
        return hypot(*x)
    except OverflowError:
        return inf


def sup_gauge(x) -> float:
    """Largest |coordinate|: the gauge of the cube [-1, 1]^d."""
    return max(map(abs, x), default=0.0)


def regauge(x, gauge_from: Callable, gauge_to: Callable) -> list[float]:
    """Radial map x * gauge_from(x) / gauge_to(x) from the unit body of
    gauge_from onto that of gauge_to, as a list of floats; x itself where
    gauge_to(x) = 0."""
    x = [_float(v) for v in x]
    to = gauge_to(x)
    if to == 0:
        return x
    scale = gauge_from(x) / to
    return [v * scale for v in x]


def _across(source: HalfBallMap, identify, target: HalfBallMap, w):
    """The bottom coordinate w of a bottom point of ``source``'s half-cube
    -> that point's bottom coordinate in ``target``'s half-cube."""
    x = identify(source.inverse((0, *w)))
    return target.forward(x)[1:]


class GluedBallMap:
    """Two convexoids glued along their bottoms, mapped onto the cube
    [-1, 1]^d, the closed unit ball of the sup norm.

    Each side goes onto its half-cube (``HalfBallMap``): the E one with its
    first coordinate negated, the F one with its bottom coordinate moved
    across the bottom identification (``_across``) so that identified
    points agree.  ``phi`` and ``phi_inverse`` identify the bottoms; on
    ``bottom_samples`` the sides must agree within ``GLUE_TOL``.  Points in
    and out are rational.
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
            err = max(abs(float(u) - float(v)) for u, v in zip(a, b))
            if err > GLUE_TOL:
                raise GluingError(
                    f"bottom identification disagrees by {err:.3g} at {x}"
                )

    def forward(self, side: str, x) -> tuple[Fraction, ...]:
        if side == "E":
            u, *w = self.e_map.forward(x)
            return (-u, *w)
        if side == "F":
            u, *w = self.f_map.forward(x)
            return (u, *_across(self.f_map, self.phi_inverse, self.e_map, w))
        raise ValueError(f"unknown side {side!r}")

    def inverse(self, cube_point):
        u, *w = _cube_point(cube_point, -1, "cube")
        if u <= 0:
            return "E", self.e_map.inverse((-u, *w))
        w = _across(self.e_map, self.phi, self.f_map, w)
        return "F", self.f_map.inverse((u, *w))
