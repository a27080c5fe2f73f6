"""Fibered polytope bodies over a cube and their maps onto half-balls.

A convexoid is a family of convex polytope fibers over the cube
Q = [0,1] x [-1,1]^(nb-1), bounded with nonempty interior over interior base
points and over the interior of the bottom face {0} x [-1,1]^(nb-1).  Such a
body is homeomorphic to a closed half-ball with bottom going to bottom; two
of them glued along their bottoms give a closed ball.

Polytope data is exact rational; the half-ball and ball maps emit floats
with explicit tolerances.  No linear program runs: boundedness is an exact
extreme-ray check on the constraint normals, and the joined body (the union
of segments from the bottom center's fiber to the fibers over the
distinguished boundary) is never built as a polytope.  Its exit times and
radial functions are closed forms in the support functions of the two
fibers it joins.  The exit time is still rounded to a dyadic within
``EXIT_TOL`` (see ``_Ray.exit_scale``).
The maps center fibers with ``centroid`` and ``centered``, which cache on
the polytope; ``translated`` and ``scaled`` carry the vertex and centroid
caches over, so a fiber centered once is never centered again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import linalg

__all__ = [
    "HPolytope",
    "ConvexoidSpec",
    "ExitTime",
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
    return Fraction(value).limit_denominator(RATIONALIZE_DEN)


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

    def _moved(self, constraints, move) -> "HPolytope":
        """Image under ``move``, with the same normals in the same order, so
        cached vertices (in their order) and centroid carry over, moved."""
        out = HPolytope(self.dim, constraints)
        if "vertices" in self._cache:
            out._cache["vertices"] = [move(v) for v in self._cache["vertices"]]
        if "centroid" in self._cache:
            out._cache["centroid"] = move(self._cache["centroid"])
        return out

    def scaled(self, factor) -> "HPolytope":
        factor = Fraction(factor)
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        constraints = [(n, o * factor) for n, o in self.constraints]
        if factor == 0:
            return HPolytope(self.dim, constraints)
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
        return (Fraction(1),)
    if dim == 2:
        (a, b), = rows
        return (-b, a)
    if dim == 3:
        r = _cross(*rows)
        return r if any(r) else None
    basis = linalg.kernel_basis(rows, dim)
    return basis[0] if len(basis) == 1 else None


def _is_unbounded(poly: HPolytope) -> bool:
    """Whether some d != 0 has normal . d <= 0 for every constraint.

    When the normals have full rank the recession cone {d : A d <= 0} is
    pointed, so it is nonzero iff it has an extreme ray, and an extreme ray
    spans the kernel of dim - 1 independent normals.  When they have rank
    dim - 1 that kernel is the kernel of all of them, and when their rank is
    lower no dim - 1 of them are independent; either way d exists.
    """
    normals = [n for n, _ in poly.constraints]
    independent = False
    for rows in itertools.combinations(normals, poly.dim - 1):
        r = _kernel_line(rows, poly.dim)
        if r is None:
            continue
        independent = True
        dots = [linalg.dot(n, r) for n in normals]
        if all(d <= 0 for d in dots) or all(d >= 0 for d in dots):
            return True
    return not independent


def vertices(poly: HPolytope) -> list[tuple[Fraction, ...]]:
    """Exact vertex set by exhaustive dim-subset constraint intersection."""
    if "vertices" in poly._cache:
        return poly._cache["vertices"]
    if poly.dim == 0:
        poly._cache["vertices"] = [()]
        return [()]
    if _is_unbounded(poly):
        raise UnboundedError("polytope is unbounded")
    found = []
    seen = set()
    for subset in itertools.combinations(poly.constraints, poly.dim):
        mat = [list(n) for n, _ in subset]
        if linalg.det(mat) == 0:
            continue
        point = linalg.solve(mat, [o for _, o in subset])
        if point is None:
            continue
        point = tuple(point)
        if point not in seen and poly.contains_point(point):
            seen.add(point)
            found.append(point)
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


def _polygon_centroid(ordered):
    """Area and centroid of a CCW polygon, exact."""
    area2 = Fraction(0)
    cx = Fraction(0)
    cy = Fraction(0)
    for (x0, y0), (x1, y1) in zip(ordered, ordered[1:] + ordered[:1]):
        cr = x0 * y1 - x1 * y0
        area2 += cr
        cx += (x0 + x1) * cr
        cy += (y0 + y1) * cr
    if area2 == 0:
        return Fraction(0), None
    return area2 / 2, (cx / (3 * area2), cy / (3 * area2))


def _facet_loop(verts3, normal):
    """Vertices of a planar facet in angular order around their mean."""
    drop = max(range(3), key=lambda i: abs(normal[i]))
    keep = [i for i in range(3) if i != drop]
    flat = [(v[keep[0]], v[keep[1]]) for v in verts3]
    cx = sum(p[0] for p in flat) / len(flat)
    cy = sum(p[1] for p in flat) / len(flat)

    import functools

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def compare(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        cr = (a[0] - cx) * (b[1] - cy) - (a[1] - cy) * (b[0] - cx)
        if cr > 0:
            return -1
        if cr < 0:
            return 1
        return 0

    order = sorted(range(len(flat)), key=functools.cmp_to_key(
        lambda i, j: compare(flat[i], flat[j])
    ))
    return [verts3[i] for i in order]


def _tet_volume(a, b, c, d):
    mat = [
        [b[i] - a[i] for i in range(3)],
        [c[i] - a[i] for i in range(3)],
        [d[i] - a[i] for i in range(3)],
    ]
    return abs(linalg.det(mat)) / 6


def barycenter(poly: HPolytope) -> tuple[Fraction, ...]:
    """Exact volume-weighted centroid of a full-dimensional polytope.

    Fan decomposition from the lexicographically least vertex; implemented
    for fiber dimensions up to 3, which covers desk scale.
    """
    verts = vertices(poly)
    if not verts:
        raise DegenerateError("empty polytope")
    m = poly.dim
    if m == 0:
        return ()
    diffs = [tuple(v[i] - verts[0][i] for i in range(m)) for v in verts[1:]]
    if linalg.rank(diffs) < m:
        raise DegenerateError("polytope is not full-dimensional")
    if m == 1:
        lo = min(v[0] for v in verts)
        hi = max(v[0] for v in verts)
        return ((lo + hi) / 2,)
    if m == 2:
        ordered = _hull_order_2d(verts)
        _, centroid = _polygon_centroid(ordered)
        return centroid
    if m == 3:
        apex = min(verts)
        total = Fraction(0)
        acc = [Fraction(0)] * 3
        for normal, offset in poly.constraints:
            on_facet = [v for v in verts if linalg.dot(normal, v) == offset]
            if len(on_facet) < 3 or apex in on_facet:
                continue
            loop = _facet_loop(on_facet, normal)
            for b, c in zip(loop[1:], loop[2:]):
                vol = _tet_volume(apex, loop[0], b, c)
                if vol == 0:
                    continue
                total += vol
                for i in range(3):
                    acc[i] += vol * (apex[i] + loop[0][i] + b[i] + c[i]) / 4
        if total == 0:
            raise DegenerateError("polytope has zero volume")
        return tuple(a / total for a in acc)
    raise ValueError("barycenter implemented for fiber dimension <= 3")


def centroid(poly: HPolytope) -> tuple[Fraction, ...]:
    """Centroid with respect to the polytope's own affine hull, cached.

    Needed for the centering step on degenerate boundary fibers; exact for
    hull dimension <= 2, which is all the boundary strata used here.
    """
    if "centroid" not in poly._cache:
        poly._cache["centroid"] = _hull_centroid(poly)
    return poly._cache["centroid"]


def centered(poly: HPolytope) -> HPolytope:
    """The polytope translated to centroid zero, cached; idempotent."""
    if "centered" not in poly._cache:
        poly._cache["centered"] = poly.translated([-c for c in centroid(poly)])
    return poly._cache["centered"]


def _hull_centroid(poly: HPolytope) -> tuple[Fraction, ...]:
    verts = vertices(poly)
    if not verts:
        raise DegenerateError("empty polytope")
    if poly.dim == 0 or len(verts) == 1:
        return verts[0]
    base = verts[0]
    diffs = [tuple(v[i] - base[i] for i in range(poly.dim)) for v in verts[1:]]
    frame = linalg.orthogonalize(diffs)
    d = len(frame)
    if d == poly.dim:
        return barycenter(poly)
    if d == 0:
        return base
    coords = []
    for v in verts:
        delta = tuple(v[i] - base[i] for i in range(poly.dim))
        coords.append(
            tuple(
                linalg.dot(delta, f) / linalg.dot(f, f) for f in frame
            )
        )
    if d == 1:
        lo = min(c[0] for c in coords)
        hi = max(c[0] for c in coords)
        mid = ((lo + hi) / 2,)
    elif d == 2:
        ordered = _hull_order_2d(coords)
        area, centroid = _polygon_centroid(ordered)
        if centroid is None:
            xs = sorted(set(coords))
            lo, hi = xs[0], xs[-1]
            centroid = tuple((a + b) / 2 for a, b in zip(lo, hi))
        mid = centroid
    else:
        raise ValueError("degenerate centroid implemented for hull dim <= 2")
    out = list(base)
    for c, f in zip(mid, frame):
        for i in range(poly.dim):
            out[i] += c * f[i]
    return tuple(out)


# ---------------------------------------------------------------------------
# convexoid specs


@dataclass(frozen=True)
class ExitTime:
    direction: tuple
    t: Fraction


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
    """Support function h(u) = max of u . v over the vertices, cached per u."""
    table = poly._cache.setdefault("support", {})
    h = table.get(u)
    if h is None:
        verts = vertices(poly)
        if not verts:
            raise DegenerateError("empty polytope")
        h = table[u] = max(linalg.dot(u, v) for v in verts)
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
        if e0.dim > 3:
            raise ValueError("exit times implemented for fiber dimension <= 3")
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
        ``step`` that holds t*.  The rounding is kept on purpose: dividing by
        the exact exit time puts the images of boundary points exactly on the
        support strata where the fiber frames change, and chart round trips
        then get worse (G(2,5) samples by up to 8.6e-2).
        """
        t_star = self.exit_bound()
        if t_star is None or t_star >= 2**80:
            raise UnboundedError("ray never leaves the joined body")
        # t* < 0 (a ray from outside an uncentered fiber) lands in [0, step)
        t_star = max(t_star, Fraction(0))
        hi = 1 << int(t_star).bit_length()
        lo = hi // 2
        step = Fraction(hi - lo)
        while step > EXIT_TOL:
            step /= 2
        return lo + (t_star - lo) // step * step + step / 2


def exit_time(spec: ConvexoidSpec, direction) -> ExitTime:
    """Exit time of a ray from the joined body of a centered spec."""
    ray = _Ray(spec.fiber, spec.base_dim, direction)
    return ExitTime(tuple(direction), ray.exit_scale())


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

    def _rescale_report(self, lam_from, lam_to):
        # 0 on the boundary of either body means the radial map degenerates;
        # perturb by the slack and carry on, as the hypotheses put such
        # points over the distinguished boundary only.
        if lam_from <= 0 or lam_to <= 0:
            self.degenerate_rescales += 1
        if lam_from <= 0:
            lam_from = SLACK
        if lam_to <= 0:
            lam_to = SLACK
        return lam_from, lam_to

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
        if any(yc):
            # gauge fraction in the fiber becomes gauge fraction in the
            # joined fiber: y' = y * (radial of joined / radial of fiber)
            lam_e = self._lambda_fiber(self.centered_fiber(p), yc)
            lam_j = self._lambda_joined(p, yc)
            lam_e, lam_j = self._rescale_report(lam_e, lam_j)
            yj = tuple(v * lam_j / lam_e for v in yc)
        else:
            yj = yc
        point = p + yj
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
        if norm < 1e-15:
            p = self.spec.origin()
            return tuple(float(v) for v in p) + tuple(
                float(v) for v in self.centroid(p)
            )
        direction = rationalize_point(h)
        ray = _Ray(self.centered_fiber, nb, direction)
        t_star = ray.exit_scale()
        point = tuple(v * t_star * rationalize(norm) for v in direction)
        p = _clamp_to_cube(point[:nb])
        yj = point[nb:]
        if any(yj):
            lam_e = self._lambda_fiber(self.centered_fiber(p), yj)
            lam_j = self._lambda_joined(p, yj)
            lam_e, lam_j = self._rescale_report(lam_e, lam_j)
            yc = tuple(v * lam_e / lam_j for v in yj)
        else:
            yc = yj
        y = tuple(a + b for a, b in zip(yc, self.centroid(p)))
        return tuple(float(v) for v in p) + tuple(float(v) for v in y)


def to_half_ball(spec: ConvexoidSpec, x):
    return HalfBallMap(spec).forward(x)


def from_half_ball(spec: ConvexoidSpec, h):
    return HalfBallMap(spec).inverse(h)


# ---------------------------------------------------------------------------
# gluing two convexoids into a ball


def _half_ball_to_cylinder(h):
    h = np.asarray(h, dtype=float)
    norm = float(np.linalg.norm(h))
    if norm < 1e-15:
        return 0.0, np.zeros(len(h) - 1)
    gauge = max(max(h[0], 0.0), float(np.linalg.norm(h[1:])))
    c = h * (norm / gauge)
    return float(c[0]), c[1:]


def _cylinder_to_half_ball(u, w):
    c = np.concatenate(([u], np.asarray(w, dtype=float)))
    norm = float(np.linalg.norm(c))
    if norm < 1e-15:
        return c
    gauge = max(max(c[0], 0.0), float(np.linalg.norm(c[1:])))
    return c * (gauge / norm)


def _cylinder_to_ball(a, w):
    c = np.concatenate(([a - 1.0], np.asarray(w, dtype=float)))
    norm = float(np.linalg.norm(c))
    if norm < 1e-15:
        return c
    gauge = max(abs(c[0]), float(np.linalg.norm(c[1:])))
    return c * (gauge / norm)


def _ball_to_cylinder(b):
    b = np.asarray(b, dtype=float)
    norm = float(np.linalg.norm(b))
    if norm < 1e-15:
        return 1.0, b[1:]
    gauge = max(abs(b[0]), float(np.linalg.norm(b[1:])))
    c = b * (norm / gauge)
    return float(c[0]) + 1.0, c[1:]


class GluedBallMap:
    """Two convexoids glued along their bottoms, mapped onto a closed ball.

    Each side goes to a half-ball, then to a unit cylinder with the bottom
    at the shared slice; the E cylinder occupies axis [0,1], the F cylinder
    [1,2], with the F disk factor re-coordinated through the bottom
    identification so identified points agree; finally the long cylinder is
    radially rescaled onto the ball.  ``phi`` and ``phi_inverse`` identify the
    bottoms; on ``bottom_samples`` the sides must agree within ``GLUE_TOL``.
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

    def _psi(self, w):
        """F-side disk coordinate -> shared (E-side) disk coordinate."""
        x_f = self.f_map.inverse(np.concatenate(([0.0], w)))
        x_e = self.phi_inverse(x_f)
        h = self.e_map.forward(x_e)
        return h[1:]

    def _psi_inverse(self, w):
        x_e = self.e_map.inverse(np.concatenate(([0.0], w)))
        x_f = self.phi(x_e)
        h = self.f_map.forward(x_f)
        return h[1:]

    def forward(self, side: str, x) -> np.ndarray:
        if side == "E":
            u, w = _half_ball_to_cylinder(self.e_map.forward(x))
            return _cylinder_to_ball(1.0 - u, w)
        if side == "F":
            u, w = _half_ball_to_cylinder(self.f_map.forward(x))
            return _cylinder_to_ball(1.0 + u, self._psi(w))
        raise ValueError(f"unknown side {side!r}")

    def inverse(self, ball_point):
        b = np.asarray(ball_point, dtype=float)
        if float(np.linalg.norm(b)) > 1 + 1e-9:
            raise DomainError("point outside the closed ball")
        a, w = _ball_to_cylinder(b)
        if a <= 1.0:
            h = _cylinder_to_half_ball(1.0 - a, w)
            return "E", self.e_map.inverse(h)
        h = _cylinder_to_half_ball(a - 1.0, self._psi_inverse(w))
        return "F", self.f_map.inverse(h)
