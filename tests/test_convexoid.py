"""Polytope primitives and the half-ball / gluing maps."""

import collections
import decimal
import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from grassball import chamber, convexoid, linalg, lp
from grassball.sampling import random_positive_point
from grassball.convexoid import (
    EXIT_TOL,
    ConvexoidSpec,
    DegenerateError,
    DomainError,
    GluedBallMap,
    HalfBallMap,
    HPolytope,
    UnboundedError,
    _Ray,
    barycenter,
    base_gauge,
    centered,
    centroid,
    exit_time,
    from_half_ball,
    radial_project_base,
    rationalize,
    rationalize_point,
    to_half_ball,
    vertices,
)

F = Fraction


def interval(lo, hi):
    return HPolytope(1, [((F(1),), F(hi)), ((F(-1),), F(-lo))])


def box2(lo1, hi1, lo2, hi2):
    return HPolytope(
        2,
        [
            ((F(1), F(0)), F(hi1)),
            ((F(-1), F(0)), F(-lo1)),
            ((F(0), F(1)), F(hi2)),
            ((F(0), F(-1)), F(-lo2)),
        ],
    )


def square_spec():
    return ConvexoidSpec(1, 1, lambda p: interval(-1, 1))


def centered_spec(spec):
    """The same convexoid with every fiber translated to centroid zero."""
    return ConvexoidSpec(
        spec.base_dim, spec.fiber_dim, lambda p: centered(spec.fiber(p))
    )


# -- vertices ------------------------------------------------------------------


def test_vertices_square_and_simplex():
    assert sorted(vertices(box2(-1, 1, -1, 1))) == [
        (F(-1), F(-1)),
        (F(-1), F(1)),
        (F(1), F(-1)),
        (F(1), F(1)),
    ]
    simplex = HPolytope(
        2,
        [
            ((F(-1), F(0)), F(0)),
            ((F(0), F(-1)), F(0)),
            ((F(1), F(1)), F(1)),
        ],
    )
    assert sorted(vertices(simplex)) == [
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
    ]


def test_vertices_unbounded_raises():
    half_plane = HPolytope(2, [((F(1), F(0)), F(1))])
    with pytest.raises(UnboundedError):
        vertices(half_plane)


def random_bounded_3d(rng):
    """Unit cube cut by a few random planes: bounded by construction."""
    cons = []
    for i in range(3):
        e = [F(0)] * 3
        e[i] = F(1)
        cons.append((tuple(e), F(1)))
        cons.append((tuple(-v for v in e), F(1)))
    for _ in range(rng.randint(1, 3)):
        normal = tuple(F(rng.randint(-3, 3)) for _ in range(3))
        if not any(normal):
            continue
        cons.append((normal, F(rng.randint(1, 4))))
    return HPolytope(3, cons)


def test_vertices_3d_against_scipy_halfspaces():
    scipy_spatial = pytest.importorskip("scipy.spatial")
    rng = random.Random(17)
    for _ in range(10):
        poly = random_bounded_3d(rng)
        ours = vertices(poly)
        for v in ours:
            assert poly.contains_point(v)
        halfspaces = np.array(
            [
                [float(a) for a in normal] + [-float(b)]
                for normal, b in poly.constraints
            ]
        )
        hs = scipy_spatial.HalfspaceIntersection(
            halfspaces, np.zeros(3), incremental=False
        )
        theirs = {tuple(np.round(p, 7)) for p in hs.intersections}
        mine = {tuple(round(float(x), 7) for x in v) for v in ours}
        assert mine == theirs


# -- barycenter ------------------------------------------------------------------


def test_barycenter_symmetric_cases():
    assert barycenter(box2(-1, 1, -1, 1)) == (F(0), F(0))
    triangle = HPolytope(
        2,
        [
            ((F(-1), F(0)), F(0)),
            ((F(0), F(-1)), F(0)),
            ((F(1), F(1)), F(1)),
        ],
    )
    assert barycenter(triangle) == (F(1, 3), F(1, 3))
    # the unit cube with its top facet cut out twice, by a duplicate and by a
    # proportional row: a facet counts once, whichever rows cut it out
    cube = [(tuple(F(s * (i == j)) for j in range(3)), F(int(s > 0)))
            for i in range(3) for s in (1, -1)]
    top = ((F(0), F(0), F(1)), F(1))
    for extra in (top, ((F(0), F(0), F(2)), F(2))):
        poly = HPolytope(3, cube + [extra])
        assert barycenter(poly) == (F(1, 2),) * 3
        assert centroid(poly) == (F(1, 2),) * 3


def flat_segment():
    """The segment {1} x [-1, 1] in the plane: not full-dimensional."""
    return HPolytope(
        2,
        [
            ((F(1), F(0)), F(1)),
            ((F(-1), F(0)), F(-1)),
            ((F(0), F(1)), F(1)),
            ((F(0), F(-1)), F(1)),
        ],
    )


def test_barycenter_degenerate_raises():
    with pytest.raises(DegenerateError):
        barycenter(flat_segment())


def test_barycenter_matches_monte_carlo():
    rng = random.Random(18)
    np_rng = np.random.default_rng(18)
    for _ in range(3):
        poly = random_bounded_3d(rng)
        center = barycenter(poly)
        a = np.array([[float(v) for v in n] for n, _ in poly.constraints])
        b = np.array([float(o) for _, o in poly.constraints])
        pts = np_rng.uniform(-1, 1, size=(1_000_000, 3))
        inside = pts[(pts @ a.T <= b + 1e-12).all(axis=1)]
        assert len(inside) > 1000
        estimate = inside.mean(axis=0)
        sigma = inside.std(axis=0) / math.sqrt(len(inside))
        for c, e, s in zip(center, estimate, sigma):
            assert abs(float(c) - e) <= 4 * s + 1e-9


# -- centering --------------------------------------------------------------------


def test_centered_shifts_and_is_idempotent():
    poly = interval(0, 2)
    once = centered(poly)
    assert sorted(vertices(once)) == [(F(-1),), (F(1),)]
    twice = centered(once)
    assert sorted(vertices(twice)) == [(F(-1),), (F(1),)]
    assert barycenter(once) == (F(0),)
    assert twice is once and centered(poly) is once


def moved_copies(poly, rng):
    """Translated and scaled images of poly, by rational shifts and factors."""
    shift = tuple(
        F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(poly.dim)
    )
    return [
        poly.translated(shift),
        poly.scaled(F(3, 2)),
        poly.scaled(F(1, 3)),
        poly.scaled(1),
        poly.scaled(F(2, 5)).translated(shift),
    ]


def test_moved_polytope_caches_equal_a_fresh_computation():
    rng = random.Random(43)
    polys = [interval(-1, 3), interval(F(1, 2), F(7, 3)), box2(-1, 2, 0, 1),
             flat_segment()]
    polys += [random_bounded_3d(rng) for _ in range(4)]
    for poly in polys:
        vertices(poly)
        centroid(poly)
        for moved in moved_copies(poly, rng):
            # the copies come from the source, not from a new computation
            assert "vertices" in moved._cache and "centroid" in moved._cache
            fresh = HPolytope(moved.dim, moved.constraints)
            assert vertices(moved) == vertices(fresh)  # same order, too
            assert centroid(moved) == centroid(fresh)


def test_point_copy_carries_fresh_caches_and_unbounded_copies_nothing():
    rng = random.Random(44)
    cube = random_bounded_3d(rng)
    vertices(cube)
    centroid(cube)
    point = cube.scaled(0)
    fresh = HPolytope(point.dim, point.constraints)
    assert point._cache["vertices"] == vertices(fresh) == [(F(0),) * 3]
    assert point._cache["centroid"] == centroid(fresh) == (F(0),) * 3
    half_plane = HPolytope(2, [((F(1), F(0)), F(1))])
    with pytest.raises(UnboundedError):
        vertices(half_plane)
    for moved in moved_copies(half_plane, rng):
        assert not moved._cache
        with pytest.raises(UnboundedError):
            vertices(moved)


# -- radial projection --------------------------------------------------------------


def test_radial_project_examples():
    q, s = radial_project_base((F(3, 10),))
    assert q == (F(1),) and s == F(3, 10)
    q, s = radial_project_base((F(1),))
    assert q == (F(1),) and s == F(1)
    q, s = radial_project_base((F(1, 5), F(1, 2)))
    assert s == F(1, 2) and q == (F(2, 5), F(1))
    with pytest.raises(ValueError):
        radial_project_base((F(0), F(0)))
    with pytest.raises(DomainError):
        radial_project_base((F(2), F(0)))


# -- joined fiber --------------------------------------------------------------------


def joined_radius(spec, p, y):
    """sup{l : l * y in the joined fiber over p}, exact."""
    return HalfBallMap(spec)._lambda_joined(p, tuple(map(F, y)))


def test_join_fiber_constant_and_extremes():
    spec = centered_spec(square_spec())
    for p in [(F(0),), (F(1, 4),), (F(3, 4),), (F(1),)]:
        assert joined_radius(spec, p, (1,)) == 1
        assert joined_radius(spec, p, (-1,)) == 1


def test_join_fiber_interval_combination():
    spec = ConvexoidSpec(
        1, 1, lambda p: interval(-1, 1) if p[0] == 0 else interval(-2, 2)
    )
    # (1/2) [-1, 1] + (1/2) [-2, 2] = [-3/2, 3/2]
    assert joined_radius(spec, (F(1, 2),), (1,)) == F(3, 2)
    assert joined_radius(spec, (F(1, 2),), (-1,)) == F(3, 2)


def test_join_fiber_2d_minkowski():
    spec = ConvexoidSpec(
        1, 2, lambda p: box2(-1, 1, -1, 1) if p[0] == 0 else box2(-2, 2, -1, 1)
    )
    # the joined fiber over 1/2 is the box [-3/2, 3/2] x [-1, 1]
    p = (F(1, 2),)
    for y in [(1, 0), (-1, 0)]:
        assert joined_radius(spec, p, y) == F(3, 2)
    for y in [(0, 1), (0, -1)]:
        assert joined_radius(spec, p, y) == 1
    for corner in [(-F(3, 2), -1), (-F(3, 2), 1), (F(3, 2), -1), (F(3, 2), 1)]:
        assert joined_radius(spec, p, corner) == 1


# -- exit time -------------------------------------------------------------------------


def test_exit_time_square_cases():
    spec = centered_spec(square_spec())
    assert type(exit_time(spec, (1.0, 0.0))) is F
    assert abs(float(exit_time(spec, (1.0, 0.0))) - 1) < 1e-9
    assert abs(float(exit_time(spec, (0.0, 1.0))) - 1) < 1e-9
    diag = 1 / math.sqrt(2)
    assert abs(float(exit_time(spec, (diag, diag))) - math.sqrt(2)) < 1e-8


def exit_time_lp_oracle(spec, direction):
    """Exit time as one exact parametric LP, independent of the bisection.

    Substituting z0 = (1 - t g) y0 and z1 = t g y1 makes the membership of
    t * direction a linear feasibility problem jointly in (t, z0, z1).
    """
    v = rationalize_point(direction)
    nb, m = spec.base_dim, spec.fiber_dim
    vb, vf = v[:nb], v[nb:]
    e0 = spec.fiber(spec.origin())
    g = base_gauge(vb) if any(vb) else F(0)
    if g == 0:
        best = None
        for normal, offset in e0.constraints:
            d = sum(a * b for a, b in zip(normal, vf))
            if d > 0:
                lam = offset / d
                best = lam if best is None else min(best, lam)
        return best
    e1 = spec.fiber(tuple(x / g for x in vb))
    n_vars = 1 + 2 * m  # t, z0, z1
    a_ub, b_ub = [], []
    for normal, offset in e0.constraints:  # A0 z0 <= (1 - t g) b0
        a_ub.append([g * offset] + list(normal) + [F(0)] * m)
        b_ub.append(offset)
    for normal, offset in e1.constraints:  # A1 z1 <= t g b1
        a_ub.append([-g * offset] + [F(0)] * m + list(normal))
        b_ub.append(F(0))
    t_cap = [F(0)] * n_vars
    t_cap[0] = F(1)
    a_ub.append(t_cap)  # t g <= 1 keeps the base point inside the cube
    b_ub.append(F(1) / g)
    a_eq, b_eq = [], []
    for i in range(m):  # z0 + z1 = t vf
        row = [F(0)] * n_vars
        row[0] = -vf[i]
        row[1 + i] = F(1)
        row[1 + m + i] = F(1)
        a_eq.append(row)
        b_eq.append(F(0))
    res = lp.lp_maximize(t_cap, a_ub, b_ub, a_eq, b_eq)
    assert res.status == lp.OPTIMAL
    return res.value


def random_centered_spec(rng):
    lo0, hi0 = -F(rng.randint(1, 3)), F(rng.randint(1, 3))
    lo1, hi1 = -F(rng.randint(1, 3)), F(rng.randint(1, 3))
    return centered_spec(ConvexoidSpec(2, 1, lambda p: interval(
        (lo0 + (lo1 - lo0) * p[0]), (hi0 + (hi1 - hi0) * p[0])
    )))


def test_exit_time_matches_lp_oracle():
    rng = random.Random(19)
    for _ in range(15):
        spec = random_centered_spec(rng)
        direction = [rng.uniform(0, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)]
        got = float(exit_time(spec, direction))
        want = float(exit_time_lp_oracle(spec, direction))
        assert abs(got - want) < 1e-9


def test_star_convexity_scan_never_reenters():
    rng = random.Random(20)
    spec = centered_spec(square_spec())
    for _ in range(300):
        direction = (rng.uniform(0, 1), rng.uniform(-1, 1))
        if direction[0] < 1e-6 and abs(direction[1]) < 1e-6:
            continue
        # the joined body of the constant fiber [-1, 1] is the square, so
        # the ray is inside exactly up to its exit time and never re-enters
        ray = _Ray(spec.fiber, 1, direction)
        t_star = ray.exit_bound()
        for t in sorted(rationalize(rng.uniform(0, 3)) for _ in range(8)):
            tb, tf = t * ray.vb[0], t * ray.vf[0]
            inside = 0 <= tb <= 1 and -1 <= tf <= 1
            assert inside == (t <= t_star)


def test_exit_scale_caps_the_exit_time_below_2_to_the_80():
    spec = centered_spec(square_spec())
    # straight up the fiber [-1, 1] from the bottom center: t* = 1 / vf
    top = F(2**80 - 1)
    assert _Ray(spec.fiber, 1, (F(0), 1 / top)).exit_bound() == top
    assert abs(exit_time(spec, (F(0), 1 / top)) - top) <= EXIT_TOL
    for vf in (F(1, 2**80), F(1, 2**85)):
        with pytest.raises(UnboundedError):
            exit_time(spec, (F(0), vf))


# -- half-ball map ---------------------------------------------------------------------


def test_square_to_half_disk_frozen_values():
    spec = square_spec()
    corner = to_half_ball(spec, (1.0, 1.0))
    assert np.allclose(corner, np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-9)
    for y in (-1.0, -0.3, 0.5, 1.0):
        bottom = to_half_ball(spec, (0.0, y))
        assert abs(bottom[0]) <= 1e-9
        assert abs(bottom[1] - y) <= 1e-9


def test_half_ball_center_fixed_point():
    spec = square_spec()
    assert np.allclose(to_half_ball(spec, (0.0, 0.0)), 0.0, atol=1e-12)
    assert from_half_ball(spec, np.zeros(2)) == (0.0, 0.0)


def test_half_ball_domain_errors():
    spec = square_spec()
    with pytest.raises(DomainError):
        to_half_ball(spec, (2.0, 0.0))
    with pytest.raises(DomainError):
        to_half_ball(spec, (0.5, 1.5))
    with pytest.raises(DomainError):
        from_half_ball(spec, (0.8, 0.8))  # norm > 1


def random_convexoid(rng):
    """Base dims <= 2, fiber dims <= 2, affine-in-base interval fibers."""
    nb = rng.randint(1, 2)
    m = rng.randint(1, 2)
    spans = []
    for _ in range(m):
        lo = F(rng.randint(1, 3))
        hi = F(rng.randint(1, 3))
        drift = F(rng.randint(-1, 1), 2)
        spans.append((lo, hi, drift))

    def oracle(p):
        cons = []
        for axis, (lo, hi, drift) in enumerate(spans):
            shift = drift * p[0]
            e = [F(0)] * m
            e[axis] = F(1)
            cons.append((tuple(e), hi + shift))
            cons.append((tuple(-v for v in e), lo - shift))
        return HPolytope(m, cons)

    return ConvexoidSpec(nb, m, oracle)


def test_half_ball_round_trip_random():
    rng = random.Random(21)
    worst = 0.0
    for _ in range(20):
        spec = random_convexoid(rng)
        hb = HalfBallMap(spec)
        for _ in range(10):
            p = [rng.uniform(0.05, 0.95)] + [
                rng.uniform(-0.9, 0.9) for _ in range(spec.base_dim - 1)
            ]
            fiber = spec.fiber(tuple(F(x).limit_denominator(100) for x in p))
            verts = vertices(fiber)
            weights = [rng.random() for _ in verts]
            total = sum(weights)
            y = [
                sum(w * float(v[i]) for w, v in zip(weights, verts)) / total
                for i in range(spec.fiber_dim)
            ]
            x = tuple(p) + tuple(y)
            h = hb.forward(x)
            assert float(np.linalg.norm(h)) <= 1 + 1e-9
            back = hb.inverse(h)
            worst = max(worst, max(abs(a - b) for a, b in zip(x, back)))
    assert worst < 1e-6


def test_half_ball_bottom_preserved_and_identity_at_ends():
    """Bottom goes to first-coordinate zero; rescale is trivial at 0 and dQ."""
    rng = random.Random(22)
    spec = random_convexoid(rng)
    hb = HalfBallMap(spec)
    for _ in range(20):
        x_rest = [rng.uniform(-0.9, 0.9) for _ in range(spec.base_dim - 1)]
        p = tuple([0.0] + x_rest)
        fiber = spec.fiber(p)
        verts = vertices(fiber)
        y = tuple(
            sum(float(v[i]) for v in verts) / len(verts)
            for i in range(spec.fiber_dim)
        )
        h = hb.forward(p + y)
        assert abs(h[0]) <= 1e-9


def test_half_ball_dq_points_reach_the_sphere():
    spec = square_spec()
    for x in (0.25, 0.75, 1.0):
        h = to_half_ball(spec, (x, 1.0))  # fiber boundary over the base
        assert abs(float(np.linalg.norm(h)) - 1) <= 1e-8
    h = to_half_ball(spec, (1.0, 0.0))  # distinguished boundary of the base
    assert abs(float(np.linalg.norm(h)) - 1) <= 1e-8


def test_half_ball_continuity_modulus_reported():
    spec = square_spec()
    hb = HalfBallMap(spec)
    rng = random.Random(23)
    print()
    for delta in (1e-3, 1e-4, 1e-5):
        worst = 0.0
        for _ in range(30):
            x = (rng.uniform(0.1, 0.9), rng.uniform(-0.9, 0.9))
            x2 = (x[0] + delta, x[1])
            a = hb.forward(x)
            b = hb.forward(x2)
            worst = max(worst, float(np.linalg.norm(a - b)))
        print(f"[soft] half-ball modulus at delta={delta:.0e}: {worst:.2e}")
        assert worst < 100 * delta


def test_half_ball_injective_on_samples():
    spec = square_spec()
    hb = HalfBallMap(spec)
    rng = random.Random(24)
    points = [
        (rng.uniform(0, 1), rng.uniform(-1, 1)) for _ in range(120)
    ]
    images = [hb.forward(x) for x in points]
    for _ in range(2000):
        i, j = rng.randrange(len(points)), rng.randrange(len(points))
        if i == j:
            continue
        gap = max(abs(a - b) for a, b in zip(points[i], points[j]))
        if gap >= 1e-6:
            assert float(np.linalg.norm(images[i] - images[j])) > 0


# -- gluing ---------------------------------------------------------------------------


def identity_phi(x):
    return x


def test_glue_two_half_disks():
    e_spec, f_spec = square_spec(), square_spec()
    samples = [(0.0, y) for y in (-0.9, -0.4, 0.0, 0.3, 0.8)]
    ball = GluedBallMap(
        e_spec, f_spec, identity_phi, identity_phi, bottom_samples=samples
    )
    for x in samples:
        a = ball.forward("E", x)
        b = ball.forward("F", x)
        assert float(np.linalg.norm(a - b)) <= 1e-6
    # shared diameter lands on the equatorial slice
    mid = ball.forward("E", (0.0, 0.5))
    assert abs(mid[0]) <= 1e-6


def test_glue_norms_and_boundary():
    rng = random.Random(25)
    ball = GluedBallMap(
        square_spec(), square_spec(), identity_phi, identity_phi
    )
    for _ in range(60):
        side = rng.choice(["E", "F"])
        x = (rng.uniform(0, 1), rng.uniform(-1, 1))
        out = ball.forward(side, x)
        assert float(np.linalg.norm(out)) <= 1 + 1e-9
    # free boundary points (top of either half) map to the sphere
    for side in ("E", "F"):
        out = ball.forward(side, (1.0, 0.3))
        assert abs(float(np.linalg.norm(out)) - 1) <= 1e-6


def test_glue_round_trip_through_sides():
    rng = random.Random(26)
    ball = GluedBallMap(square_spec(), square_spec(), identity_phi,
                        identity_phi)
    for _ in range(25):
        side = rng.choice(["E", "F"])
        x = (rng.uniform(0.05, 0.95), rng.uniform(-0.9, 0.9))
        out = ball.forward(side, x)
        side2, back = ball.inverse(out)
        if side2 == side:
            assert max(abs(a - b) for a, b in zip(x, back)) < 1e-6
        else:
            # seam points may come back through the partner chart
            assert x[0] < 1e-6 and abs(back[0]) < 1e-6


def test_glue_rejects_wrong_identification():
    def bad_phi(x):
        return (x[0], -0.5 * x[1] + 0.3)

    samples = [(0.0, y) for y in (-0.8, 0.0, 0.8)]
    from grassball.convexoid import GluingError

    with pytest.raises(GluingError):
        GluedBallMap(
            square_spec(),
            square_spec(),
            bad_phi,
            identity_phi,
            bottom_samples=samples,
        )


# -- one radial regauge against the six rescales it replaced --------------------------
# The ball <-> cube rescales of the chart sides and the four cylinder helpers
# of ``GluedBallMap`` were six functions; they are kept here, as they were,
# as the reference oracles of ``regauge`` with the gauges each pairs.  Their
# zero guards differed: ball <-> cube snapped to 0 below 1e-300 and the
# cylinder helpers to the axis below norm 1e-15, where ``regauge`` leaves
# only a gauge of exactly 0 alone.  (``np.linalg.norm`` underflows to 0
# below about 1e-154, so from there down the Euclidean gauge is 0 anyway.)


def ref_cube_of_ball(x):
    x = np.asarray(x, dtype=float)
    sup = float(np.max(np.abs(x))) if x.size else 0.0
    if sup < 1e-300:
        return np.zeros_like(x)
    return x * (float(np.linalg.norm(x)) / sup)


def ref_ball_of_cube(z):
    z = np.asarray(z, dtype=float)
    norm = float(np.linalg.norm(z))
    if norm < 1e-300:
        return np.zeros_like(z)
    return z * (float(np.max(np.abs(z))) / norm)


def ref_half_ball_to_cylinder(h):
    h = np.asarray(h, dtype=float)
    norm = float(np.linalg.norm(h))
    if norm < 1e-15:
        return 0.0, np.zeros(len(h) - 1)
    gauge = max(max(h[0], 0.0), float(np.linalg.norm(h[1:])))
    c = h * (norm / gauge)
    return float(c[0]), c[1:]


def ref_cylinder_to_half_ball(u, w):
    c = np.concatenate(([u], np.asarray(w, dtype=float)))
    norm = float(np.linalg.norm(c))
    if norm < 1e-15:
        return c
    gauge = max(max(c[0], 0.0), float(np.linalg.norm(c[1:])))
    return c * (gauge / norm)


def ref_cylinder_to_ball(a, w):
    c = np.concatenate(([a - 1.0], np.asarray(w, dtype=float)))
    norm = float(np.linalg.norm(c))
    if norm < 1e-15:
        return c
    gauge = max(abs(c[0]), float(np.linalg.norm(c[1:])))
    return c * (gauge / norm)


def ref_ball_to_cylinder(b):
    b = np.asarray(b, dtype=float)
    norm = float(np.linalg.norm(b))
    if norm < 1e-15:
        return 1.0, b[1:]
    gauge = max(abs(b[0]), float(np.linalg.norm(b[1:])))
    c = b * (norm / gauge)
    return float(c[0]) + 1.0, c[1:]


def regauge_forms(norm, sup, cylinder):
    """name -> (oracle, regauge form, guard, threshold), each a function of
    one drawn point x.  The oracle gets x as it did: a point, or the (axis,
    disk) pair of a cylinder, the long cylinder's axis a = 1 + x[0] in
    [0, 2] and shifted back by a - 1 in float.  ``guard`` is the number the
    oracle compared with its threshold."""
    regauge = convexoid.regauge

    def half_ball_to_cylinder(h):
        c = regauge(h, norm, cylinder)
        return c[0], c[1:]

    def long_cylinder(x):
        return np.concatenate(([(1.0 + x[0]) - 1.0], x[1:]))

    def ball_to_cylinder(b):
        c = regauge(b, norm, cylinder)
        return c[0] + 1.0, c[1:]

    euclid = convexoid.norm_gauge
    return {
        "cube_of_ball": (ref_cube_of_ball, lambda x: regauge(x, norm, sup),
                         convexoid.sup_gauge, 1e-300),
        "ball_of_cube": (ref_ball_of_cube, lambda x: regauge(x, sup, norm),
                         euclid, 1e-300),
        "half_ball_to_cylinder": (ref_half_ball_to_cylinder,
                                  half_ball_to_cylinder, euclid, 1e-15),
        "cylinder_to_half_ball": (
            lambda x: ref_cylinder_to_half_ball(x[0], x[1:]),
            lambda x: regauge(x, cylinder, norm), euclid, 1e-15,
        ),
        "cylinder_to_ball": (
            lambda x: ref_cylinder_to_ball(1.0 + x[0], x[1:]),
            lambda x: regauge(long_cylinder(x), cylinder, norm),
            lambda x: euclid(long_cylinder(x)), 1e-15,
        ),
        "ball_to_cylinder": (ref_ball_to_cylinder, ball_to_cylinder, euclid,
                             1e-15),
    }


def gauges():
    return (convexoid.norm_gauge, convexoid.sup_gauge,
            convexoid._cylinder_gauge)


FORMS = regauge_forms(*gauges())


# the forms whose points have a nonnegative first coordinate: the half-ball,
# and the half-cylinder (u = 1 - a on the E side, a - 1 on the F side),
# where the cylinder's gauge is the half-cylinder's
HALF = {"half_ball_to_cylinder", "cylinder_to_half_ball"}


def regauge_points(rng, dims, count):
    """0, signed axis points and seeded random directions in each dimension,
    at radii log-uniform in [1e-15, 1] and, for a fifth of them, in
    [1e-300, 1e-15]."""
    points = []
    for dim in dims:
        points.append(np.zeros(dim))
        for i in range(dim):
            for r in (1.0, 0.5, 1e-8, 1e-15, 1e-200, 1e-300):
                for sign in (1.0, -1.0):
                    points.append(sign * r * np.eye(dim)[i])
        for j in range(count):
            d = rng.normal(size=dim)
            low, high = (-300, -15) if j % 5 == 0 else (-15, 0)
            points.append(d / np.linalg.norm(d) * 10 ** rng.uniform(low, high))
    return points


def flat(out) -> np.ndarray:
    """A form's output as one array: (axis, disk) pairs joined."""
    if isinstance(out, tuple):
        return np.concatenate(([out[0]], out[1]))
    return out


def regauge_mismatches(forms, points) -> dict:
    """name -> the points where a form and its oracle give different floats,
    counting only 0 and the points at or above the oracle's threshold."""
    found = {}
    for name, (oracle, form, guard, threshold) in forms.items():
        for x in points:
            if name in HALF:
                x = np.concatenate(([abs(x[0])], x[1:]))
            if not x.any() or guard(x) >= threshold:
                if not np.array_equal(flat(form(x)), flat(oracle(x))):
                    found.setdefault(name, []).append(x)
    return found


def test_regauge_equals_the_six_rescales_exactly():
    points = regauge_points(np.random.default_rng(27), (2, 3, 4, 5), 500)
    assert len(points) >= 2000
    assert sum(x[0] < 0 for x in points) >= 1000
    assert regauge_mismatches(FORMS, points) == {}
    # below its threshold an oracle snapped to 0 or to the axis and regauge
    # does not: there the two differ by at most a few |x|
    banded = 0
    for name, (oracle, form, guard, threshold) in FORMS.items():
        for x in points:
            if name in HALF:
                x = np.concatenate(([abs(x[0])], x[1:]))
            if x.any() and guard(x) < threshold:
                banded += 1
                gap = float(np.linalg.norm(flat(form(x)) - flat(oracle(x))))
                assert gap <= 3 * float(np.linalg.norm(x)) + 2.3e-16, name
    assert banded >= 1000


def test_regauge_oracle_catches_swapped_gauges(monkeypatch):
    points = regauge_points(np.random.default_rng(28), (2, 3), 40)
    regauge = convexoid.regauge
    # regauge with its two gauges swapped inverts every map
    monkeypatch.setattr(convexoid, "regauge",
                        lambda x, g_from, g_to: regauge(x, g_to, g_from))
    assert set(regauge_mismatches(regauge_forms(*gauges()), points)) \
        == set(FORMS)
    monkeypatch.undo()
    # the half-cylinder's gauge in place of the cylinder's differs only below
    # the bottom, so only the forms that see a negative first coordinate
    # catch it
    norm, sup, _ = gauges()

    def half_cylinder(c):
        return max(max(c[0], 0.0), norm(c[1:]))

    mutant = regauge_forms(norm, sup, half_cylinder)
    assert set(regauge_mismatches(mutant, points)) == {
        "cylinder_to_ball", "ball_to_cylinder"
    }


class _IdentityHalfBall:
    """A half-ball map that is the identity, so that a glued map built on two
    of them is just its cylinder rescales."""

    def forward(self, x):
        return np.asarray(x, dtype=float)

    inverse = forward


def test_glued_map_composes_the_cylinder_rescales_exactly():
    ball = GluedBallMap(square_spec(), square_spec(), identity_phi,
                        identity_phi)
    ball.e_map = ball.f_map = _IdentityHalfBall()
    points = regauge_points(np.random.default_rng(29), (2, 3, 4), 300)
    checked = 0
    for x in points:
        if float(np.linalg.norm(x)) < 1e-15 and x.any():
            continue  # the oracles' snap band, see above
        checked += 1
        h = np.concatenate(([abs(x[0])], x[1:]))
        u, w = ref_half_ball_to_cylinder(h)
        assert np.array_equal(ball.forward("E", h),
                              ref_cylinder_to_ball(1.0 - u, w))
        assert np.array_equal(ball.forward("F", h),
                              ref_cylinder_to_ball(1.0 + u, w))
        a, w = ref_ball_to_cylinder(x)
        side, got = ball.inverse(x)
        if a <= 1.0:
            assert side == "E"
            assert np.array_equal(got, ref_cylinder_to_half_ball(1.0 - a, w))
        else:
            assert side == "F"
            assert np.array_equal(got, ref_cylinder_to_half_ball(a - 1.0, w))
    assert checked >= 700


# -- closed forms against their LP forms ----------------------------------------------
# The library computes boundedness, exit times and radial functions in closed
# form.  Each oracle below is the exact LP form that these replaced, kept
# here as an independent reference; every comparison is exact equality.


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), F(0))


def recession_lp_oracle(poly):
    """A nonzero d with normal . d <= 0 for every constraint, or None.

    Maximizes each coordinate, with either sign, over that cone cut by the
    unit box: 2 * dim exact LPs.
    """
    m = poly.dim
    box = [[F(int(i == j)) for j in range(m)] for i in range(m)]
    a_ub = [list(n) for n, _ in poly.constraints] + box + [
        [-v for v in row] for row in box
    ]
    b_ub = [F(0)] * len(poly.constraints) + [F(1)] * (2 * m)
    for i in range(m):
        for sign in (1, -1):
            obj = [F(0)] * m
            obj[i] = F(sign)
            res = lp.lp_maximize(obj, a_ub, b_ub)
            if res.status == lp.OPTIMAL and res.value > 0:
                return res.x
    return None


def member_lp_oracle(spec, direction, t):
    """Whether t * direction lies in the joined body, by one exact LP.

    Off the ends of the join, y in (1 - s) E0 + s E1 becomes feasibility in
    y1 alone once y0 = (y - s y1) / (1 - s) is substituted.
    """
    v = rationalize_point(direction)
    nb = spec.base_dim
    vb, vf = v[:nb], v[nb:]
    p = tuple(t * x for x in vb)
    if t < 0 or not spec.in_base(p):
        return False
    y = tuple(t * x for x in vf)
    g = base_gauge(vb) if any(vb) else F(0)
    s = t * g
    e0 = spec.fiber(spec.origin())
    if s == 0:
        return e0.contains_point(y)
    e1 = spec.fiber(tuple(x / g for x in vb))
    if s == 1:
        return e1.contains_point(y)
    a_ub = [[-s * a for a in n] for n, _ in e0.constraints]
    b_ub = [(1 - s) * o - dot(n, y) for n, o in e0.constraints]
    a_ub += [list(n) for n, _ in e1.constraints]
    b_ub += [o for _, o in e1.constraints]
    return lp.lp_feasible(a_ub, b_ub)


def bisection_lp_oracle(spec, direction):
    """The dyadic exit scale: doubling, then bisection to EXIT_TOL, with an
    LP membership test at every step."""
    hi = F(1)
    while member_lp_oracle(spec, direction, hi):
        hi *= 2
    lo = hi / 2 if hi > 1 else F(0)
    while hi - lo > EXIT_TOL:
        mid = (lo + hi) / 2
        if member_lp_oracle(spec, direction, mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def lambda_joined_lp_oracle(e0, e1, s, y):
    """sup{l : l y in (1 - s) E0 + s E1}, one exact LP in (l, y1)."""
    a_ub = [[dot(n, y)] + [-s * a for a in n] for n, _ in e0.constraints]
    b_ub = [(1 - s) * o for _, o in e0.constraints]
    a_ub += [[F(0)] + list(n) for n, _ in e1.constraints]
    b_ub += [o for _, o in e1.constraints]
    res = lp.lp_maximize([F(1)] + [F(0)] * len(y), a_ub, b_ub)
    assert res.status == lp.OPTIMAL
    return res.value


def segment(a, b):
    """H-representation of the segment [a, b] in dimension 2 or 3."""
    a, b = tuple(map(F, a)), tuple(map(F, b))
    d = tuple(y - x for x, y in zip(a, b))
    if len(d) == 2:
        normals = [(-d[1], d[0])]
    else:
        normals = [
            n for n in (
                (F(0), -d[2], d[1]), (d[2], F(0), -d[0]), (-d[1], d[0], F(0))
            ) if any(n)
        ][:2]
    cons = [(d, dot(d, b)), (tuple(-x for x in d), -dot(d, a))]
    for n in normals:
        cons.append((n, dot(n, a)))
        cons.append((tuple(-x for x in n), -dot(n, a)))
    return HPolytope(len(d), cons)


# Facet normals and per-facet offset slopes in the cube coordinate z; every
# offset stays >= 1/2, so the fibers are bounded with the origin inside.
FIBER_FAMILIES = {
    1: (((F(2),), F(1, 4)), ((F(-3),), F(-1, 3))),
    2: (
        ((F(1), F(0)), F(1, 4)),
        ((F(1), F(1)), F(-1, 8)),
        ((F(0), F(1)), F(1, 8)),
        ((F(-1), F(0)), F(-1, 4)),
        ((F(-1), F(-1)), F(0)),
        ((F(0), F(-1)), F(1, 3)),
    ),
    3: (
        ((F(1), F(0), F(0)), F(1, 4)),
        ((F(-1), F(0), F(0)), F(-1, 8)),
        ((F(0), F(1), F(0)), F(1, 8)),
        ((F(0), F(-1), F(0)), F(0)),
        ((F(0), F(0), F(1)), F(-1, 4)),
        ((F(0), F(0), F(-1)), F(1, 3)),
        ((F(1), F(1), F(1)), F(1, 5)),
        ((F(-1), F(1), F(0)), F(-1, 6)),
    ),
}
SEGMENT_ENDS = {
    2: ((F(-1), F(1, 2)), (F(3, 2), F(1))),
    3: ((F(-1), F(1, 2), F(0)), (F(1), F(1), F(1, 3))),
}


def degenerate_spec(m):
    """Base (tau, z), fibers (1 - tau) H(z) in dimension m.

    The rays that leave through the top tau = 1 join E0 to a point (the
    fiber there scales to {0}); in dimension >= 2 those that leave through
    z = 1 join it to a segment.
    """
    def oracle(p):
        tau, z = p
        if m > 1 and z == 1:
            return segment(*SEGMENT_ENDS[m])
        return HPolytope(m, [
            (n, (1 + slope * z) * (1 - tau))
            for n, slope in FIBER_FAMILIES[m]
        ])

    return ConvexoidSpec(2, m, oracle)


def oracle_directions(rng, m, count):
    """Rays through the top (a point E1), the z = 1 side (a segment E1), the
    z = -1 side, straight up, and inside the bottom center's fiber."""
    def r(lo, hi):
        return F(rng.randint(lo * 8, hi * 8), 8)

    dirs = [
        (F(1), F(1, 2)) + tuple(r(-1, 1) for _ in range(m)),
        (F(1, 2), F(1)) + tuple(r(-1, 1) for _ in range(m)),
        (F(1, 4), F(-1)) + tuple(r(-1, 1) for _ in range(m)),
        (F(1), F(0)) + (F(0),) * m,
        (F(0), F(0)) + tuple(F(1, i + 2) for i in range(m)),
    ]
    while len(dirs) < count:
        vb = (r(0, 1), r(-1, 1))
        vf = tuple(r(-1, 1) for _ in range(m))
        if any(vb + vf):
            dirs.append(vb + vf)
    return dirs


@pytest.mark.parametrize("m", [1, 2, 3])
def test_exit_time_closed_form_equals_lp_exactly(m):
    spec = degenerate_spec(m)
    for direction in oracle_directions(random.Random(40 + m), m, 12):
        ray = _Ray(spec.fiber, spec.base_dim, direction)
        t_star = ray.exit_bound()
        assert t_star == exit_time_lp_oracle(spec, direction)
        assert member_lp_oracle(spec, direction, t_star)
        assert member_lp_oracle(spec, direction, t_star * F(999, 1000))
        assert not member_lp_oracle(spec, direction, t_star * F(1001, 1000))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_exit_scale_equals_lp_bisection(m):
    spec = degenerate_spec(m)
    for direction in oracle_directions(random.Random(50 + m), m, 6):
        assert exit_time(spec, direction) == bisection_lp_oracle(
            spec, direction
        )


def dyadic_halving_oracle(t_star):
    """The exit scale's rounding as a loop: halve the bracket width until it
    is at most EXIT_TOL, then take the midpoint of the cell holding t*."""
    t_star = max(t_star, F(0))
    hi = 1 << int(t_star).bit_length()
    lo = hi // 2
    step = F(hi - lo)
    while step > EXIT_TOL:
        step /= 2
    return lo + (t_star - lo) // step * step + step / 2


class FixedExitRay(_Ray):
    """A ray whose exact exit time is given, to test the rounding alone."""

    def __init__(self, t_star):
        self.t_star = t_star

    def exit_bound(self):
        return self.t_star


def test_exit_scale_dyadic_step_matches_halving_loop():
    rng = random.Random(55)
    values = [F(0), F(-1), F(-3, 7), F(1), F(2**79), F(2**80 - 1),
              F(2**80 - 1, 2), EXIT_TOL, EXIT_TOL / 3, 1 - EXIT_TOL]
    for _ in range(1500):
        scale = 2 ** rng.randint(-40, 79)
        values.append(F(rng.randint(-10**6, 10**6), 10**6) * scale)
        values.append(F(rng.randint(0, 2**40), 2 ** rng.randint(0, 45)))
        values.append(F(rng.randint(1, 10**15), rng.randint(1, 10**15)))
    for t_star in values:
        assert FixedExitRay(t_star).exit_scale() == dyadic_halving_oracle(
            t_star
        ), t_star
    with pytest.raises(UnboundedError):
        FixedExitRay(F(2**80)).exit_scale()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lambda_joined_equals_lp(m):
    rng = random.Random(60 + m)
    hb = HalfBallMap(degenerate_spec(m))
    e0 = hb.centered_fiber(hb.spec.origin())
    tops = [(F(1), F(1, 3)), (F(1, 2), F(-1))]
    if m > 1:
        tops.append((F(3, 4), F(1)))  # the segment fiber
    for q in tops:
        e1 = hb.centered_fiber(q)
        for s in (F(1, 5), F(1, 2), F(7, 8)):
            p = tuple(s * x for x in q)
            for _ in range(3):
                y = tuple(F(rng.randint(-8, 8), 8) for _ in range(m))
                if not any(y):
                    continue
                assert hb._lambda_joined(p, y) == lambda_joined_lp_oracle(
                    e0, e1, s, y
                )


def test_vertices_unbounded_lineality_and_pointed_cones():
    def poly(*normals):
        return HPolytope(len(normals[0]), [(n, F(1)) for n in normals])

    unbounded = [
        poly((F(1),), (F(2),)),  # 1-D: one sign only
        poly((F(1), F(0)), (F(-1), F(0))),  # strip: lineality
        poly((F(-1), F(0)), (F(0), F(-1)), (F(-1), F(-1))),  # pointed
        poly((F(0), F(0), F(1)), (F(0), F(0), F(-1))),  # slab: rank 1
        poly((F(1), F(0), F(0)), (F(0), F(1), F(0)),
             (F(-1), F(-1), F(0))),  # triangular prism: rank 2
        poly((F(1), F(0), F(-1)), (F(-1), F(0), F(-1)),
             (F(0), F(1), F(-1)), (F(0), F(-1), F(-1))),  # pointed cone
    ]
    bounded = [
        poly((F(1),), (F(-1),)),
        poly((F(-1), F(0)), (F(0), F(-1)), (F(1), F(1))),
        poly((F(1), F(0), F(-1)), (F(-1), F(0), F(-1)),
             (F(0), F(1), F(-1)), (F(0), F(-1), F(-1)),
             (F(0), F(0), F(1))),  # the cone closed into a pyramid
    ]
    for p in unbounded:
        assert recession_lp_oracle(p) is not None
        with pytest.raises(UnboundedError):
            vertices(p)
    for p in bounded:
        assert recession_lp_oracle(p) is None
        assert vertices(p)


def test_vertices_boundedness_matches_lp_on_random_normals():
    rng = random.Random(41)
    outcomes = set()
    for _ in range(60):
        m = rng.randint(1, 3)
        size = rng.randint(1, 2 * m + 2)
        normals = set()
        while len(normals) < size:
            n = tuple(F(rng.randint(-2, 2)) for _ in range(m))
            if any(n):
                normals.add(n)
        p = HPolytope(m, [(n, F(rng.randint(1, 3))) for n in sorted(normals)])
        want = recession_lp_oracle(p) is not None
        try:
            vertices(p)
            got = False
        except UnboundedError:
            got = True
        assert got == want
        outcomes.add((m, got))
    assert len(outcomes) == 6  # both outcomes seen in every dimension


# -- no LP on the chart path ---------------------------------------------------------


def test_chart_and_half_ball_maps_run_no_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an LP ran on the chart path")

    monkeypatch.setattr(lp, "solve_lp", refuse)
    rng = random.Random(42)
    chart = chamber.BallChart(2, 4)  # fresh, so its gluing check runs here
    for _ in range(3):
        point = random_positive_point(rng, 2, 4)
        back = chart.inverse(chart.forward(point))
        assert max(
            abs(float(point.rho.coefficient(k) - back.rho.coefficient(k)))
            for k in set(point.rho.support()) | set(back.rho.support())
        ) < 1e-6
    spec = degenerate_spec(2)
    for x in [(0.3, 0.2, 0.1, -0.2), (0.0, -0.5, 0.2, 0.3), (0.6, 0.9, 0.0, 0.0)]:
        back = from_half_ball(spec, to_half_ball(spec, x))
        assert max(abs(a - b) for a, b in zip(x, back)) < 1e-6


# -- the integer polytope layer against its Fraction form ----------------------------
# ``vertices``, the boundedness check, the planar barycenter and the hull
# centroid compute over integer rows.  The oracles below are their Fraction
# forms, kept as the reference: every comparison is on ``repr``, so values,
# order and the ``Fraction`` type all have to agree.


def reference_solve_square(rows, rhs):
    """The solution of a square system, or None if it is singular."""
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    size = len(m)
    for c in range(size):
        pivot = next((i for i in range(c, size) if m[i][c] != 0), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(size):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return tuple(row[-1] for row in m)


def reference_kernel_line(rows, dim):
    if dim == 1:
        return (F(1),)
    if dim == 2:
        (a, b), = rows
        return (-b, a)
    if dim == 3:
        (a, b) = rows
        r = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
        return r if any(r) else None
    basis = linalg.kernel_basis(rows, dim)
    return basis[0] if len(basis) == 1 else None


def reference_is_unbounded(poly):
    normals = [n for n, _ in poly.constraints]
    independent = False
    for rows in itertools.combinations(normals, poly.dim - 1):
        r = reference_kernel_line(rows, poly.dim)
        if r is None:
            continue
        independent = True
        dots = [dot(n, r) for n in normals]
        if all(d <= 0 for d in dots) or all(d >= 0 for d in dots):
            return True
    return not independent


def reference_vertices(poly):
    if poly.dim == 0:
        return [()]
    if reference_is_unbounded(poly):
        raise UnboundedError("polytope is unbounded")
    found = []
    for subset in itertools.combinations(poly.constraints, poly.dim):
        point = reference_solve_square([n for n, _ in subset],
                                       [o for _, o in subset])
        if point is not None and point not in found \
                and poly.contains_point(point):
            found.append(point)
    return found


def reference_polygon_centroid(points):
    pts = sorted(set(points))

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
    ordered = lower[:-1] + upper[:-1] if len(pts) > 2 else pts
    area2 = cx = cy = F(0)
    for (x0, y0), (x1, y1) in zip(ordered, ordered[1:] + ordered[:1]):
        cr = x0 * y1 - x1 * y0
        area2 += cr
        cx += (x0 + x1) * cr
        cy += (y0 + y1) * cr
    if area2 == 0:
        return None
    return cx / (3 * area2), cy / (3 * area2)


def reference_facet_loop(verts3, normal):
    """Vertices of a planar facet in angular order around their mean."""
    drop = max(range(3), key=lambda i: abs(normal[i]))
    keep = [i for i in range(3) if i != drop]
    flat = [(v[keep[0]], v[keep[1]]) for v in verts3]
    cx = sum(p[0] for p in flat) / len(flat)
    cy = sum(p[1] for p in flat) / len(flat)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def compare(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        cr = (a[0] - cx) * (b[1] - cy) - (a[1] - cy) * (b[0] - cx)
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    order = sorted(range(len(flat)), key=functools.cmp_to_key(
        lambda i, j: compare(flat[i], flat[j])
    ))
    return [verts3[i] for i in order]


def reference_tet_volume(a, b, c, d):
    return abs(linalg.det([[q[i] - a[i] for i in range(3)]
                           for q in (b, c, d)])) / 6


def reference_orthogonalize(rows):
    """Gram-Schmidt without normalization; dependent rows are dropped."""
    out = []
    for row in rows:
        vec = list(row)
        for prev in out:
            coeff = dot(vec, prev) / dot(prev, prev)
            vec = [x - coeff * y for x, y in zip(vec, prev)]
        if any(vec):
            out.append(tuple(vec))
    return out


def reference_barycenter(poly, verts):
    """The Fraction centroid: the shoelace in the plane, and in dimension 3
    a fan of cones from the least vertex over the facets, each facet (a
    vertex set, whichever constraints cut it out) counted once."""
    if not verts:
        raise DegenerateError("empty polytope")
    m = poly.dim
    if m == 0:
        return ()
    diffs = [tuple(v[i] - verts[0][i] for i in range(m)) for v in verts[1:]]
    if linalg.rank(diffs) < m:
        raise DegenerateError("polytope is not full-dimensional")
    if m == 1:
        return ((min(verts)[0] + max(verts)[0]) / 2,)
    if m == 2:
        return reference_polygon_centroid(verts)
    if m == 3:
        apex = min(verts)
        total = F(0)
        acc = [F(0)] * 3
        facets = set()
        for normal, offset in poly.constraints:
            on_facet = [v for v in verts if dot(normal, v) == offset]
            if len(on_facet) < 3 or apex in on_facet \
                    or frozenset(on_facet) in facets:
                continue
            facets.add(frozenset(on_facet))
            loop = reference_facet_loop(on_facet, normal)
            for b, c in zip(loop[1:], loop[2:]):
                vol = reference_tet_volume(apex, loop[0], b, c)
                total += vol
                for i in range(3):
                    acc[i] += vol * (apex[i] + loop[0][i] + b[i] + c[i]) / 4
        if total == 0:
            raise DegenerateError("polytope has zero volume")
        return tuple(a / total for a in acc)
    raise ValueError("barycenter implemented for fiber dimension <= 3")


def reference_hull_centroid(poly, verts):
    if not verts:
        raise DegenerateError("empty polytope")
    if poly.dim == 0 or len(verts) == 1:
        return verts[0]
    base = verts[0]
    diffs = [tuple(v[i] - base[i] for i in range(poly.dim)) for v in verts[1:]]
    frame = reference_orthogonalize(diffs)
    d = len(frame)
    if d == poly.dim:
        return reference_barycenter(poly, verts)
    coords = [
        tuple(dot(tuple(v[i] - base[i] for i in range(poly.dim)), f)
              / dot(f, f) for f in frame)
        for v in verts
    ]
    if d == 1:
        mid = ((min(coords)[0] + max(coords)[0]) / 2,)
    elif d == 2:
        mid = reference_polygon_centroid(coords)
    else:
        raise ValueError("degenerate centroid implemented for hull dim <= 2")
    out = list(base)
    for c, f in zip(mid, frame):
        for i in range(poly.dim):
            out[i] += c * f[i]
    return tuple(out)


def random_offset(rng):
    """0, a small rational, or a float rationalized to a 12-digit denominator."""
    pick = rng.random()
    if pick < 0.15:
        return F(0)
    if pick < 0.6:
        return F(rng.randint(1, 12), rng.randint(1, 6))
    return rationalize(rng.uniform(0.05, 3.0))


def random_normal(rng, dim):
    while True:
        n = tuple(F(rng.randint(-2, 2), rng.choice((1, 1, 2, 3)))
                  for _ in range(dim))
        if any(n):
            return n


def random_polytope(rng, dim):
    """Constraints of a random kind, with redundant, duplicate, proportional
    and antiparallel rows mixed in, in a random order.

    Most start from a box or a simplex around the origin, with extra cuts
    through one of its corners (so more than dim constraints are tight
    there) or at random offsets; the rest are a few random rows, mostly
    unbounded.  An antiparallel copy with the same offset makes the body
    flat, one with a smaller offset makes it empty.
    """
    cons = []
    base = rng.random()
    if base < 0.45:
        lo = [-random_offset(rng) for _ in range(dim)]
        hi = [random_offset(rng) + F(1, 4) for _ in range(dim)]
        for i in range(dim):
            e = tuple(F(int(i == j)) for j in range(dim))
            cons.append((e, hi[i]))
            cons.append((tuple(-x for x in e), -lo[i]))
        corner = tuple(rng.choice((lo[i], hi[i])) for i in range(dim))
    elif base < 0.85:
        for i in range(dim):
            e = tuple(F(-int(i == j)) for j in range(dim))
            cons.append((e, random_offset(rng)))
        top = random_offset(rng) + 1
        cons.append(((F(1),) * dim, top))
        corner = tuple(-o for _, o in cons[:dim])
    else:
        corner = None
        for _ in range(rng.randint(1, dim + 1)):
            cons.append((random_normal(rng, dim), random_offset(rng)))
    for _ in range(rng.randint(0, 2)):
        n = random_normal(rng, dim)
        if corner is not None and rng.random() < 0.5:
            cons.append((n, dot(n, corner)))  # through a corner
        elif rng.random() < 0.3:
            cons.append((n, F(10**6)))  # redundant
        else:
            cons.append((n, random_offset(rng)))
    for _ in range(rng.randint(0, 2)):
        n, o = rng.choice(cons)
        pick = rng.random()
        if pick < 0.3:
            cons.append((n, o))  # duplicate
        elif pick < 0.6:
            c = F(rng.randint(1, 7), rng.randint(1, 5))
            cons.append((tuple(c * x for x in n), c * o))  # proportional
        elif pick < 0.85:
            cons.append((tuple(-x for x in n), -o))  # antiparallel: flat
        else:
            cons.append((tuple(-x for x in n), -o - F(1, 7)))  # empty
    rng.shuffle(cons)
    return HPolytope(dim, cons)


def polytope_outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:  # UnboundedError, DegenerateError, dim > 3
        return type(exc).__name__


@pytest.mark.parametrize("dim, count", [(1, 300), (2, 900), (3, 300), (4, 12)])
def test_polytope_layer_matches_fraction_oracle(dim, count):
    rng = random.Random(70 + dim)
    seen = collections.Counter()
    for _ in range(count):
        poly = random_polytope(rng, dim)
        got = polytope_outcome(vertices, poly)
        assert got == polytope_outcome(reference_vertices, poly)
        if got == "UnboundedError":
            seen["unbounded"] += 1
            for fn in (barycenter, convexoid._hull_centroid):
                assert polytope_outcome(fn, poly) == "UnboundedError"
            continue
        verts = vertices(poly)
        want = reference_vertices(poly)
        assert all(type(x) is F for v in verts for x in v)
        assert len(set(verts)) == len(verts)
        if any(sum(dot(n, v) == o for n, o in poly.constraints) > dim
               for v in verts):
            seen["overdetermined"] += 1
        assert polytope_outcome(barycenter, poly) == polytope_outcome(
            reference_barycenter, poly, want)
        assert polytope_outcome(convexoid._hull_centroid, poly) == \
            polytope_outcome(reference_hull_centroid, poly, want)
        if not verts:
            seen["empty"] += 1
        elif linalg.rank(
            [tuple(a - b for a, b in zip(v, verts[0])) for v in verts]
        ) < dim:
            seen["flat"] += 1
        else:
            seen["full"] += 1
    # every kind of input turns up (in 1-D a flat body is a point); the few
    # 4-D ones take the kernel_basis branch of the boundedness check
    kinds = {"unbounded", "full"}
    if dim < 4:
        kinds |= {"empty", "flat"}
    if 1 < dim < 4:
        kinds.add("overdetermined")
    assert kinds <= set(seen), seen


def test_integer_vertices_keep_order_and_exact_values():
    """Vertices with denominators, met by more constraints than dim, or by
    proportional rows: the order is that of the first subset meeting each
    vertex, each vertex appears once, and every value is exact."""
    third = F(1, 3)
    pyramid = HPolytope(3, [
        ((F(0), F(0), F(-1)), F(0)),
        ((F(2), F(0), F(1)), 2 * third),
        ((F(-1), F(0), F(1, 2)), third),
        ((F(0), F(3), F(3, 2)), third * 3),
        ((F(0), F(-1), F(1, 2)), third),
        ((F(1), F(1), F(1)), F(10**6)),
    ])
    assert vertices(pyramid) == reference_vertices(pyramid)
    assert (F(0), F(0), 2 * third) in vertices(pyramid)
    assert len(vertices(pyramid)) == 5
    assert barycenter(pyramid) == reference_barycenter(
        pyramid, reference_vertices(pyramid))
    triangle = HPolytope(2, [
        ((F(-3), F(0)), F(1)),
        ((F(0), F(-5)), F(2)),
        ((F(7), F(7)), F(3)),
    ])
    assert vertices(triangle) == [
        (F(-1, 3), F(-2, 5)), (F(-1, 3), F(16, 21)), (F(29, 35), F(-2, 5)),
    ]
    assert barycenter(triangle) == (F(17, 315), F(-4, 315))
    proportional = HPolytope(1, [
        ((F(2),), F(2)), ((F(-1, 3),), F(0)), ((F(1),), F(1)), ((F(-4),), F(0)),
    ])
    assert vertices(proportional) == [(F(1),), (F(0),)]


# -- integer rationalize, support and interval centroid against Fraction forms -------


def float_samples(rng):
    """Floats of many magnitudes and both signs, dyadics, subnormals, +-0.0,
    floats with small denominators, and numpy float64s."""
    out = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-12,
           0.5 + 1e-13, 1 / 3, -2 / 7, 1e12 + 0.5, 2.0 ** 52 + 1, 1.7976931348623157e308]
    for _ in range(6000):
        out.append(rng.uniform(-1, 1) * 10.0 ** rng.randint(-15, 15))
    for _ in range(3000):
        out.append(rng.uniform(-2, 2))
    for _ in range(3000):
        out.append(rng.randint(-2**20, 2**20) / 2.0 ** rng.randint(0, 60))
    for _ in range(2000):
        out.append(rng.randint(1, 2**30) * 5e-324 * rng.choice((1, -1)))
    for _ in range(3000):
        out.append(rng.randint(-10**6, 10**6) / rng.randint(1, 10**7))
    for _ in range(3000):
        out.append(np.float64(rng.gauss(0, 1)))
    return out


def rationalize_outcome(fn, value):
    try:
        return repr(fn(value))
    except (ValueError, OverflowError, TypeError) as exc:
        return type(exc).__name__


def stdlib_rationalize(value):
    return Fraction(value).limit_denominator(convexoid.RATIONALIZE_DEN)


def test_rationalize_floats_match_limit_denominator():
    values = float_samples(random.Random(91))
    assert len(values) >= 20000
    assert any(type(v) is np.float64 for v in values)
    for v in values:
        got = rationalize(v)
        assert type(got) is F
        assert got == stdlib_rationalize(v), v
    for v in (float("nan"), float("inf"), float("-inf"), np.float64("nan"),
              np.float64("-inf")):
        assert rationalize_outcome(rationalize, v) == \
            rationalize_outcome(stdlib_rationalize, v)
    assert rationalize_outcome(rationalize, float("nan")) == "ValueError"
    assert rationalize_outcome(rationalize, float("inf")) == "OverflowError"
    # inputs that are not floats keep the Fraction path
    for v in (decimal.Decimal("0.1234567890123456789"),
              "0.3333333333333333333", np.float32(0.1)):
        assert rationalize_outcome(rationalize, v) == \
            rationalize_outcome(stdlib_rationalize, v)
    assert rationalize(F(7, 3)) == F(7, 3) and rationalize(5) == F(5)


@pytest.mark.parametrize("den", [1, 2, 3, 10, 1000])
def test_rationalize_tie_rule_matches_the_stdlib(monkeypatch, den):
    """With a small denominator bound, midpoints between the two candidate
    bounds are floats, and the stdlib keeps the convergent on a tie."""
    monkeypatch.setattr(convexoid, "RATIONALIZE_DEN", den)
    rng = random.Random(92 + den)
    values = [k / 2 ** m for m in range(1, 12) for k in range(-40, 41)]
    values += [rng.uniform(-5, 5) for _ in range(2000)]
    for v in values:
        assert rationalize(v) == Fraction(v).limit_denominator(den), v
    if den == 1:
        assert rationalize(0.5) == F(0) and rationalize(-1.5) == F(-2)


def test_support_matches_fraction_max_dot():
    rng = random.Random(93)
    checked = collections.Counter()
    for dim in (1, 2, 3):
        for _ in range(150):
            poly = random_polytope(rng, dim)
            try:
                verts = reference_vertices(poly)
            except UnboundedError:
                continue
            us = [random_normal(rng, dim) for _ in range(4)]
            us += [n for n, _ in poly.constraints[:2]]
            us.append(tuple(rng.randint(-3, 3) for _ in range(dim)))
            for u in us:
                if not verts:
                    with pytest.raises(DegenerateError, match="empty polytope"):
                        convexoid._support(poly, u)
                    checked["empty"] += 1
                    continue
                want = max(dot(u, v) for v in verts)
                got = convexoid._support(poly, u)
                assert type(got) is F and got == want
                checked["bounded"] += 1
            if verts:
                shift = (F(rng.randint(1, 5), rng.randint(1, 4)),) + tuple(
                    F(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(dim - 1))
                moved = poly.translated(shift)
                assert "integer vertices" in poly._cache
                assert "integer vertices" not in moved._cache
                for u in us:
                    assert convexoid._support(moved, u) == max(
                        dot(u, tuple(a + b for a, b in zip(v, shift)))
                        for v in verts)
    assert checked["bounded"] > 500 and checked["empty"] > 0, checked


def test_interval_centroid_in_closed_form():
    """The midpoint of an interval without its vertices, equal to the
    vertex path on points, with empty and unbounded intervals raising the
    same errors."""
    cases = {
        "interval": [((F(2),), F(3)), ((F(-1, 3),), F(1, 5)),
                     ((F(1),), F(7))],
        "point": [((F(1),), F(2, 3)), ((F(-3),), F(-2))],
        "proportional": [((F(2),), F(2)), ((F(-1, 3),), F(0)),
                         ((F(1),), F(1)), ((F(-4),), F(0))],
        "empty": [((F(1),), F(0)), ((F(-1),), F(-1, 2))],
        "above only": [((F(1),), F(1)), ((F(2),), F(5))],
        "below only": [((F(-1),), F(1))],
        "no rows": [],
    }
    expected = {
        "interval": F(9, 20),  # [-3/5, 3/2]
        "point": F(2, 3),
        "proportional": F(1, 2),
    }
    unbounded = ("above only", "below only", "no rows")
    for name, cons in cases.items():
        poly = HPolytope(1, cons)
        want = "UnboundedError" if name in unbounded else polytope_outcome(
            reference_hull_centroid, poly, reference_vertices(poly))
        assert polytope_outcome(centroid, poly) == want, name
        if name in expected:
            assert centroid(poly) == (expected[name],)
            assert "vertices" not in poly._cache  # the vertices stay lazy
            # a fresh enumeration on the centered copy gives the carried order
            moved = [tuple(x - c for x, c in zip(v, centroid(poly)))
                     for v in reference_vertices(poly)]
            assert vertices(centered(poly)) == moved
    assert polytope_outcome(centroid, HPolytope(1, cases["empty"])) == \
        "DegenerateError"
