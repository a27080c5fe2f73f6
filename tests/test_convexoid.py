"""Polytope primitives and the half-ball / gluing maps."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from grassball import chamber, lp
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
    assert abs(float(exit_time(spec, (1.0, 0.0)).t) - 1) < 1e-9
    assert abs(float(exit_time(spec, (0.0, 1.0)).t) - 1) < 1e-9
    diag = 1 / math.sqrt(2)
    assert abs(float(exit_time(spec, (diag, diag)).t) - math.sqrt(2)) < 1e-8


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
        got = float(exit_time(spec, direction).t)
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
    assert abs(exit_time(spec, (F(0), 1 / top)).t - top) <= EXIT_TOL
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
        assert exit_time(spec, direction).t == bisection_lp_oracle(
            spec, direction
        )


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
