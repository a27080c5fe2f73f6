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
from grassball.sampling import random_nonneg_point, random_positive_point
from grassball.convexoid import (
    ConvexoidSpec,
    DegenerateError,
    DomainError,
    GluedBallMap,
    HalfBallMap,
    HPolytope,
    UnboundedError,
    _JoinedBody,
    barycenter,
    base_gauge,
    centroid,
    exit_time,
    from_half_ball,
    radial_project_base,
    rationalize,
    rationalize_point,
    to_half_ball,
    vertices,
)
from moved_polytopes import moved, moved_fraction_form

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


@functools.cache
def centered(poly):
    """poly moved to centroid zero (``moved``), one copy per polytope, so
    that a fiber read twice gives the same copy."""
    return moved(poly, 1, [-c for c in centroid(poly)])


def centered_spec(spec):
    """The same convexoid with every fiber moved to centroid zero."""
    return ConvexoidSpec(
        spec.base_dim, spec.fiber_dim, lambda p: centered(spec.fiber(p))
    )


def centered_fiber(spec, q):
    return centered(spec.fiber(q))


def joined_exit_time(fiber_at, nb, direction):
    """Exit time of the ray along ``direction``, whose base part lies in
    the base cube, from the joined body of the fibers ``fiber_at`` reads."""
    v = rationalize_point(direction)
    body = _JoinedBody(fiber_at, v[:nb])
    return body.exit_time(*convexoid._integer_vector(v))


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


# -- scaled copies -------------------------------------------------------------


def scaled_copies(poly):
    """Scaled images of poly, by rational factors, one of them 1."""
    return [poly.scaled(F(3, 2)), poly.scaled(F(1, 3)), poly.scaled(1),
            poly.scaled(F(2, 5)).scaled(F(7, 4))]


def test_moved_polytope_caches_equal_a_fresh_computation():
    rng = random.Random(43)
    polys = [interval(-1, 3), interval(F(1, 2), F(7, 3)), box2(-1, 2, 0, 1),
             flat_segment()]
    polys += [random_bounded_3d(rng) for _ in range(4)]
    for poly in polys:
        vertices(poly)
        centroid(poly)
        for copy in scaled_copies(poly):
            # the copies come from the source, not from a new computation
            assert "integer vertices" in copy._cache
            assert "centroid" in copy._cache
            fresh = HPolytope(copy.dim, copy.constraints)
            assert vertices(copy) == vertices(fresh)  # same order, too
            assert centroid(copy) == centroid(fresh)


def test_scaling_by_one_returns_the_polytope_itself():
    rng = random.Random(45)
    polys = [interval(-1, 3), box2(-1, 2, 0, 1), flat_segment(),
             random_bounded_3d(rng)]
    for poly in polys:
        for same in (poly.scaled(1), poly.scaled(F(3, 3)), poly.scaled(1.0)):
            assert same is poly
        assert poly.scaled(F(2, 3)) is not poly
    with pytest.raises(ValueError, match="nonnegative"):
        interval(-1, 3).scaled(-1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scaled_zero_of_empty_polytope_does_not_depend_on_call_order(dim):
    """A box cut by a row that misses it is empty, and by 0 it scales to the
    point 0 whether or not its vertices were read first."""
    rows = []
    for i in range(dim):
        e = tuple(F(int(j == i)) for j in range(dim))
        rows += [(e, F(1)), (tuple(-x for x in e), F(1))]
    rows.append((tuple(F(-1) for _ in range(dim)), F(-dim - 1)))
    cold, warm = HPolytope(dim, rows), HPolytope(dim, rows)
    assert vertices(warm) == []
    point = [(F(0),) * dim]
    assert vertices(cold.scaled(0)) == vertices(warm.scaled(0)) == point


def test_point_copy_carries_fresh_caches_and_unbounded_copies_nothing():
    rng = random.Random(44)
    cube = random_bounded_3d(rng)
    vertices(cube)
    centroid(cube)
    point = cube.scaled(0)
    fresh = HPolytope(point.dim, point.constraints)
    assert point._cache["integer vertices"] == ([(0,) * 3], 1)
    assert vertices(point) == vertices(fresh) == [(F(0),) * 3]
    assert point._cache["centroid"] == centroid(fresh) == (F(0),) * 3
    half_plane = HPolytope(2, [((F(1), F(0)), F(1))])
    with pytest.raises(UnboundedError):
        vertices(half_plane)
    for copy in scaled_copies(half_plane):
        assert not copy._cache
        with pytest.raises(UnboundedError):
            vertices(copy)


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
    """sup{l : l * y in the joined fiber over p}, exact: the half-ball
    map's rescale along y times the radial function of the fiber over p."""
    p, y = rationalize_point(p), rationalize_point(y)
    hb = HalfBallMap(spec)
    fiber = centered_fiber(spec, p)
    return (hb._joined_scale(hb._body(p), fiber, p, y)
            * convexoid.radial(fiber, y))


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
    assert exit_time(spec, (1.0, 0.0)) == 1
    assert exit_time(spec, (0.0, 1.0)) == 1
    diag = 1 / math.sqrt(2)
    assert abs(float(exit_time(spec, (diag, diag))) - math.sqrt(2)) < 1e-8


def exit_time_lp_oracle(spec, direction):
    """Exit time as one exact parametric LP, independent of the closed form.

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
        assert exit_time(spec, direction) == exit_time_lp_oracle(
            spec, direction)


def test_star_convexity_scan_never_reenters():
    rng = random.Random(20)
    spec = centered_spec(square_spec())
    for _ in range(300):
        direction = (rng.uniform(0, 1), rng.uniform(-1, 1))
        if direction[0] < 1e-6 and abs(direction[1]) < 1e-6:
            continue
        # the joined body of the constant fiber [-1, 1] is the square, so
        # the ray is inside exactly up to its exit time and never re-enters
        vb, vf = rationalize_point(direction)
        t_star = joined_exit_time(spec.fiber, 1, direction)
        for t in sorted(rationalize(rng.uniform(0, 3)) for _ in range(8)):
            tb, tf = t * vb, t * vf
            inside = 0 <= tb <= 1 and -1 <= tf <= 1
            assert inside == (t <= t_star)


def test_exit_scale_caps_the_exit_time_below_2_to_the_80():
    spec = centered_spec(square_spec())
    # straight up the fiber [-1, 1] from the bottom center: t* = 1 / vf
    top = F(2**80 - 1)
    assert joined_exit_time(spec.fiber, 1, (F(0), 1 / top)) == top
    assert exit_time(spec, (F(0), 1 / top)) == top
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


def test_half_ball_maps_take_float32_points():
    spec = square_spec()
    for x in ([0.3, -0.7], [1.0, 0.1], [0.05, 0.9], [0.0, 0.0]):
        x32 = np.array(x, dtype=np.float32)
        image = to_half_ball(spec, x32)
        assert np.array_equal(image, to_half_ball(spec, x32.astype(np.float64)))
        back = from_half_ball(spec, image)
        assert max(abs(a - float(b)) for a, b in zip(back, x32)) < 1e-12
        if np.linalg.norm(image) < 0.99:  # float32 can round out of the ball
            back = from_half_ball(spec, image.astype(np.float32))
            assert max(abs(a - float(b)) for a, b in zip(back, x32)) < 1e-6


def test_half_ball_domain_errors():
    spec = square_spec()
    with pytest.raises(DomainError):
        to_half_ball(spec, (2.0, 0.0))
    with pytest.raises(DomainError):
        to_half_ball(spec, (0.5, 1.5))
    with pytest.raises(DomainError):
        from_half_ball(spec, (0.8, 0.8))  # norm > 1


def test_half_ball_maps_refuse_points_of_the_wrong_length():
    # a short point once lost its fiber part, and a long one was cut to
    # length, both mapped as if they were some other point
    spec = ConvexoidSpec(2, 1, lambda p: interval(-1, 1))
    hb = HalfBallMap(spec)
    for point in ([0.1, 0.0], [0.1, 0.0, 0.2, 0.0, 0.0]):
        for run in (hb.forward, hb.inverse,
                    functools.partial(to_half_ball, spec),
                    functools.partial(from_half_ball, spec)):
            with pytest.raises(DomainError, match="takes 3"):
                run(point)
    assert len(hb.inverse(hb.forward([0.1, 0.0, 0.2]))) == 3
    # the glued map names its dimension too, for an empty point as well
    ball = GluedBallMap(spec, spec, identity_phi, identity_phi)
    for point in ((), (0.1, 0.0), (0.1, 0.0, 0.2, 0.0)):
        with pytest.raises(DomainError, match="has %d coordinates; the map "
                           "takes 3" % len(point)):
            ball.inverse(point)


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
            h = hb.forward(x)  # in the half-cube
            assert h[0] >= 0 and max(map(abs, h)) <= 1
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
    rng = random.Random(23)
    print()
    for delta in (1e-3, 1e-4, 1e-5):
        worst = 0.0
        for _ in range(30):
            x = (rng.uniform(0.1, 0.9), rng.uniform(-0.9, 0.9))
            x2 = (x[0] + delta, x[1])
            a = to_half_ball(spec, x)
            b = to_half_ball(spec, x2)
            worst = max(worst, float(np.linalg.norm(a - b)))
        print(f"[soft] half-ball modulus at delta={delta:.0e}: {worst:.2e}")
        assert worst < 100 * delta


def test_half_ball_injective_on_samples():
    spec = square_spec()
    rng = random.Random(24)
    points = [
        (rng.uniform(0, 1), rng.uniform(-1, 1)) for _ in range(120)
    ]
    images = [to_half_ball(spec, x) for x in points]
    for _ in range(2000):
        i, j = rng.randrange(len(points)), rng.randrange(len(points))
        if i == j:
            continue
        gap = max(abs(a - b) for a, b in zip(points[i], points[j]))
        if gap >= 1e-6:
            assert float(np.linalg.norm(images[i] - images[j])) > 0


def test_each_half_ball_leg_reads_at_most_three_fibers(monkeypatch):
    """A forward or inverse call reads the fiber over its base point and
    the two its joined body joins, each once, on 2-D fibers: interior
    points, bottom points, the bottom center and the distinguished
    boundary."""
    spec = degenerate_spec(2)
    hb = HalfBallMap(spec)
    reads = []
    fiber = ConvexoidSpec.fiber

    def counted(self, p):
        reads.append(p)
        return fiber(self, p)

    monkeypatch.setattr(ConvexoidSpec, "fiber", counted)
    for x in [(0.3, 0.2, 0.1, -0.2), (0.0, -0.5, 0.2, 0.3),
              (0.6, 0.9, 0.0, 0.0), (0.0, 0.0, 0.1, 0.1),
              (0.0, 0.0, 0.0, 0.0), (0.5, -1.0, 0.1, 0.0),
              (1.0, 0.25, 0.0, 0.0)]:
        reads.clear()
        h = hb.forward(x)
        assert len(reads) <= 3, (x, reads)
        reads.clear()
        hb.inverse(h)
        assert len(reads) <= 3, (h, reads)


def always_clamped_cube_point(x, low, body):
    """``_cube_point`` as it was, clamping every coordinate."""
    values = [float(v) for v in x]
    if not (values[0] >= low - convexoid.NORM_SLACK
            and all(abs(v) <= 1 + convexoid.NORM_SLACK for v in values)):
        raise DomainError(f"point outside the closed {body}")
    x = rationalize_point(x)
    return (min(max(x[0], low), 1),) + tuple(
        min(max(v, -1), 1) for v in x[1:]
    )


def test_cube_point_clamps_as_the_always_clamping_form():
    """Clamping only the coordinates whose float is at or past a bound gives
    the always-clamping form, value and type, at the bounds, within the
    slack past them, and at rationals whose float rounds onto a bound."""
    tiny = F(1, 10**30)
    below_one = F(1) - tiny
    assert float(below_one) == 1.0 and below_one < 1
    values = [1.0, -1.0, 0.0, -0.0, 1 + 1e-10, -1 - 1e-10, 1e-10, -1e-10,
              1 - 1e-10, F(1), F(-1), F(0), 1, -1, 0, F(1) + tiny,
              below_one, F(-1) - tiny, -below_one, tiny, -tiny,
              F(1, 3), np.float32(-0.25), 0.5 + 2e-9]
    seen = collections.Counter()
    for low in (0, -1):
        for x in itertools.product(values, repeat=2):
            want = polytope_outcome(always_clamped_cube_point, x, low, "cube")
            got = polytope_outcome(convexoid._cube_point, x, low, "cube")
            assert got == want, (x, low)
            seen[want == "DomainError"] += 1
    assert seen[True] and seen[False] > 500, seen


def test_joined_body_reads_the_fiber_at_the_radial_projection():
    """``_JoinedBody`` reads q off p's integer form; it is the point of
    ``radial_project_base``, so the memoized fiber is the same polytope."""
    spec = ConvexoidSpec(3, 1, lambda p: interval(
        -1 - p[1] / 4, 1 + p[0] / 3 + p[2] / 5))
    rng = random.Random(29)
    points = [(F(1), F(0), F(0)), (F(1, 2), F(-1, 2), F(1, 3)),
              (F(0), F(1, 7), F(-3, 7)), (F(0), F(0), F(1)),
              (F(1, 10**13), F(-1, 10**13 + 1), F(0))]
    points += [(F(rng.randint(0, 10**6), 10**6 + rng.randint(0, 99)),
                *[F(rng.randint(-10**6, 10**6), 10**6 + rng.randint(0, 99))
                  for _ in range(2)]) for _ in range(20)]
    for p in points:
        body = _JoinedBody(spec.fiber, p)
        assert body.e0 is spec.fiber((F(0),) * 3)
        assert body.e1 is spec.fiber(radial_project_base(p)[0]), p
    assert _JoinedBody(spec.fiber, (F(0),) * 3).e1 is None


def test_numbers_too_large_for_a_float_are_outside_the_domain():
    """A coordinate too large for a float is a ``DomainError``, as an
    infinite one is, not an ``OverflowError``."""
    spec = square_spec()
    for big in (10**400, -10**400, F(10**400), F(-10**400, 3)):
        for run in (functools.partial(to_half_ball, spec),
                    functools.partial(from_half_ball, spec),
                    HalfBallMap(spec).forward, HalfBallMap(spec).inverse):
            for point in ([big, 0], [F(1, 2), big]):
                with pytest.raises(DomainError):
                    run(point)
        for low in (0, -1):
            with pytest.raises(DomainError):
                convexoid._cube_point((big, 0), low, "half-cube")
        assert convexoid.norm_gauge([big, 0]) == math.inf
    with pytest.raises(DomainError):
        from_half_ball(spec, [float("inf"), 0])


def exact_point_inverse(hb, h):
    """``HalfBallMap.inverse`` with its body point exact, the form that read
    the fiber there before the point was rounded; returns the output and
    that exact body point."""
    h = convexoid._cube_point(h, 0, "half-cube")
    nb = hb.spec.base_dim
    if not any(h):
        p = hb.spec.origin()
        return convexoid.limit_point(p + centroid(hb.spec.fiber(p))), p
    body = hb._body(h[:nb])
    ints, den = convexoid._integer_vector(h)
    t_star = body.exit_time(ints, den)
    num = t_star.numerator * max(map(abs, ints))
    den = t_star.denominator * den * den
    point = tuple(F(v * num, den) for v in ints)
    p, yj = point[:nb], point[nb:]
    fiber = hb.spec.fiber(p)
    scale = hb._joined_scale(body, fiber, p, yj)
    y = tuple(v / scale + c for v, c in zip(yj, centroid(fiber)))
    return convexoid.limit_point(p + y), point


HEX_NORMALS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
HEX_SLOPES = ((F(1, 4), F(-1, 8), F(1, 8)), (F(-1, 8), F(1, 4), F(0)),
              (F(1, 8), F(1, 8), F(-1, 4)), (F(-1, 4), F(0), F(1, 8)),
              (F(0), F(-1, 4), F(1, 8)), (F(1, 8), F(-1, 8), F(-1, 4)))


def hexagon_spec():
    """Hexagon fibers over a 4-D base cube whose offsets move with the base
    point and shrink to the top, shaped like the benchmark's 2-D ones."""
    def fiber(p):
        scale = max(F(0), 1 - p[0])
        return HPolytope(2, [
            (normal, (1 + sum(s * z for s, z in zip(slopes, p[1:]))) * scale)
            for normal, slopes in zip(HEX_NORMALS, HEX_SLOPES)])
    return ConvexoidSpec(4, 2, fiber)


def spied_inverses(monkeypatch, run):
    """(map, h, output, fiber reads) of each ``HalfBallMap.inverse`` call
    that ``run()`` makes."""
    calls, reads = [], []
    inverse, fiber = HalfBallMap.inverse, ConvexoidSpec.fiber

    def spy_inverse(self, h):
        reads.clear()
        out = inverse(self, h)
        calls.append((self, h, out, list(reads)))
        return out

    def spy_fiber(self, p):
        reads.append(p)
        return fiber(self, p)

    monkeypatch.setattr(HalfBallMap, "inverse", spy_inverse)
    monkeypatch.setattr(ConvexoidSpec, "fiber", spy_fiber)
    run()
    monkeypatch.undo()
    return calls


def check_inverse_body_points(calls):
    """Each inverse reads fibers only at the bottom center, at the radial
    projection of its base point and at a body point of denominators at
    most ``RATIONALIZE_DEN``, and its output is within 1e-12 of the form
    that reads the fiber at the exact body point.  Returns how many exact
    body points had a larger denominator."""
    limit = convexoid.RATIONALIZE_DEN
    exact_large = 0
    for hb, h, out, reads in calls:
        want, exact = exact_point_inverse(hb, h)
        assert max(abs(float(a) - float(b)) for a, b in zip(out, want)) \
            < 1e-12, h
        exact_large += any(rationalize(v).denominator > limit for v in exact)
        nb = hb.spec.base_dim
        cube = convexoid._cube_point(h, 0, "half-cube")
        known = {hb.spec.origin()}
        if any(cube[:nb]):
            known.add(radial_project_base(cube[:nb])[0])
        for p in reads:
            p = rationalize_point(p)
            assert p in known or all(
                v.denominator <= limit for v in p), (h, p)
    return exact_large


def test_half_ball_inverse_reads_no_fiber_at_an_unrounded_body_point(
        monkeypatch):
    """On hexagon fibers the inverse rounds its body point before reading
    the fiber there, where the exact point can have denominators of hundreds
    of bits; its outputs stay within 1e-12 of the exact-point form."""
    spec = hexagon_spec()
    hb = HalfBallMap(spec)
    rng = random.Random(43)
    points = []
    for _ in range(30):
        tau = rng.choice([0.0, rng.uniform(0.05, 0.95)])
        z = [rng.uniform(-0.9, 0.9) for _ in range(3)]
        scale = 1 - tau
        y = [scale * rng.uniform(-0.3, 0.3) for _ in range(2)]
        points.append(hb.forward([tau, *z, *y]))
    points += [(F(0),) * 6, (F(1), F(0), F(0), F(0), F(0), F(0)),
               (F(1, 2), F(1), F(-1, 3), F(0), F(1, 5), F(-1, 7)),
               (F(0), F(1, 3), F(-1), F(1, 2), F(1, 4), F(0))]
    calls = spied_inverses(
        monkeypatch, lambda: [hb.inverse(h) for h in points])
    assert len(calls) == len(points)
    # 7 of the 34 exact body points have a larger denominator
    assert check_inverse_body_points(calls) >= 5


def test_g24_inverses_read_no_fiber_at_an_unrounded_body_point(monkeypatch):
    """The same on 20 fixed G(2,4) round trips, whose exact body points ran
    to hundreds of bits."""
    rng = random.Random(5)
    points = [random_nonneg_point(rng, 2, 4) for _ in range(20)]
    chart = chamber.BallChart(2, 4)
    calls = spied_inverses(monkeypatch, lambda: [
        chart.inverse(chart.forward(point)) for point in points])
    # 14 of the 46 exact body points have a larger denominator
    assert len(calls) > 20
    assert check_inverse_body_points(calls) >= 10


OWN_GEOMETRY = {"integer vertices", "centroid", "edges"}


def test_polytopes_cache_their_own_geometry_only():
    """After chart and half-ball round trips, no fiber caches anything keyed
    by a query direction or by another polytope: each joined body reads its
    support values and join normals itself."""
    chart = chamber.get_chart(2, 4)
    rng = random.Random(3)
    for _ in range(6):
        chart.inverse(chart.forward(random_positive_point(rng, 2, 4)))
    glued = chart._glued_map()
    specs = [glued.e_map.spec, glued.f_map.spec]
    for m in (2, 3):
        spec = degenerate_spec(m)
        for x in [(0.3, 0.2) + (0.1,) * m, (0.0, -0.5) + (0.2,) * m,
                  (0.6, 0.9) + (0.0,) * m, (0.5, -1.0) + (-0.1,) * m]:
            from_half_ball(spec, to_half_ball(spec, x))
        specs.append(spec)
    for spec in specs:
        polys = list(spec._memo.values())
        assert polys
        for poly in polys:
            assert set(poly._cache) <= OWN_GEOMETRY, set(poly._cache)


def test_half_ball_round_trips_copy_no_spec_fiber(monkeypatch):
    """Round trips on hexagon fibers, most of them off center, read every
    fiber in place, about its centroid: no ``HPolytope.scaled`` call, the
    one copy a polytope makes, starts from a fiber the spec returned."""
    spec = hexagon_spec()
    sources = []
    scaled = HPolytope.scaled

    def spy(self, *args):
        sources.append(self)
        return scaled(self, *args)

    monkeypatch.setattr(HPolytope, "scaled", spy)
    rng = random.Random(47)
    for _ in range(12):
        tau = rng.choice([0.0, rng.uniform(0.05, 0.95)])
        z = [rng.uniform(-0.9, 0.9) for _ in range(3)]
        y = [(1 - tau) * rng.uniform(-0.3, 0.3) for _ in range(2)]
        x = [tau, *z, *y]
        back = from_half_ball(spec, to_half_ball(spec, x))
        assert max(abs(a - b) for a, b in zip(x, back)) < 1e-9
    monkeypatch.undo()
    fibers = {id(poly) for poly in spec._memo.values()}
    assert sum(any(centroid(poly)) for poly in spec._memo.values()) > 12
    assert not [poly for poly in sources if id(poly) in fibers]


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
        assert max(abs(float(u - v)) for u, v in zip(a, b)) <= 1e-6
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
        assert max(map(abs, out)) <= 1  # in the cube
    # free boundary points (top of either half) map to the cube's boundary
    for side in ("E", "F"):
        out = ball.forward(side, (1.0, 0.3))
        assert max(map(abs, out)) == 1


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


# -- one radial regauge against the rescales it replaced ----------------------------
# The ball <-> cube rescales of the chart were two functions; they are kept
# here, as they were, as the reference oracles of ``regauge`` with the gauges
# each pairs.  They snapped to 0 below 1e-300, where ``regauge`` leaves only a
# gauge of exactly 0 alone.  Their Euclidean norm is ``math.hypot``, as that
# of ``regauge`` is: it scales before it squares, so it does not underflow,
# and its last bit does not depend on the BLAS build, as that of
# ``np.linalg.norm`` (0 below about 1e-154) does.


def ref_cube_of_ball(x):
    x = np.asarray(x, dtype=float)
    sup = float(np.max(np.abs(x))) if x.size else 0.0
    if sup < 1e-300:
        return np.zeros_like(x)
    return x * (math.hypot(*x) / sup)


def ref_ball_of_cube(z):
    z = np.asarray(z, dtype=float)
    norm = math.hypot(*z)
    if norm < 1e-300:
        return np.zeros_like(z)
    return z * (float(np.max(np.abs(z))) / norm)


def regauge_forms(norm, sup):
    """name -> (oracle, regauge form, guard, threshold), each a function of
    one drawn point x.  ``guard`` is the number the oracle compared with its
    threshold."""
    regauge = convexoid.regauge
    return {
        "cube_of_ball": (ref_cube_of_ball, lambda x: regauge(x, norm, sup),
                         convexoid.sup_gauge, 1e-300),
        "ball_of_cube": (ref_ball_of_cube, lambda x: regauge(x, sup, norm),
                         convexoid.norm_gauge, 1e-300),
    }


def gauges():
    return convexoid.norm_gauge, convexoid.sup_gauge


FORMS = regauge_forms(*gauges())


def regauge_points(rng, dims, count):
    """0, signed axis points and seeded random directions in each dimension,
    at radii log-uniform in [1e-15, 1] and, for a fifth of them, in
    [1e-300, 1e-15]; the axis points go down to the subnormal 1e-310."""
    points = []
    for dim in dims:
        points.append(np.zeros(dim))
        for i in range(dim):
            for r in (1.0, 0.5, 1e-8, 1e-15, 1e-200, 1e-300, 1e-310):
                for sign in (1.0, -1.0):
                    points.append(sign * r * np.eye(dim)[i])
        for j in range(count):
            d = rng.normal(size=dim)
            low, high = (-300, -15) if j % 5 == 0 else (-15, 0)
            points.append(d / np.linalg.norm(d) * 10 ** rng.uniform(low, high))
    return points


def regauge_mismatches(forms, points) -> dict:
    """name -> the points where a form and its oracle give different floats,
    counting only 0 and the points at or above the oracle's threshold."""
    found = {}
    for name, (oracle, form, guard, threshold) in forms.items():
        for x in points:
            if not x.any() or guard(x) >= threshold:
                if not np.array_equal(form(x), oracle(x)):
                    found.setdefault(name, []).append(x)
    return found


def test_regauge_equals_the_ball_cube_rescales_exactly():
    points = regauge_points(np.random.default_rng(27), (2, 3, 4, 5), 500)
    assert len(points) >= 2000
    assert sum(x[0] < 0 for x in points) >= 1000
    assert regauge_mismatches(FORMS, points) == {}
    # below its threshold an oracle snapped to 0 and regauge does not: there
    # the two differ by at most a few |x|, both measured by ``math.hypot``,
    # since ``np.linalg.norm`` underflows to 0 on such points and an
    # absolute term would swamp them
    banded = 0
    for name, (oracle, form, guard, threshold) in FORMS.items():
        for x in points:
            if x.any() and guard(x) < threshold:
                banded += 1
                gap = math.hypot(*(form(x) - oracle(x)))
                assert gap <= 3 * math.hypot(*x), name
    assert banded >= 50


def test_regauge_oracle_catches_swapped_gauges(monkeypatch):
    points = regauge_points(np.random.default_rng(28), (2, 3), 40)
    regauge = convexoid.regauge
    # regauge with its two gauges swapped inverts every map
    monkeypatch.setattr(convexoid, "regauge",
                        lambda x, g_from, g_to: regauge(x, g_to, g_from))
    assert set(regauge_mismatches(regauge_forms(*gauges()), points)) \
        == set(FORMS)


def norm_within_one_ulp(x) -> bool:
    """Whether ``norm_gauge(x)`` is within one ulp of the square root of
    the exact sum of squares of x."""
    h = convexoid.norm_gauge(x)
    exact = sum(F(v) ** 2 for v in x)
    ulp = F(math.ulp(h))
    return max(F(h) - ulp, 0) ** 2 <= exact <= (F(h) + ulp) ** 2


def test_norm_gauge_is_within_one_ulp_without_under_or_overflow():
    """Vectors of dimension 1 to 16 with entries from 1e-300 to 1e300, each
    entry at its own magnitude or all at one, whose squares under- or
    overflow, and subnormal ones: no nonzero vector gets norm 0, and every
    norm is within one ulp of the exact one."""
    rng = random.Random(33)
    vectors = [[5e-324], [5e-324] * 16, [1e-310, -2e-310], [1e300] * 16,
               [-1e-300] * 16]
    for i in range(2000):
        dim = rng.randint(1, 16)
        common = rng.uniform(-300, 299)
        vectors.append([
            rng.choice((-1, 1)) * 10 ** (
                common + rng.random() if i % 2 else rng.uniform(-300, 300))
            for _ in range(dim)
        ])
    for x in vectors:
        assert convexoid.norm_gauge(x) > 0, x
        assert norm_within_one_ulp(x), x


class _IdentityHalfCube:
    """A half-cube map that is the identity, so that a glued map built on two
    of them is just its sign flip."""

    def forward(self, x):
        return tuple(x)

    inverse = forward


def test_glued_map_is_a_sign_flip_of_the_half_cubes():
    """E half-cube points go to the cube with their first coordinate
    negated, F ones as they are (the identity moves nothing across), and
    the inverse picks E exactly where the first coordinate is <= 0."""
    balls = {}
    for dim in (2, 3, 4):
        spec = ConvexoidSpec(dim - 1, 1, lambda p: interval(-1, 1))
        balls[dim] = GluedBallMap(spec, spec, identity_phi, identity_phi)
        balls[dim].e_map = balls[dim].f_map = _IdentityHalfCube()
    rng = random.Random(29)
    points = [(F(0), F(1, 2))] + [
        (F(rng.randint(0, 8), 8), *(F(rng.randint(-8, 8), 8)
                                    for _ in range(dim - 1)))
        for dim in (2, 3, 4) for _ in range(20)
    ]
    for h in points:
        ball = balls[len(h)]
        u, *w = h
        assert ball.forward("E", h) == (-u, *w)
        assert ball.forward("F", h) == h
        assert ball.inverse((-u, *w)) == ("E", h)
        if u:
            assert ball.inverse(h) == ("F", h)


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
    if t < 0 or p[0] > 1 or any(abs(x) > 1 for x in p[1:]):
        return False  # p is outside the base cube
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
        t_star = joined_exit_time(spec.fiber, spec.base_dim, direction)
        assert t_star == exit_time_lp_oracle(spec, direction)
        assert member_lp_oracle(spec, direction, t_star)
        assert member_lp_oracle(spec, direction, t_star * F(999, 1000))
        assert not member_lp_oracle(spec, direction, t_star * F(1001, 1000))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_exit_scale_equals_lp_optimum(m):
    spec = degenerate_spec(m)
    for direction in oracle_directions(random.Random(50 + m), m, 6):
        assert exit_time(spec, direction) == exit_time_lp_oracle(
            spec, direction)
        # a ray's exit time scales inversely with its direction, whose base
        # part may then leave the cube
        longer = tuple(4 * x for x in direction)
        assert exit_time(spec, longer) == exit_time(spec, direction) / 4


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lambda_joined_equals_lp(m):
    rng = random.Random(60 + m)
    spec = degenerate_spec(m)
    e0 = centered_fiber(spec, spec.origin())
    tops = [(F(1), F(1, 3)), (F(1, 2), F(-1))]
    if m > 1:
        tops.append((F(3, 4), F(1)))  # the segment fiber
    for q in tops:
        e1 = centered_fiber(spec, q)
        for s in (F(1, 5), F(1, 2), F(7, 8)):
            p = tuple(s * x for x in q)
            body = _JoinedBody(functools.partial(centered_fiber, spec), p)
            assert body.e0 is e0 and body.e1 is e1
            for _ in range(3):
                y = tuple(F(rng.randint(-8, 8), 8) for _ in range(m))
                if not any(y):
                    continue
                assert body.radial(s, y) == lambda_joined_lp_oracle(
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
                and fraction_contains_point(poly, point):
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



# 1-D rows (a, b) for a y <= b, named by what they exercise
INTERVAL_CASES = {
    "hi row first": [(1, 2), (-1, 1)],
    "lo row first": [(-1, 1), (1, 2)],
    "repeated rows": [(1, 2), (-1, 1), (1, 2), (-1, 1)],
    "non-primitive rows": [(2, 3), (-4, 2), (6, 9)],
    "fractional offsets": [(3, -1), (-5, 2)],
    "redundant rows between": [(1, 5), (-1, 0), (1, 7), (-1, 3), (2, 3)],
    "point cut by two rows": [(2, 3), (-4, -6)],
    "point with a redundant row": [(1, 4), (-4, -6), (2, 3)],
    "point with the same row twice": [(1, 1), (-1, -1), (1, 1)],
    "empty": [(1, 0), (-1, -1)],
    "empty by a later row": [(1, 5), (-1, 0), (1, -1)],
    "unbounded above": [(-1, 1), (-2, 3)],
    "unbounded below": [(1, 1), (3, 5)],
    "no rows": [],
}


@pytest.mark.parametrize("name", INTERVAL_CASES)
def test_interval_vertices_match_the_subset_search_oracle(name):
    """An interval's vertices are its bounds, not a subset search: in value,
    order and type they equal ``reference_vertices``, the search the 1-D
    path replaced, its integer form is in lowest terms over the lcm of the
    denominators, and the midpoint, read through the same bounds, equals
    the ``Fraction`` form."""
    poly = HPolytope(1, [((F(a),), F(b)) for a, b in INTERVAL_CASES[name]])
    want = polytope_outcome(reference_vertices, poly)
    assert polytope_outcome(vertices, poly) == want
    assert repr(convexoid._interval_midpoint(poly)) == repr(
        fraction_interval_midpoint(poly))
    if want == "UnboundedError":
        assert name.startswith("unbounded") or name == "no rows"
        return
    points, den = convexoid._integer_vertices(poly)
    assert math.gcd(den, *[x for p in points for x in p]) == 1
    assert den == math.lcm(*[v.denominator for p in vertices(poly)
                             for v in p])
    if name.startswith("empty"):
        assert (points, den) == ([], 1)
    elif name.startswith("point"):
        assert len(points) == 1
    else:
        assert len(points) == 2

def reference_monotone_chain(points):
    """Counterclockwise hull vertices by Andrew's monotone chain, points on
    an edge dropped: the form ``_hull_order_2d`` replaced."""
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


def test_hull_order_matches_the_monotone_chain_on_extreme_points(monkeypatch):
    """The split along the chord from the least point to the greatest gives
    the monotone chain's order, on the extreme points of random integer
    clouds (with collinear and vertical runs) and on every polygon the
    centroid fans of random 2-D and 3-D polytopes hand it."""
    rng = random.Random(81)
    sizes = collections.Counter()
    for _ in range(400):
        span = rng.choice((1, 2, 6, 40))
        cloud = {(rng.randint(-span, span), rng.randint(-span, span))
                 for _ in range(rng.randint(3, 14))}
        hull = reference_monotone_chain(cloud)
        if len(hull) >= 3:
            sizes[min(len(hull), 6)] += 1
            assert convexoid._hull_order_2d(rng.sample(hull, len(hull))) \
                == hull
    assert set(sizes) == {3, 4, 5, 6}, sizes

    original = convexoid._hull_order_2d
    fanned = []

    def checked(points):
        points = list(points)
        got = original(points)
        assert got == reference_monotone_chain(points)
        fanned.append(len(points))
        return got

    monkeypatch.setattr(convexoid, "_hull_order_2d", checked)
    for dim in (2, 3):
        for _ in range(150):
            polytope_outcome(convexoid._hull_centroid,
                             random_polytope(rng, dim))
    assert len(fanned) > 200 and max(fanned) > 4


def reference_subset_vertex(subset, dim):
    """The eliminate form of the subset solve, which Cramer's rule replaces
    in the plane: every column pivots iff the normals are independent, and
    then row r reads p * y_r = q with gcd(p, q) = 1."""
    reduced = list(subset)
    if linalg.eliminate(reduced, reduced=True) != list(range(dim)):
        return None
    den = math.lcm(*[row[r] for r, row in enumerate(reduced)])
    return (*[row[dim] * (den // row[r]) for r, row in enumerate(reduced)],
            -den)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_subset_vertex_matches_elimination(dim):
    """Keys (X, -D), D > 0, on random primitive integer rows (a | b), small
    entries so that many subsets are singular, with proportional and zero
    normals among them, and with determinants of both signs: their
    ``_primitive`` forms are the canonical keys, which the eliminate form
    gives, and only the Cramer keys of the plane come unreduced."""
    rng = random.Random(80 + dim)
    seen = collections.Counter()
    for _ in range(3000):
        subset = [tuple(rng.randint(-3, 3) for _ in range(dim + 1))
                  for _ in range(dim)]
        if rng.random() < 0.2:
            scale = rng.choice([-2, -1, 2, 3])
            subset[-1] = tuple(scale * x for x in subset[0][:dim]) + (
                rng.randint(-3, 3),)
        # vertices() hands in primitive rows, which the eliminate form needs
        subset = [convexoid._primitive(row) for row in subset]
        got = convexoid._subset_vertex(subset, dim)
        want = reference_subset_vertex(subset, dim)
        if got is None or want is None:
            assert got is want, subset
            seen["singular"] += 1
            continue
        assert convexoid._primitive(got) == want, subset
        assert got[-1] < 0
        if dim != 2:
            assert got == want
        seen["unreduced"] += math.gcd(*got) > 1
        normals = [row[:dim] for row in subset]
        seen["negative det"] += linalg.det(normals) < 0
        for row in subset:  # every row holds with equality at X / D
            assert sum(a * x for a, x in zip(row, got)) == 0
    assert seen["singular"] > 100 and seen["negative det"] > 100
    assert seen["unreduced"] > 0 if dim == 2 else not seen["unreduced"]


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
    # Decimals and strings round as the stdlib rounds them
    rng = random.Random(93)
    decimals = [decimal.Decimal("0.1234567890123456789"),
                decimal.Decimal("NaN"), decimal.Decimal("-Infinity")]
    decimals += [decimal.Decimal(f"{rng.randint(-10**25, 10**25)}"
                                 f"e-{rng.randint(0, 40)}") for _ in range(500)]
    for v in decimals + ["0.3333333333333333333", "-7/3"]:
        assert rationalize_outcome(rationalize, v) == \
            rationalize_outcome(stdlib_rationalize, v)
    # numpy floats of other widths, which Fraction refuses, round as their
    # exact float64 values
    narrow = [np.float32(0.1), np.float32("nan"), np.float32("-inf"),
              np.float16(0.3), np.float32(1e-30)]
    narrow += [np.float32(rng.gauss(0, 1) * 10.0 ** rng.randint(-12, 12))
               for _ in range(500)]
    for v in narrow:
        assert rationalize_outcome(rationalize, v) == \
            rationalize_outcome(stdlib_rationalize, float(v))
    assert rationalize(F(7, 3)) == F(7, 3) and rationalize(5) == F(5)
    assert rationalize(np.int64(-4)) == F(-4)


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


def support_of(poly, u):
    """h(u) for a rational u, from ``_support`` of its primitive row: u is
    the row times content / den, and h(row) = M / D."""
    row, den, content = linalg.integer_row(u)
    m, d = convexoid._support(poly, tuple(row))
    assert type(m) is int and type(d) is int and d > 0
    return F(m * content, den * d)


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
                        support_of(poly, u)
                    checked["empty"] += 1
                    continue
                assert support_of(poly, u) == max(dot(u, v) for v in verts)
                checked["bounded"] += 1
            if verts:
                factor = F(rng.randint(1, 5), rng.randint(1, 4))
                copy = poly.scaled(factor)
                assert "integer vertices" in poly._cache
                assert "integer vertices" in copy._cache  # carried over
                for u in us:
                    assert support_of(copy, u) == max(
                        dot(u, tuple(factor * a for a in v)) for v in verts)
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
            # the vertices stay lazy
            assert "integer vertices" not in poly._cache
            # a fresh enumeration on the centered copy gives the carried order
            moved = [tuple(x - c for x, c in zip(v, centroid(poly)))
                     for v in reference_vertices(poly)]
            assert vertices(centered(poly)) == moved
    assert polytope_outcome(centroid, HPolytope(1, cases["empty"])) == \
        "DegenerateError"


# -- polytope steps over integer rows against their Fraction forms ------------
# A polytope holds integer rows over one denominator, and the per-op steps
# (membership, the radial function, moves, the interval midpoint, the
# support function, the exit bound and the joined radial function) work on
# those rows and build one ``Fraction`` per result.  The oracles below are
# the ``Fraction`` forms they replaced, reading only the ``constraints``
# view and ``reference_vertices``; every comparison is on ``repr``, so value
# and type both have to agree.


def fraction_contains_point(poly, point, slack=F(0)):
    return all(dot(n, point) <= o + slack for n, o in poly.constraints)


def fraction_radial(poly, y):
    best = None
    for normal, offset in poly.constraints:
        d = dot(normal, y)
        if d > 0:
            lam = offset / d
            if best is None or lam < best:
                best = lam
    if best is None:
        raise UnboundedError("radial function undefined; polytope unbounded")
    return best


def fraction_interval_midpoint(poly):
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


def fraction_support(verts, u):
    if not verts:
        raise DegenerateError("empty polytope")
    return max(dot(u, v) for v in verts)


def cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


# the oracles below see the same fibers again and again (the fiber oracle
# memoizes them), so their reference vertices and edges are kept per polytope
memo_reference_vertices = functools.lru_cache(maxsize=256)(reference_vertices)


@functools.lru_cache(maxsize=256)
def fraction_edge_directions(poly):
    verts = reference_vertices(poly)
    cons = poly.constraints
    tight = [{i for i, (n, o) in enumerate(cons) if dot(n, v) == o}
             for v in verts]
    edges = []
    for (v, tv), (w, tw) in itertools.combinations(zip(verts, tight), 2):
        common = [cons[i][0] for i in tv & tw]
        if any(any(cross3(a, b))
               for a, b in itertools.combinations(common, 2)):
            edges.append(tuple(x - y for x, y in zip(v, w)))
    return edges


def fraction_join_normals(e0, e1):
    polys = (e0,) if e1 is None else (e0, e1)
    found = dict.fromkeys(n for poly in polys for n, _ in poly.constraints)
    if e0.dim == 3 and e1 is not None:
        for a in fraction_edge_directions(e0):
            for b in fraction_edge_directions(e1):
                u = cross3(a, b)
                if any(u):
                    found[u] = None
                    found[tuple(-x for x in u)] = None
    return list(found)


def fraction_exit_bound(fiber_at, nb, direction):
    v = rationalize_point(direction)
    vb, vf = v[:nb], v[nb:]
    g = base_gauge(vb) if any(vb) else F(0)
    e0 = fiber_at((F(0),) * nb)
    e1 = fiber_at(tuple(x / g for x in vb)) if g > 0 else None
    normals = fraction_join_normals(e0, e1)
    if vb[0] < 0:
        return F(0)
    verts0 = memo_reference_vertices(e0)
    verts1 = None if e1 is None else memo_reference_vertices(e1)
    best = 1 / g if g else None
    for u in normals:
        h0 = fraction_support(verts0, u)
        d = dot(u, vf)
        if g:
            d -= g * (fraction_support(verts1, u) - h0)
        if d > 0 and (best is None or h0 < best * d):
            best = h0 / d
    return best


def fraction_exit_time(fiber_at, nb, direction):
    """``fraction_exit_bound`` with the cap at 2^80 and the clamp at 0 of
    ``_JoinedBody.exit_time``."""
    t_star = fraction_exit_bound(fiber_at, nb, direction)
    if t_star is None or t_star >= 2**80:
        raise UnboundedError("ray never leaves the joined body")
    return max(t_star, F(0))


def fraction_radial_project_base(p):
    p = rationalize_point(p)
    if p[0] < 0 or p[0] > 1 or any(abs(v) > 1 for v in p[1:]):
        raise DomainError("point lies outside the base cube")
    g = base_gauge(p)
    if g == 0:
        raise ValueError("the bottom center has no radial projection")
    return tuple(v / g for v in p), g


def fraction_lambda_joined(spec, p, y):
    key = rationalize_point(p)
    if all(v == 0 for v in key):
        return fraction_radial(centered_fiber(spec, key), y)
    q, s = fraction_radial_project_base(key)
    if s == 1:
        return fraction_radial(centered_fiber(spec, key), y)
    e0 = centered_fiber(spec, spec.origin())
    e1 = centered_fiber(spec, q)
    verts0, verts1 = memo_reference_vertices(e0), memo_reference_vertices(e1)
    best = None
    for u in fraction_join_normals(e0, e1):
        d = dot(u, y)
        if d > 0:
            lam = ((1 - s) * fraction_support(verts0, u)
                   + s * fraction_support(verts1, u)) / d
            if best is None or lam < best:
                best = lam
    if best is None:
        raise UnboundedError("joined fiber radial function undefined")
    return best


def random_rational(rng, lo, hi, dens=(1, 2, 3, 4, 7, 16)):
    den = rng.choice(dens)
    return F(rng.randint(lo * den, hi * den), den)


def uncentered(rng, poly):
    """poly moved by a random shift of up to 5 per coordinate (``moved``):
    offsets o + n . c, often negative."""
    c = tuple(random_rational(rng, -5, 5) for _ in range(poly.dim))
    return moved(poly, 1, c)


def random_polytopes(rng, dim, count):
    """``random_polytope``s, half of them moved off the origin."""
    for _ in range(count):
        poly = random_polytope(rng, dim)
        yield uncentered(rng, poly) if rng.random() < 0.5 else poly


def random_direction(rng, dim):
    while True:
        y = tuple(random_rational(rng, -3, 3) for _ in range(dim))
        if any(y):
            return y


def in_lowest_terms(rows, den):
    return den > 0 and math.gcd(den, *[x for row in rows for x in row]) == 1


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rows_are_the_constraints_in_lowest_terms(dim):
    rng = random.Random(100 + dim)
    for poly in random_polytopes(rng, dim, 150):
        assert in_lowest_terms(poly._rows, poly._den)
        assert all(type(x) is int for row in poly._rows for x in row)
        view = poly.constraints
        assert HPolytope(dim, view).constraints == view
        assert all(type(x) is F for n, o in view for x in (*n, o))
        for row, (n, o) in zip(poly._rows, view):
            assert (*n, o) == tuple(F(x, poly._den) for x in row)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_matches_fraction_form(dim):
    rng = random.Random(110 + dim)
    seen = collections.Counter()
    for poly in random_polytopes(rng, dim, 200):
        for _ in range(4):
            y = random_direction(rng, dim)
            want = polytope_outcome(fraction_radial, poly, y)
            assert polytope_outcome(convexoid.radial, poly, y) == want
            seen[want.split("(")[0]] += 1
        y = tuple(rng.randint(-2, 2) for _ in range(dim))  # int entries
        if any(y):
            assert polytope_outcome(convexoid.radial, poly, y) == \
                polytope_outcome(fraction_radial, poly, y)
    assert seen["Fraction"] > 300 and seen["UnboundedError"] > 0, seen


def near_facet_points(rng, poly, verts):
    """Points at distance 0, 1/2, 1 and 2 times SLACK (in the units of each
    normal) inside and outside each facet, around a vertex or a random
    point, and each just beyond SLACK."""
    base = list(verts) or [tuple(random_rational(rng, -3, 3)
                                 for _ in range(poly.dim))]
    deltas = [F(0), convexoid.SLACK, -convexoid.SLACK, 2 * convexoid.SLACK,
              convexoid.SLACK / 2, -convexoid.SLACK / 2,
              convexoid.SLACK + F(1, 10**18), convexoid.SLACK - F(1, 10**18)]
    for n, o in poly.constraints:
        y0 = rng.choice(base)
        nn = dot(n, n)
        for delta in deltas:
            # n . y = o + delta
            step = (o + delta - dot(n, y0)) / nn
            yield tuple(a + step * b for a, b in zip(y0, n))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_contains_point_matches_fraction_form_near_facets(dim):
    rng = random.Random(120 + dim)
    seen = collections.Counter()
    for poly in random_polytopes(rng, dim, 120):
        try:
            verts = reference_vertices(poly)
        except UnboundedError:
            verts = []
        for y in near_facet_points(rng, poly, verts):
            inside = {}
            for slack in (F(0), convexoid.SLACK):
                got = poly.contains_point(y, slack)
                assert got is fraction_contains_point(poly, y, slack)
                inside[slack] = got
            if inside[F(0)] != inside[convexoid.SLACK]:
                seen["slack decides"] += 1
            seen[inside[convexoid.SLACK]] += 1
        y = tuple(rng.randint(-3, 3) for _ in range(dim))  # int entries
        assert poly.contains_point(y) is fraction_contains_point(poly, y)
    assert seen["slack decides"] > 100 and seen[True] and seen[False], seen


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scaled_matches_fraction_forms(dim):
    rng = random.Random(130 + dim)
    seen = collections.Counter()
    for poly in random_polytopes(rng, dim, 120):
        try:
            verts = reference_vertices(poly)
            hull = reference_hull_centroid(poly, verts) if verts else None
        except (UnboundedError, ValueError):
            verts, hull = None, None
        if verts is not None and rng.random() < 0.7:
            vertices(poly)  # warm the caches the copies carry
            if hull is not None:
                centroid(poly)
        zero = (F(0),) * dim
        factors = [rng.choice([F(0), F(1), F(3, 2), F(1, 3)]),
                   random_rational(rng, 0, 4)]
        for f in factors:
            copy = poly.scaled(f)
            assert copy.constraints == moved_fraction_form(poly, f, zero)
            assert all(type(x) is F
                       for n, o in copy.constraints for x in (*n, o))
            assert in_lowest_terms(copy._rows, copy._den)
            if not poly._cache.get("integer vertices", ([], 1))[0]:
                # nothing to carry: no vertices read yet, or none at all;
                # a factor of 1 returns the polytope itself
                assert copy is poly or "integer vertices" not in copy._cache
                continue
            seen["carried"] += 1
            points, den = copy._cache["integer vertices"]
            assert in_lowest_terms(points, den)
            want = list(dict.fromkeys(
                tuple(f * x for x in v) for v in verts))
            assert vertices(copy) == want  # carried, in order
            assert vertices(HPolytope(dim, copy.constraints)) == want
            if hull is not None:
                seen["centroid"] += 1
                got = copy._cache["centroid"]
                assert repr(got) == repr(tuple(f * x for x in hull))
    assert seen["carried"] > 100 and seen["centroid"] > 50, seen


def test_interval_midpoint_matches_fraction_form():
    rng = random.Random(140)
    seen = collections.Counter()
    for poly in random_polytopes(rng, 1, 600):
        want = fraction_interval_midpoint(poly)
        assert repr(convexoid._interval_midpoint(poly)) == repr(want)
        seen[want is None] += 1
    assert seen[True] > 20 and seen[False] > 300, seen


def random_fiber_family(rng, nb, m):
    """Fibers whose facet normals are those of a box with up to two extra
    cuts, around a random center c (often far from the origin, so offsets
    go negative), with offsets that move affinely in the base point p by at
    most 1/8 of their normal's 1-norm; every fiber holds a box around c."""
    normals = []
    for i in range(m):
        e = tuple(F(int(i == j)) for j in range(m))
        normals += [e, tuple(-x for x in e)]
    normals += [random_normal(rng, m) for _ in range(rng.randint(0, 2))]
    center = tuple(random_rational(rng, -3, 3) for _ in range(m))
    if rng.random() < 0.3:
        center = (F(0),) * m
    rows = [
        (n, random_rational(rng, 1, 3) / 2,
         tuple(random_rational(rng, -1, 1) / (8 * nb) for _ in range(nb)))
        for n in normals
    ]

    def oracle(p):
        return HPolytope(m, [
            (n, dot(n, center) + (r + dot(slopes, p)) * sum(map(abs, n)))
            for n, r, slopes in rows
        ])

    return oracle


def random_ray_direction(rng, nb, m):
    while True:
        vb = (random_rational(rng, -1, 4) / 4,) + tuple(
            random_rational(rng, -1, 1) for _ in range(nb - 1))
        if rng.random() < 0.15:
            vb = (F(0),) * nb
        vf = tuple(random_rational(rng, -2, 2) for _ in range(m))
        if rng.random() < 0.2:
            return tuple(float(x) for x in vb + vf)  # rationalized
        if any(vb + vf):
            return vb + vf


@pytest.mark.parametrize("m", [1, 2, 3])
def test_exit_bound_matches_fraction_form_on_random_specs(m):
    rng = random.Random(150 + m)
    seen = collections.Counter()
    for _ in range(10 if m < 3 else 6):  # 3-D rays have many join normals
        nb = rng.randint(1, 2)
        spec = ConvexoidSpec(nb, m, random_fiber_family(rng, nb, m))
        for body_spec in (spec, centered_spec(spec)):
            for _ in range(5):
                direction = random_ray_direction(rng, nb, m)
                if not any(direction):
                    continue
                got = polytope_outcome(exit_time, body_spec, direction)
                want = polytope_outcome(fraction_exit_time, body_spec.fiber,
                                        nb, direction)
                assert got == want, direction
                seen[want.split("(")[0]] += 1
    assert seen["Fraction"] > 0.8 * sum(seen.values()), seen


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lambda_joined_matches_fraction_form_on_random_specs(m):
    rng = random.Random(160 + m)
    checked = 0
    for _ in range(8):
        nb = rng.randint(1, 2)
        spec = ConvexoidSpec(nb, m, random_fiber_family(rng, nb, m))
        points = [(F(0),) * nb, (F(1),) + (F(0),) * (nb - 1)]
        points += [(random_rational(rng, 0, 1),) + tuple(
            random_rational(rng, -1, 1) for _ in range(nb - 1))
            for _ in range(4)]
        for p in points:
            if any(p):
                assert repr(convexoid.radial_project_base(p)) == repr(
                    fraction_radial_project_base(p))
            for _ in range(3):
                y = random_direction(rng, m)
                assert repr(joined_radius(spec, p, y)) == repr(
                    fraction_lambda_joined(spec, p, y))
                checked += 1
    assert checked == 8 * 6 * 3


def support_ratios(body):
    """(u, h0(u), h1(u)) for each join normal of a ``_JoinedBody``."""
    return [(u, F(m0, body.d0), F(m1, body.d1)) for u, m0, m1 in body.terms]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_joined_body_about_centroids_matches_centered_copies(m):
    """The half-ball maps read uncentered fibers about their centroids,
    with no centered copy built: the support values, joined radial
    functions, exit times and rescales are those of a ``_JoinedBody`` of
    the ``centered`` copies, value and type alike (compared by ``repr``),
    and so is the radial function of the fiber over p about its centroid.
    In dimension 3 the join normals take in the cross products of the two
    fibers' edge directions."""
    rng = random.Random(170 + m)
    seen = collections.Counter()
    for _ in range(8 if m < 3 else 5):  # 3-D rays have many join normals
        nb = rng.randint(1, 2)
        spec = ConvexoidSpec(nb, m, random_fiber_family(rng, nb, m))
        hb = HalfBallMap(spec)
        points = [(F(0),) * nb, (F(1),) + (F(0),) * (nb - 1)]
        points += [(random_rational(rng, 0, 1),) + tuple(
            random_rational(rng, -1, 1) for _ in range(nb - 1))
            for _ in range(3)]
        for p in points:
            about = hb._body(p)
            copies = _JoinedBody(functools.partial(centered_fiber, spec), p)
            assert repr(support_ratios(about)) == repr(support_ratios(copies))
            fiber = spec.fiber(p)
            seen["off center"] += any(centroid(fiber))
            s = base_gauge(p)
            for _ in range(3):
                y = random_direction(rng, m)
                about_centroid = convexoid._radial_about(
                    fiber, centroid(fiber), y)
                assert repr(about_centroid) == repr(
                    convexoid.radial(centered(fiber), y))
                assert repr(hb._joined_scale(about, fiber, p, y)) == repr(
                    hb._joined_scale(copies, centered(fiber), p, y))
                if copies.e1 is not None:
                    assert repr(about.radial(s, y)) == repr(
                        copies.radial(s, y))
                t = random_rational(rng, 0, 3)
                ints, den = convexoid._integer_vector(
                    tuple(t * x for x in p) + y)
                got = polytope_outcome(about.exit_time, ints, den)
                assert got == polytope_outcome(copies.exit_time, ints, den)
                seen[got.split("(")[0]] += 1
    assert seen["off center"] > 20 and seen["Fraction"] > 60, seen


def cube4_spec():
    """A spec whose fibers are the 4-cube, above ``MAX_FIBER_DIM``."""
    rows = [(tuple(s * (i == j) for j in range(4)), 1)
            for i in range(4) for s in (1, -1)]
    return ConvexoidSpec(1, 4, lambda p: HPolytope(4, rows))


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: HPolytope(2, [((1,), 0)]),
                 "constraint normal has the wrong dimension", id="short normal"),
    pytest.param(lambda: HPolytope(2, [((0, 0), 1)]),
                 "constraint normal is zero", id="zero normal"),
    pytest.param(lambda: ConvexoidSpec(0, 1, lambda p: interval(-1, 1)),
                 "dimensions must be positive", id="no base"),
    pytest.param(lambda: ConvexoidSpec(1, 2, lambda p: interval(-1, 1)).fiber(
        (0,)), "fiber of the wrong dimension", id="oracle dimension"),
    pytest.param(lambda: exit_time(cube4_spec(), (1, 0, 0, 0, 0)),
                 "fiber dimension <= ", id="4-D fibers"),
    pytest.param(lambda: exit_time(square_spec(), (0, 0)),
                 "ray direction is zero", id="zero ray"),
    pytest.param(lambda: exit_time(square_spec(), (1, 0, 0)),
                 "has 3 coordinates; the spec has dimension 2",
                 id="long ray"),
    pytest.param(lambda: exit_time(square_spec(), (1,)),
                 "has 1 coordinates; the spec has dimension 2",
                 id="short ray"),
    pytest.param(lambda: radial_project_base(()),
                 "outside the base cube", id="empty base point"),
    pytest.param(lambda: GluedBallMap(square_spec(), cube4_spec(),
                                      identity_phi, identity_phi),
                 "different dimensions", id="glued dimensions"),
    pytest.param(lambda: GluedBallMap(square_spec(), square_spec(),
                                      identity_phi, identity_phi
                                      ).forward("G", (0.5, 0)),
                 "unknown side 'G'", id="unknown side"),
])
def test_public_input_checks_raise_value_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()
