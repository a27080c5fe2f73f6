"""Ball charts: simplex leaves, the recursive glued chart, and round trips."""

import collections
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from grassball import convexoid
from grassball.chamber import (
    BallChart,
    ChamberPoint,
    ChartPoint,
    FiberFrame,
    SplitTriple,
    ValidationError,
    _SimplexChart,
    assemble,
    ball_chart,
    ball_chart_inverse,
    get_chart,
    split,
)
from grassball.convexoid import DomainError
from grassball.exterior import (
    MultiVector,
    classify_sign,
    normalize,
)
from grassball.sampling import random_nonneg_point, random_positive_point


def roundtrip_error(chart, point):
    image = chart.forward(point)
    back = chart.inverse(image)
    keys = set(point.rho.support()) | set(back.rho.support())
    return max(
        abs(float(point.rho.coefficient(k) - back.rho.coefficient(k)))
        for k in keys
    )


def segment_point(a: Fraction) -> ChamberPoint:
    coeffs = {}
    if a:
        coeffs[(1,)] = a
    if a != 1:
        coeffs[(2,)] = 1 - a
    return ChamberPoint(MultiVector(2, 1, coeffs))


# -- base cases ----------------------------------------------------------------


def test_g12_interval_chart_monotone_with_endpoints():
    grid = [Fraction(i, 8) for i in range(9)]
    values = [ball_chart(segment_point(a)).coords[0] for a in grid]
    assert values[0] == -1.0 and values[-1] == 1.0
    assert all(b > a for a, b in zip(values, values[1:]))
    assert abs(values[4]) < 1e-12  # barycenter to center


def test_g1n_and_corank_one_round_trips():
    rng = random.Random(30)
    for k, n in [(1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)]:
        chart = get_chart(k, n)
        assert chart.dim == k * (n - k)
        for _ in range(25):
            point = random_positive_point(rng, k, n)
            assert roundtrip_error(chart, point) < 1e-9


def test_simplex_boundary_maps_to_sphere_exactly():
    rng = random.Random(31)
    for _ in range(20):
        point = random_nonneg_point(rng, 1, 4)
        coords = ball_chart(point).coords
        norm = float(np.linalg.norm(coords))
        if classify_sign(point.rho).value == "Positive":
            assert norm < 1
        else:
            assert abs(norm - 1) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_top_grade_chart_is_trivial(n):
    chart = get_chart(n, n)
    point = ChamberPoint(MultiVector.basis(n, range(1, n + 1)))
    assert chart.forward(point).coords == ()
    assert chart.inverse(()).rho == point.rho
    with pytest.raises(ValidationError, match="dimension 1, expected 0"):
        chart.inverse((0.0,))


# -- recursive chart -------------------------------------------------------------


def test_g24_dimension_and_norms():
    chart = get_chart(2, 4)
    assert chart.dim == 4
    rng = random.Random(32)
    for _ in range(10):
        point = random_positive_point(rng, 2, 4)
        c = chart.forward(point)
        assert len(c.coords) == 4
        assert float(np.linalg.norm(c.coords)) < 1


def test_g24_round_trips():
    chart = get_chart(2, 4)
    rng = random.Random(33)
    worst = 0.0
    for _ in range(40):
        point = random_positive_point(rng, 2, 4)
        worst = max(worst, roundtrip_error(chart, point))
    assert worst < 1e-6


def test_g24_degenerate_strata_round_trip():
    chart = get_chart(2, 4)
    rng = random.Random(34)
    for _ in range(12):
        point = random_nonneg_point(rng, 2, 4)
        err = roundtrip_error(chart, point)
        assert err < 1e-6


def test_g24_boundary_lands_near_sphere_positive_inside():
    chart = get_chart(2, 4)
    rng = random.Random(35)
    printed = []
    for _ in range(25):
        point = random_nonneg_point(rng, 2, 4)
        norm = float(np.linalg.norm(chart.forward(point).coords))
        if classify_sign(point.rho).value == "Positive":
            assert norm < 1
        else:
            printed.append(norm)
    low = min(printed)
    print(f"\n[soft] zero-coefficient samples: min norm {low:.6f} (want >= 1-1e-4)")
    assert low >= 1 - 1e-4


def test_gluing_seam_continuity():
    chart = get_chart(2, 4)
    base = split(random_positive_point(random.Random(36), 2, 4))
    eta, omega = base.eta, base.omega
    at_seam = chart.forward(assemble(SplitTriple(Fraction(1, 2), eta, omega)))
    for dt in (Fraction(1, 10**6), -Fraction(1, 10**6)):
        nearby = chart.forward(
            assemble(SplitTriple(Fraction(1, 2) + dt, eta, omega))
        )
        gap = float(
            np.linalg.norm(np.array(at_seam.coords) - np.array(nearby.coords))
        )
        assert gap < 1e-4


def test_chart_injectivity_on_samples():
    chart = get_chart(2, 4)
    rng = random.Random(37)
    points = [random_positive_point(rng, 2, 4) for _ in range(60)]
    images = [np.array(chart.forward(p).coords) for p in points]
    for _ in range(500):
        i, j = rng.randrange(60), rng.randrange(60)
        if i == j:
            continue
        gap = max(
            abs(float(points[i].rho.coefficient(k) - points[j].rho.coefficient(k)))
            for k in set(points[i].rho.support()) | set(points[j].rho.support())
        )
        if gap > 1e-8:
            assert float(np.linalg.norm(images[i] - images[j])) > 0


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 5)])
def test_bottom_maps_are_inverse(k, n):
    """The F-to-E bottom map undoes the E-to-F one on the gluing samples."""
    chart = get_chart(k, n)
    e, f = chart._e, chart._f
    for x in chart._bottom_samples(8):
        back = f.bottom_to(e, e.bottom_to(f, x))
        err = max(abs(float(a) - float(b)) for a, b in zip(back, x))
        assert err <= 1e-9


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 5), (2, 6), (4, 6)])
def test_bottom_samples_glue_within_1e_15(k, n):
    """On every bottom sample the E side and the F side give cube points
    that agree within 1e-15 in every coordinate."""
    chart = get_chart(k, n)
    glued = chart._glued_map()
    for x in chart._bottom_samples(8):
        e = glued.forward("E", x)
        f = glued.forward("F", glued.phi(x))
        assert max(abs(float(a - b)) for a, b in zip(e, f)) <= 1e-15, x


def test_t_degenerate_points_round_trip():
    chart = get_chart(2, 4)
    rng = random.Random(38)
    eta = random_positive_point(rng, 1, 3).rho.shift(+1, n=4)
    top = assemble(SplitTriple(Fraction(1), eta, None))
    assert roundtrip_error(chart, top) < 1e-6
    omega = random_positive_point(rng, 2, 3).rho.shift(+1, n=4)
    bottom = assemble(SplitTriple(Fraction(0), None, omega))
    assert roundtrip_error(chart, bottom) < 1e-6


@pytest.mark.parametrize(
    "sample", [random_positive_point, random_nonneg_point]
)
def test_chart_fibers_are_centered_only_by_their_frames(monkeypatch, sample):
    """The half-cube maps find every chart fiber already centered, the
    point fibers at tau = 1 included."""
    chart = BallChart(2, 4)  # fresh, so that its frames are built here
    rng = random.Random(45)
    chart.inverse(chart.forward(sample(rng, 2, 4)))  # warm-up
    counts = {"centroids": 0, "frames": 0}

    def counting(fn, key):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(
        convexoid, "_hull_centroid",
        counting(convexoid._hull_centroid, "centroids"),
    )
    monkeypatch.setattr(
        FiberFrame, "__init__", counting(FiberFrame.__init__, "frames")
    )
    for _ in range(10):
        point = sample(rng, 2, 4)
        assert roundtrip_error(chart, point) < 1e-6
    assert counts["frames"] > 0
    assert counts["centroids"] <= counts["frames"]


# -- G(2,5) and G(3,5) -------------------------------------------------------------


@pytest.mark.parametrize("k, n", [(2, 5), (3, 5)])
def test_larger_chart_round_trips(k, n):
    chart = get_chart(k, n)
    rng = random.Random(39)
    for _ in range(3):
        point = random_positive_point(rng, k, n)
        assert float(np.linalg.norm(chart.forward(point).coords)) <= 1
        assert roundtrip_error(chart, point) < 1e-6


@pytest.mark.parametrize("k, n", [(2, 6), (4, 6)])
def test_charts_with_3d_fibers_round_trip(k, n):
    """G(2,6) and G(4,6), the charts whose fibers are 3-D."""
    chart = get_chart(k, n)
    rng = random.Random(39)
    for _ in range(3):
        point = random_positive_point(rng, k, n)
        assert float(np.linalg.norm(chart.forward(point).coords)) <= 1
        assert roundtrip_error(chart, point) <= 1e-9


# -- ball-side sweeps ----------------------------------------------------------------
# The round trips above start from chamber points.  These start from the
# ball: forward(inverse(x)) must give x back, so every frame the inverse
# builds is read again by the forward map.


SWEEP_RADII = (1.0, 0.999, 0.9, 0.5)


def ball_samples(rng, dim, count):
    out = []
    for _ in range(count):
        g = rng.normal(size=dim)
        out.append(g / np.linalg.norm(g) * rng.uniform(0, 0.98))
    return out


def ball_sweep_misses(k, n, per_radius):
    """(radius, error) of each uniform direction, ``per_radius`` at each
    radius (``np.random.default_rng(17)``), whose forward(inverse(x)) is
    more than 1e-6 off x in some coordinate, or raises (the error is then
    the exception's name)."""
    chart = get_chart(k, n)
    rng = np.random.default_rng(17)
    misses = []
    for radius in SWEEP_RADII:
        for _ in range(per_radius):
            g = rng.normal(size=chart.dim)
            x = g / np.linalg.norm(g) * radius
            try:
                back = np.array(chart.forward(chart.inverse(x)).coords)
            except ValueError as exc:  # DomainError, ValidationError
                misses.append((radius, type(exc).__name__))
                continue
            error = float(np.max(np.abs(back - x)))
            if error > 1e-6:
                misses.append((radius, error))
    return misses


@pytest.mark.parametrize("k, n, per_radius", [(2, 4, 50), (3, 5, 25)])
def test_ball_side_sweep_round_trips(k, n, per_radius):
    assert ball_sweep_misses(k, n, per_radius) == []


def test_g25_ball_side_sweep_round_trips():
    assert ball_sweep_misses(2, 5, 50) == []


@pytest.mark.parametrize("k, n, samples, per_radius", [
    (2, 4, 12, 25), (2, 5, 12, 10), (3, 5, 12, 10), (2, 6, 12, 5),
    (4, 6, 12, 5),
])
def test_round_trips_stay_within_1e_12(k, n, samples, per_radius):
    """The error bound of a chart whose levels hand on rationals rounded to
    denominators of at most 10^12: chamber-side samples (``random.Random(7)``,
    positive and nonnegative in turn) and a ball-side sweep
    (``np.random.default_rng(17)``, ``per_radius`` directions at each of
    ``SWEEP_RADII``) both come back within 1e-12."""
    chart = get_chart(k, n)
    rng = random.Random(7)
    for i in range(samples):
        sample = random_positive_point if i % 2 == 0 else random_nonneg_point
        point = sample(rng, k, n)
        assert roundtrip_error(chart, point) <= 1e-12, point
    directions = np.random.default_rng(17)
    for radius in SWEEP_RADII:
        for _ in range(per_radius):
            g = directions.normal(size=chart.dim)
            x = g / np.linalg.norm(g) * radius
            back = np.array(chart.forward(chart.inverse(x)).coords)
            assert float(np.max(np.abs(back - x))) <= 1e-12, x


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 5)])
def test_bottom_identification_holds_both_ways(k, n):
    """A bottom coordinate moved across to the other half-cube and back
    (``convexoid._across``) comes back within 1e-9, E to F to E and F to E
    to F, inside the bottom face and on its boundary."""
    glued = get_chart(k, n)._glued_map()
    e, f, phi, phi_inverse = (glued.e_map, glued.f_map, glued.phi,
                              glued.phi_inverse)
    rng = np.random.default_rng(9)
    inside = ball_samples(rng, glued.dim - 1, 40)
    on_boundary = [w / np.max(np.abs(w))
                   for w in ball_samples(rng, glued.dim - 1, 20)]
    for w in inside + on_boundary:
        for source, out, target, home in ((e, phi, f, phi_inverse),
                                          (f, phi_inverse, e, phi)):
            moved = convexoid._across(source, out, target, w)
            back = convexoid._across(target, home, source, moved)
            assert max(abs(float(b) - a) for b, a in zip(back, w)) <= 1e-9, (
                source, w)


# Known defects are strict xfails, so that a fix shows up as an XPASS.
DEFECTS: dict = {}


def _coordinate_point_param(k, n, key):
    marks = ()
    if (k, n, key) in DEFECTS:
        raises, reason = DEFECTS[k, n, key]
        marks = pytest.mark.xfail(strict=True, raises=raises, reason=reason)
    name = f"G{k}{n}-e" + "".join(map(str, key))
    return pytest.param(k, n, key, marks=marks, id=name)


COORDINATE_POINTS = [
    _coordinate_point_param(k, n, key)
    for k, n in [(2, 4), (2, 5), (3, 5), (2, 6), (4, 6)]
    for key in combinations(range(1, n + 1), k)
]


@pytest.mark.parametrize("k, n, key", COORDINATE_POINTS)
def test_coordinate_points_reach_sphere_and_round_trip(k, n, key):
    chart = get_chart(k, n)
    point = ChamberPoint(MultiVector.basis(n, key))
    norm = float(np.linalg.norm(chart.forward(point).coords))
    assert abs(norm - 1) < 1e-4
    assert roundtrip_error(chart, point) < 1e-6


def _jump_from_e12(coeffs) -> float:
    """Sup-norm distance between the G(2,4) images of the point with these
    coefficients and of e{1,2}."""
    chart = get_chart(2, 4)
    home = chart.forward(ChamberPoint(MultiVector.basis(4, (1, 2)))).coords
    moved = chart.forward(ChamberPoint(MultiVector(4, 2, coeffs))).coords
    return max(abs(a - b) for a, b in zip(moved, home))


CONTINUITY_EPS = [pytest.param(Fraction(1, 10**j), id=f"eps1e-{j}")
                  for j in (3, 6, 9, 12)]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the F fiber over e2 depends on the direction of "
                          "approach; the jump is 0.4806 at every eps")
@pytest.mark.parametrize("eps", CONTINUITY_EPS)
def test_g24_forward_is_continuous_at_e12_toward_e13_plus_e14(eps):
    """(1 - eps) e{1,2} + (eps / 2)(e{1,3} + e{1,4}) maps within 10 eps of
    the image of e{1,2}, as a continuous chart would."""
    jump = _jump_from_e12(
        {(1, 2): 1 - eps, (1, 3): eps / 2, (1, 4): eps / 2})
    assert jump <= 10 * eps


@pytest.mark.parametrize("eps", CONTINUITY_EPS)
def test_g24_forward_is_continuous_at_e12_toward_e13(eps):
    """Along e{1,3} alone the chart is continuous at e{1,2}: the jump is
    about 0.39 eps (3.9e-4 at eps = 1e-3, 3.9e-13 at 1e-12)."""
    assert _jump_from_e12({(1, 2): 1 - eps, (1, 3): eps}) <= 10 * eps


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the inverse lands about 0.14 from e{1,2}: p12 is "
                          "0.8577, 0.8589, 0.8589 and 0.8541 at these eps")
@pytest.mark.parametrize("eps", CONTINUITY_EPS)
def test_g24_inverse_is_continuous_at_the_image_of_e12(eps):
    """The cube image of e{1,2}, (1, 1/2, 1, -1/2), with its third
    coordinate lowered by eps maps back within 10 eps of e{1,2} (sup norm
    over the coefficients), as a continuous inverse would."""
    chart = get_chart(2, 4)
    home = MultiVector.basis(4, (1, 2))
    z = chart._cube_of(ChamberPoint(home))
    rho = chart._point_of_cube((z[0], z[1], z[2] - eps, z[3])).rho
    keys = set(rho.support()) | {(1, 2)}
    assert max(abs(rho.coefficient(key) - home.coefficient(key))
               for key in keys) <= 10 * eps


# -- interface edges ---------------------------------------------------------------


def test_chart_point_validation_and_inverse_domain():
    with pytest.raises(ValidationError):
        ChartPoint((1.0, 1.0))
    with pytest.raises(DomainError):
        ball_chart_inverse((0.9, 0.9, 0.9, 0.9), 2, 4)
    with pytest.raises(ValidationError):
        get_chart(2, 4).inverse((0.0, 0.0))  # wrong dimension


@pytest.mark.parametrize("k,n", [(1, 4), (2, 4)])
def test_nan_chart_points_are_refused(k, n):
    # NaN fails every norm gate as a norm above 1 does, here on a simplex
    # leaf and on the glued G(2,4) chart; the cube and half-cube maps refuse
    # NaN, infinities and points outside their body before rationalizing
    chart = get_chart(k, n)
    nan = [float("nan")] + [0.0] * (chart.dim - 1)
    with pytest.raises(ValidationError, match="norm nan"):
        ChartPoint(nan)
    with pytest.raises(DomainError, match="norm nan"):
        chart.inverse(nan)
    if chart._simplex is None:
        glued = chart._glued_map()
        with pytest.raises(DomainError, match="outside the closed cube"):
            glued.inverse(np.array(nan))
        with pytest.raises(DomainError, match="outside the closed half-cube"):
            glued.e_map.inverse(np.array(nan))
        for bad in (float("inf"), -float("inf"), 1.5):
            point = np.array([0.5] * (chart.dim - 1) + [bad])
            with pytest.raises(DomainError, match="outside the closed cube"):
                glued.inverse(point)
            with pytest.raises(DomainError,
                               match="outside the closed half-cube"):
                glued.e_map.inverse(point)
        with pytest.raises(DomainError, match="outside the closed half-cube"):
            glued.e_map.inverse([-0.5] + [0.0] * (chart.dim - 1))


def test_chart_points_near_the_center_go_to_the_center():
    # a chart point whose rational cube point rounds to 0 is the center;
    # nothing in this range may raise
    chart = get_chart(2, 4)
    center = chart.inverse((0.0,) * chart.dim).rho
    rng = np.random.default_rng(15)
    for radius in (1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11):
        for _ in range(10):
            direction = rng.normal(size=chart.dim)
            direction /= np.linalg.norm(direction)
            back = chart.inverse(tuple(radius * direction)).rho
            keys = set(center.support()) | set(back.support())
            assert max(
                abs(float(center.coefficient(k) - back.coefficient(k)))
                for k in keys
            ) < 1e-9


@pytest.mark.parametrize("k, n", [(1, 3), (2, 3), (1, 4)])
def test_simplex_leaves_take_points_near_the_center_to_the_barycenter(k, n):
    # a norm that is not 0 takes the general path; the cube coordinates are
    # below what ``rationalize`` keeps, so they all round to 0
    chart = get_chart(k, n)
    leaf = chart._simplex
    barycenter = chart.inverse((0.0,) * chart.dim)
    assert barycenter.rho == normalize(
        MultiVector(n, k, {key: 1 for key in leaf.subsets})
    )
    rng = np.random.default_rng(16)
    for radius in (1e-16, 1e-15, 1e-14, 1e-13):
        for _ in range(10):
            direction = rng.normal(size=chart.dim)
            direction /= np.linalg.norm(direction)
            back = chart.inverse(tuple(radius * direction))
            assert back.rho == barycenter.rho
    assert chart.forward(barycenter).coords == (0.0,) * chart.dim


def reached_leaves() -> list[tuple[int, int]]:
    """(k, n) of every simplex leaf that the recursion of a chart which
    ``get_chart`` accepts reaches; building the charts builds no glued map."""
    leaves, todo = set(), [(2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (3, 7),
                           (4, 6), (4, 7), (4, 8)]
    for k, n in todo:
        chart = get_chart(k, n)
        if chart._simplex is not None:
            leaves.add((k, n))
        else:
            todo += [(side.base.k, side.base.n)
                     for side in (chart._e, chart._f)]
    return sorted(leaves)


LEAVES = reached_leaves()


def test_the_reached_leaves_are_grade_one_or_corank_one():
    assert LEAVES == [(1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)]


@pytest.mark.parametrize("k, n", LEAVES)
def test_simplex_cube_maps_are_exact_inverses(k, n):
    """The leaf's cube maps invert each other exactly (``==``): on rational
    cube points (the center, points with a coordinate at +-1, whose chamber
    points lie on the boundary, and points inside) and on nonnegative
    chamber points."""
    leaf = _SimplexChart(n, k)
    dim = leaf.count - 1
    rng = random.Random(17 + 10 * n + k)
    cube = [(Fraction(0),) * dim]
    for _ in range(30):
        z = [Fraction(rng.randint(-12, 12), rng.randint(1, 12))
             for _ in range(dim)]
        z = [max(min(v, Fraction(1)), Fraction(-1)) for v in z]
        if rng.random() < 0.3:
            z[rng.randrange(dim)] = Fraction(rng.choice((-1, 1)))
        cube.append(tuple(z))
    boundary = 0
    for z in cube:
        point = leaf.inverse(z)
        assert ChamberPoint(point.rho) == point
        assert leaf.forward(point) == z, z
        on_boundary = max(map(abs, z)) == 1
        assert (len(point.rho.support()) < leaf.count) == on_boundary
        boundary += on_boundary
    assert boundary >= 5
    for _ in range(30):
        point = random_nonneg_point(rng, k, n)
        z = leaf.forward(point)
        assert max(map(abs, z)) <= 1
        assert leaf.inverse(z) == point


# 10% above 4,004, the count of the guard below when the chart levels
# handed floats to each other
FRACTION_CAP = 4_004 * 11 // 10


def test_g24_round_trips_construct_few_fractions(monkeypatch):
    """A guard with no timing in it: 20 fixed G(2,4) round trips on a fresh
    chart, its glued map built first, construct at most FRACTION_CAP
    ``Fraction``s.  With every level mapping onto the cube over the
    rationals they make 2,871; with float handoffs between the levels they
    made 4,004 (4,810 with per-base RREF frames and dyadic exit times), and
    with ``Fraction`` constraints and leaves 17,263."""
    rng = random.Random(5)
    points = [random_nonneg_point(rng, 2, 4) for _ in range(20)]
    chart = BallChart(2, 4)
    chart._glued_map()
    made = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    backs = [chart.inverse(chart.forward(point)) for point in points]
    monkeypatch.undo()
    assert max(roundtrip_error(chart, p) for p in points) < 1e-6
    assert all(isinstance(b, ChamberPoint) for b in backs)
    assert made <= FRACTION_CAP, made


# 10% above 125, the count of the guard below when the base lookups were
# keyed by floats
LEAF_INVERSE_CAP = 125 * 11 // 10


def test_g24_round_trips_invert_each_base_cube_point_once(monkeypatch):
    """A guard with no timing in it: 20 fixed G(2,4) round trips on a fresh
    chart, its glued map built first, invert the base charts' simplex
    leaves at most LEAF_INVERSE_CAP times.  With one lookup per rounded
    rational cube point they make 64 leaf inversions; keyed by floats they
    made 125 (131 with per-base RREF frames), and with a lookup per call
    178."""
    rng = random.Random(5)
    points = [random_nonneg_point(rng, 2, 4) for _ in range(20)]
    chart = BallChart(2, 4)
    chart._glued_map()
    calls = 0
    inverse = _SimplexChart.inverse

    def counting(self, coords):
        nonlocal calls
        calls += 1
        return inverse(self, coords)

    monkeypatch.setattr(_SimplexChart, "inverse", counting)
    backs = [chart.inverse(chart.forward(point)) for point in points]
    monkeypatch.undo()
    assert max(roundtrip_error(chart, p) for p in points) < 1e-6
    assert all(isinstance(b, ChamberPoint) for b in backs)
    assert calls <= LEAF_INVERSE_CAP, calls


def test_g24_round_trips_enumerate_no_vertex_subsets(monkeypatch):
    """A guard with no timing in it: the 20 G(2,4) round trips above make
    no ``_subset_vertex`` call, as every G(2,4) fiber is an interval, whose
    vertices are read off its two bounds.  Through the subset search they
    made 148."""
    rng = random.Random(5)
    points = [random_nonneg_point(rng, 2, 4) for _ in range(20)]
    chart = BallChart(2, 4)
    chart._glued_map()
    calls = 0
    subset_vertex = convexoid._subset_vertex

    def counting(subset, dim):
        nonlocal calls
        calls += 1
        return subset_vertex(subset, dim)

    monkeypatch.setattr(convexoid, "_subset_vertex", counting)
    backs = [chart.inverse(chart.forward(point)) for point in points]
    monkeypatch.undo()
    assert max(roundtrip_error(chart, p) for p in points) < 1e-6
    assert all(isinstance(b, ChamberPoint) for b in backs)
    assert calls == 0, calls


def test_coordinates_too_large_for_a_float_are_outside_the_domain():
    """An integer chart coordinate too large for a float is refused as an
    infinite one is, not with an ``OverflowError``."""
    for big in (10**400, -10**400):
        with pytest.raises(DomainError):
            get_chart(2, 4).inverse([big, 0, 0, 0])
        with pytest.raises(DomainError):
            ball_chart_inverse([0, big, 0, 0], 2, 4)
        with pytest.raises(ValidationError):
            ChartPoint([big, 0, 0, 0])
    with pytest.raises(DomainError):
        get_chart(2, 4).inverse([float("inf"), 0, 0, 0])


def uncached_element_of_cube(side, z):
    """The base element of cube point z, looked up without the cache."""
    point = side.base._point_of_cube(convexoid.limit_point(z))
    return point.rho.shift(+1, n=side.n)


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5)])
def test_cached_base_lookups_equal_uncached_ones(k, n):
    """``element_of_cube`` caches by the rounded rational cube point: a
    point, the same point with an integer 0, and a point within 1e-15 of
    it, which rounds to it, share one entry, and every lookup equals the
    uncached one of its own input."""
    rng = random.Random(71)
    chart = BallChart(k, n)  # fresh, so that its caches start empty
    for side in (chart._e, chart._f):
        dim = side.base.dim
        for _ in range(4):
            z = [Fraction(rng.randint(-60, 60), 64) for _ in range(dim)]
            z[0] = Fraction(0)
            ints = [0] + z[1:]
            near = [v + Fraction(1, 10**15) for v in z]
            assert convexoid.limit_point(near) == tuple(z)
            before = len(side.elements)
            got = [side.element_of_cube(p) for p in (ints, z, near)]
            assert len(side.elements) == before + 1
            want = [uncached_element_of_cube(side, p)
                    for p in (ints, z, near)]
            assert got == want and repr(got) == repr(want)
            assert got[0] is got[1] is got[2]


def test_fibers_at_the_bottom_are_the_frames_own_polytopes():
    """At tau = 0 a side's oracle scales the frame's centered polytope by 1,
    which returns that polytope itself, its caches included."""
    chart = BallChart(2, 4)
    for side in (chart._e, chart._f):
        z = (Fraction(1, 5), Fraction(-2, 7))
        fiber = side.oracle((Fraction(0),) + z)
        assert fiber is side.frame(side.element_of_cube(z)).centered_polytope
        assert side.oracle((Fraction(1, 2),) + z) is not fiber


def test_unsupported_charts_are_refused_up_front():
    cap = convexoid.MAX_FIBER_DIM
    for k, n in ((2, 7), (5, 7)):
        with pytest.raises(ValidationError, match=f"above {cap} are not"):
            get_chart(k, n)
    for k in (2, 3, 4):  # fibers of dimension at most 3: built lazily
        assert get_chart(k, 6).dim == k * (6 - k)


def test_chart_accepts_raw_coordinate_sequences():
    point = ball_chart_inverse((0.0, 0.0, 0.0), 1, 4)
    assert point.rho == normalize(
        MultiVector(4, 1, {(1,): 1, (2,): 1, (3,): 1, (4,): 1})
    )


def test_chart_rejects_wrong_chamber():
    chart = get_chart(2, 4)
    with pytest.raises(ValidationError):
        chart.forward(ChamberPoint(MultiVector.basis(5, (1, 2))))


# -- points the chart builds unchecked -----------------------------------------------
# split, assemble, the simplex leaves and the sides build their chamber points
# and split triples without the checks of the public constructors, because
# the construction guarantees them.  Here the public constructors re-check
# every one.


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 5)])
def test_split_and_assemble_outputs_pass_the_public_checks(k, n):
    rng = random.Random(41 + n + k)
    for _ in range(30):
        point = random_nonneg_point(rng, k, n)
        s = split(point)
        assert SplitTriple(s.t, s.eta, s.omega) == s
        assert type(s.t) is Fraction
        back = assemble(s)
        assert ChamberPoint(back.rho) == back == point


@pytest.mark.parametrize("k, n, samples, ball_points",
                         [(1, 4, 0, 20), (3, 4, 0, 20), (2, 4, 20, 20),
                          (2, 5, 3, 6)])
def test_chart_inverse_outputs_pass_the_public_checks(monkeypatch, k, n,
                                                      samples, ball_points):
    """Every point and triple built unchecked on the way, in the simplex
    leaves and on both sides of the recursion, goes through the checking
    constructor instead, and the chart's results are unchanged."""
    built = collections.Counter()

    def checked_point(cls, rho):
        built["point"] += 1
        return ChamberPoint(rho)

    def checked_triple(cls, t, eta, omega):
        built["triple"] += 1
        return SplitTriple(t, eta, omega)

    chart = get_chart(k, n)
    rng = random.Random(42 + n + k)
    points = [random_nonneg_point(rng, k, n) for _ in range(samples)]
    balls = ball_samples(np.random.default_rng(42 + n + k), chart.dim,
                         ball_points)
    plain = [chart.inverse(chart.forward(p)) for p in points]
    plain += [chart.inverse(b) for b in balls]
    monkeypatch.setattr(ChamberPoint, "_unchecked", classmethod(checked_point))
    monkeypatch.setattr(SplitTriple, "_unchecked", classmethod(checked_triple))
    checked = [chart.inverse(chart.forward(p)) for p in points]
    checked += [chart.inverse(b) for b in balls]
    assert checked == plain
    assert all(ChamberPoint(p.rho) == p for p in checked)
    assert built["point"] >= samples + ball_points
    if k not in (1, n - 1):
        assert built["triple"] >= samples + ball_points
