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
    assemble,
    ball_chart,
    ball_chart_inverse,
    get_chart,
    split,
)
from grassball.convexoid import DomainError
from grassball.exterior import MultiVector, classify_sign, normalize
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


def test_top_grade_chart_is_trivial():
    chart = get_chart(3, 3)
    point = ChamberPoint(MultiVector.basis(3, (1, 2, 3)))
    assert chart.forward(point).coords == ()
    assert chart.inverse(()).rho == point.rho


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
    """The half-ball maps find every chart fiber already centered, the
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


@pytest.mark.slow
@pytest.mark.parametrize("k, n", [(2, 6), (4, 6)])
def test_charts_with_3d_fibers_round_trip(k, n):
    """G(2,6) and G(4,6), the charts whose fibers are 3-D: each takes about
    40 s and 2 minutes on a 2-core host."""
    chart = get_chart(k, n)
    rng = random.Random(39)
    for _ in range(3):
        point = random_positive_point(rng, k, n)
        assert float(np.linalg.norm(chart.forward(point).coords)) <= 1
        assert roundtrip_error(chart, point) <= 1e-9


# Known defects are strict xfails, so that a fix shows up as an XPASS.
DEFECTS = {
    (2, 5, (1, 2)): (AssertionError, "round-trip error 0.715"),
    (2, 5, (1, 3)): (AssertionError, "round-trip error 5.1e-3"),
    (2, 5, (1, 5)): (DomainError, "fiber point outside its polytope"),
    (3, 5, (1, 2, 3)): (DomainError, "fiber point outside its polytope"),
    (3, 5, (1, 2, 5)): (DomainError, "fiber point outside its polytope"),
    (3, 5, (1, 3, 5)): (AssertionError, "round-trip error 0.136"),
}


def _coordinate_point_param(k, n, key):
    marks = ()
    if (k, n, key) in DEFECTS:
        raises, reason = DEFECTS[k, n, key]
        marks = pytest.mark.xfail(strict=True, raises=raises, reason=reason)
    name = f"G{k}{n}-e" + "".join(map(str, key))
    return pytest.param(k, n, key, marks=marks, id=name)


COORDINATE_POINTS = [
    _coordinate_point_param(k, n, key)
    for k, n in [(2, 5), (3, 5)]
    for key in combinations(range(1, n + 1), k)
]


@pytest.mark.parametrize("k, n, key", COORDINATE_POINTS)
def test_coordinate_points_reach_sphere_and_round_trip(k, n, key):
    chart = get_chart(k, n)
    point = ChamberPoint(MultiVector.basis(n, key))
    norm = float(np.linalg.norm(chart.forward(point).coords))
    assert abs(norm - 1) < 1e-4
    assert roundtrip_error(chart, point) < 1e-6


# -- interface edges ---------------------------------------------------------------


def test_chart_point_validation_and_inverse_domain():
    with pytest.raises(ValidationError):
        ChartPoint((1.0, 1.0))
    with pytest.raises(DomainError):
        ball_chart_inverse((0.9, 0.9, 0.9, 0.9), 2, 4)
    with pytest.raises(ValidationError):
        get_chart(2, 4).inverse((0.0, 0.0))  # wrong dimension


def test_chart_points_near_the_center_go_to_the_center():
    # the half-ball maps take a point whose rational direction rounds to 0
    # for the center; nothing in this range may raise
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


def ball_samples(rng, dim, count):
    out = []
    for _ in range(count):
        g = rng.normal(size=dim)
        out.append(g / np.linalg.norm(g) * rng.uniform(0, 0.98))
    return out


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
