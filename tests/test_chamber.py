"""Chamber splitting, assembling, and the fiber polytopes of the two halves."""

import random
from fractions import Fraction

import pytest

from grassball import lp
from grassball.chamber import (
    ChamberPoint,
    ContainmentError,
    EFiberFrame,
    FFiberFrame,
    SplitTriple,
    ValidationError,
    assemble,
    e_fiber,
    e_fiber_polytope,
    f_fiber,
    f_fiber_polytope,
    nudge_into,
    split,
)
from grassball.convexoid import vertices
from grassball.exterior import MultiVector, classify_sign, normalize, wedge
from grassball.plucker import PlaneMatrix, contains, plucker_of_matrix
from grassball.sampling import (
    random_nonneg_point,
    random_positive_point,
    random_rational,
)

SPACES = [(2, 4), (2, 5), (3, 5)]


def vandermonde_point():
    return ChamberPoint(
        normalize(plucker_of_matrix(PlaneMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])))
    )


def chebyshev_like_radius(poly):
    """Exact inscribed radius in the 1-norm sense; positive iff full-dim."""
    if poly.dim == 0:
        return Fraction(0)
    a_ub = []
    b_ub = []
    for normal, offset in poly.constraints:
        scale = sum(abs(v) for v in normal)
        a_ub.append(list(normal) + [scale])
        b_ub.append(offset)
    objective = [Fraction(0)] * poly.dim + [Fraction(1)]
    res = lp.lp_maximize(objective, a_ub, b_ub)
    assert res.status == lp.OPTIMAL
    return res.value


# -- validation ----------------------------------------------------------------


def test_chamber_point_validation():
    with pytest.raises(ValidationError):
        ChamberPoint(MultiVector(4, 2, {(1, 2): 2}))  # not normalized
    with pytest.raises(ValidationError):
        ChamberPoint(
            MultiVector(4, 2, {(1, 2): Fraction(3, 2), (3, 4): Fraction(-1, 2)})
        )
    with pytest.raises(ValidationError):
        ChamberPoint(
            MultiVector(
                4, 2, {(1, 2): Fraction(1, 2), (3, 4): Fraction(1, 2)}
            )
        )  # not decomposable


def test_split_triple_validation():
    eta = MultiVector.basis(4, (2,))
    omega = MultiVector.basis(4, (2, 3))
    SplitTriple(Fraction(1, 2), eta, omega)
    with pytest.raises(ValidationError):
        SplitTriple(Fraction(0), eta, omega)  # eta present at t = 0
    with pytest.raises(ValidationError):
        SplitTriple(Fraction(2), eta, omega)
    with pytest.raises(ContainmentError):
        SplitTriple(Fraction(1, 2), MultiVector.basis(4, (4,)), omega)
    with pytest.raises(ValidationError):
        SplitTriple(
            Fraction(1, 2), MultiVector.basis(4, (1,)), omega
        )  # touches index 1
    crossed = MultiVector(5, 2, {(2, 3): Fraction(1, 2), (4, 5): Fraction(1, 2)})
    with pytest.raises(ValidationError, match="omega must be decomposable"):
        SplitTriple(Fraction(1, 2), MultiVector.basis(5, (2,)), crossed)


# -- split / assemble -------------------------------------------------------------


def test_split_degenerate_cases():
    s1 = split(ChamberPoint(MultiVector.basis(4, (1, 2))))
    assert s1.t == 1 and s1.omega is None
    assert s1.eta == MultiVector.basis(4, (2,))
    s0 = split(ChamberPoint(MultiVector.basis(4, (2, 3))))
    assert s0.t == 0 and s0.eta is None
    assert s0.omega == MultiVector.basis(4, (2, 3))


def test_split_worked_example_exact():
    s = split(vandermonde_point())
    assert s.t == Fraction(3, 5)
    assert s.eta == MultiVector(
        4, 1, {(2,): Fraction(1, 6), (3,): Fraction(1, 3), (4,): Fraction(1, 2)}
    )
    assert s.omega == MultiVector(
        4,
        2,
        {(2, 3): Fraction(1, 4), (2, 4): Fraction(1, 2), (3, 4): Fraction(1, 4)},
    )
    assert assemble(s).rho == vandermonde_point().rho


def test_assemble_degenerate_cases():
    t1 = assemble(SplitTriple(Fraction(1), MultiVector.basis(4, (2,)), None))
    assert t1.rho == MultiVector.basis(4, (1, 2))
    t0 = assemble(SplitTriple(Fraction(0), None, MultiVector.basis(4, (2, 3))))
    assert t0.rho == MultiVector.basis(4, (2, 3))


@pytest.mark.parametrize("k,n", SPACES)
def test_split_assemble_mutual_inverse_random(k, n):
    rng = random.Random(400 + k + 10 * n)
    for _ in range(80):
        point = random_nonneg_point(rng, k, n)
        s = split(point)
        assert assemble(s).rho == point.rho
        s2 = split(assemble(s))
        assert s2.t == s.t and s2.eta == s.eta and s2.omega == s.omega


def test_t_is_one_lipschitz_in_rho():
    rng = random.Random(14)
    for _ in range(40):
        a = random_positive_point(rng, 2, 4)
        b = random_positive_point(rng, 2, 4)
        l1 = sum(
            abs(a.rho.coefficient(key) - b.rho.coefficient(key))
            for key in set(a.rho.support()) | set(b.rho.support())
        )
        dt = abs(split(a).t - split(b).t)
        assert dt <= l1


# -- fiber polytopes ---------------------------------------------------------------


def test_f_fiber_positive_eta_has_interior():
    s = split(vandermonde_point())
    poly = f_fiber_polytope(s.eta)
    assert chebyshev_like_radius(poly) > 0


def test_f_fiber_corank_one_is_a_point():
    # grade n-2 on indices 2..n means corank one there: a unique fiber point
    eta = normalize(
        MultiVector(4, 2, {(2, 3): 1, (2, 4): 1, (3, 4): 1})
    )
    frame = f_fiber(eta)
    assert frame.dim == 0
    assert vertices(frame.polytope) == [()]
    omega = frame.element_of_point(())
    assert omega.k == 3 and contains(eta, omega)


def test_f_fiber_segment_example():
    # eta = e_2 with omega ranging over e_2 ^ (b e_3 + c e_4): a segment
    frame = f_fiber(MultiVector.basis(4, (2,)))
    assert frame.dim == 1
    ends = vertices(frame.polytope)
    assert len(ends) == 2
    omegas = [frame.element_of_point(v) for v in ends]
    keys = {tuple(mv.support()) for mv in omegas}
    assert keys == {((2, 3),), ((2, 4),)}


def test_e_fiber_segment_example():
    frame = e_fiber(MultiVector.basis(4, (2, 3)))
    assert frame.dim == 1
    ends = vertices(frame.polytope)
    etas = [frame.element_of_point(v) for v in ends]
    keys = {tuple(mv.support()) for mv in etas}
    assert keys == {((2,),), ((3,),)}


def test_e_fiber_positive_interior():
    s = split(vandermonde_point())
    poly = e_fiber_polytope(s.omega)
    assert chebyshev_like_radius(poly) > 0


def test_e_fiber_affine_hull_dimension_bound():
    rng = random.Random(15)
    for _ in range(100):
        point = random_positive_point(rng, 2, 5)
        s = split(point)
        frame = e_fiber(s.omega)
        assert frame.dim <= s.omega.k - 1
        verts = vertices(frame.polytope)
        assert verts, "Lemma 1.1 guarantees a nonempty fiber"


def test_fiber_frames_round_trip_points():
    rng = random.Random(16)
    for _ in range(30):
        point = random_positive_point(rng, 2, 5)
        s = split(point)
        eframe = e_fiber(s.omega)
        y = eframe.point_of_element(s.eta)
        assert eframe.element_of_point(y) == s.eta
        fframe = f_fiber(s.eta)
        z = fframe.point_of_element(s.omega)
        assert fframe.element_of_point(z) == s.omega
        # the fiber coordinates lie in their polytopes exactly
        assert eframe.polytope.contains_point(y)
        assert fframe.polytope.contains_point(z)


def test_fiber_polytopes_vary_continuously():
    """Vertex Hausdorff distance shrinks along a convergent base ladder."""
    target = split(vandermonde_point()).eta
    perturbed = []
    for step in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        shifted = normalize(
            target + MultiVector(4, 1, {(2,): step, (4,): step})
        )
        perturbed.append(shifted)

    def hausdorff(a, b):
        va = [tuple(map(float, v)) for v in vertices(f_fiber_polytope(a))]
        vb = [tuple(map(float, v)) for v in vertices(f_fiber_polytope(b))]
        d = 0.0
        for u in va:
            d = max(d, min(sum((x - y) ** 2 for x, y in zip(u, w)) for w in vb))
        for w in vb:
            d = max(d, min(sum((x - y) ** 2 for x, y in zip(u, w)) for u in va))
        return d

    distances = [hausdorff(p, target) for p in perturbed]
    assert distances[0] > distances[1] > distances[2]
    assert distances[2] < 1e-4


def test_nudge_into_pulls_points_inside():
    s = split(vandermonde_point())
    poly = e_fiber_polytope(s.omega)
    far = tuple(Fraction(10) for _ in range(poly.dim))
    pulled = nudge_into(poly, far)
    assert poly.contains_point(pulled)
    inside = vertices(poly)[0]
    assert nudge_into(poly, inside) == inside


def test_fiber_validation_errors():
    with pytest.raises(Exception):
        e_fiber(MultiVector.basis(4, (1, 2)))  # touches index 1
    with pytest.raises(Exception):
        f_fiber(MultiVector(4, 1, {(2,): 2}))  # not normalized
