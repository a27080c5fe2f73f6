"""Chamber splitting, assembling, and the fiber polytopes of the two halves."""

import collections
import copy
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from grassball import convexoid, lemmas, linalg, lp
from grassball.chamber import (
    BallChart,
    ChamberPoint,
    ContainmentError,
    EFiberFrame,
    FFiberFrame,
    FiberFrame,
    SplitTriple,
    ValidationError,
    assemble,
    e_fiber,
    f_fiber,
    nudge_into,
    split,
)
from grassball.convexoid import HPolytope, vertices
from grassball.exterior import (
    DECOMPOSABLE,
    MultiVector,
    classify_sign,
    contract,
    contract_ints,
    normalize,
    wedge,
)
from grassball.plucker import (
    PlaneMatrix,
    contains,
    plane_vectors,
    plucker_of_matrix,
)
from grassball.sampling import (
    random_nonneg_point,
    random_positive_point,
    random_rational,
)

SPACES = [(2, 4), (2, 5), (3, 5)]


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


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


@pytest.mark.parametrize("k,n", [(3, 7), (4, 8)])
def test_split_parts_carry_the_decomposable_mark(k, n):
    """The index-1 parts of a rho known to be decomposable are marked, and
    read the planes that the full check reads on unmarked copies; a rho
    whose plane is unknown gives unmarked parts."""
    rng = random.Random(410 + k + 10 * n)
    marked = 0
    for _ in range(20):
        point = random_nonneg_point(rng, k, n)  # checked, so its plane is read
        triple = split(point)
        unknown = split(ChamberPoint._unchecked(
            MultiVector(n, k, point.rho.coeffs)))
        for part, fresh in ((triple.eta, unknown.eta),
                            (triple.omega, unknown.omega)):
            if part is None or part is point.rho:  # t = 0 keeps rho as omega
                continue
            assert part._plane is DECOMPOSABLE
            assert getattr(fresh, "_plane", None) is None
            assert plane_vectors(part) == plane_vectors(fresh)
            marked += 1
        if triple.t == 1:
            assert assemble(triple).rho._plane is DECOMPOSABLE
    assert marked >= 10


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
    poly = f_fiber(s.eta).polytope
    assert chebyshev_like_radius(poly) > 0


def test_f_fiber_corank_one_is_a_point():
    # grade n-2 on indices 2..n means corank one there: a unique fiber point
    eta = normalize(
        MultiVector(4, 2, {(2, 3): 1, (2, 4): 1, (3, 4): 1})
    )
    frame = f_fiber(eta)
    assert frame.dim == 0
    assert vertices(frame.polytope) == [()]
    omega = frame.element_of(())
    assert omega.k == 3 and contains(eta, omega)


def test_f_fiber_segment_example():
    # eta = e_2 with omega ranging over e_2 ^ (b e_3 + c e_4): a segment
    frame = f_fiber(MultiVector.basis(4, (2,)))
    assert frame.dim == 1
    ends = vertices(frame.polytope)
    assert len(ends) == 2
    omegas = [frame.element_of(v) for v in ends]
    keys = {tuple(mv.support()) for mv in omegas}
    assert keys == {((2, 3),), ((2, 4),)}


def test_e_fiber_segment_example():
    frame = e_fiber(MultiVector.basis(4, (2, 3)))
    assert frame.dim == 1
    ends = vertices(frame.polytope)
    etas = [frame.element_of(v) for v in ends]
    keys = {tuple(mv.support()) for mv in etas}
    assert keys == {((2,),), ((3,),)}


def test_e_fiber_positive_interior():
    s = split(vandermonde_point())
    poly = e_fiber(s.omega).polytope
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
        y = eframe.point_of(s.eta)
        assert eframe.element_of(y) == s.eta
        fframe = f_fiber(s.eta)
        z = fframe.point_of(s.omega)
        assert fframe.element_of(z) == s.omega
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
        va = [tuple(map(float, v)) for v in vertices(f_fiber(a).polytope)]
        vb = [tuple(map(float, v)) for v in vertices(f_fiber(b).polytope)]
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
    poly = e_fiber(s.omega).polytope
    far = tuple(Fraction(10) for _ in range(poly.dim))
    pulled = nudge_into(poly, far)
    assert poly.contains_point(pulled)
    inside = vertices(poly)[0]
    assert nudge_into(poly, inside) == inside


def reference_nudge_into(poly, y):
    """The ratio loop ``nudge_into`` ran before it called
    ``convexoid.radial``: from the vertex mean c toward y, the least
    (offset - n . c) / (n . (y - c)) over rows with n . (y - c) > 0, started
    at 1 and floored at 0."""
    y = tuple(Fraction(v) for v in y)
    if poly.contains_point(y):
        return y
    verts = vertices(poly)
    center = tuple(
        sum((v[i] for v in verts), Fraction(0)) / len(verts)
        for i in range(poly.dim)
    )
    direction = tuple(a - b for a, b in zip(y, center))
    lam = Fraction(1)
    for normal, offset in poly.constraints:
        num = offset - dot(normal, center)
        den = dot(normal, direction)
        if den > 0 and num < den * lam:
            lam = num / den
    lam = max(lam, Fraction(0))
    return tuple(c + lam * d for c, d in zip(center, direction))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nudge_into_equals_its_ratio_loop(dim):
    """Boxes cut by random rows, with points inside, just outside and far
    outside, some of them flat, against the ratio loop."""
    rng = random.Random(40 + dim)
    moved = 0
    for _ in range(60):
        cons = []
        for i in range(dim):
            e = [Fraction(0)] * dim
            e[i] = Fraction(1)
            cons.append((tuple(e), Fraction(rng.randint(0, 5), 4)))
            cons.append((tuple(-x for x in e), Fraction(rng.randint(0, 5), 3)))
        for _ in range(rng.randint(0, 3)):
            normal = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
            if any(normal):
                cons.append((normal, Fraction(rng.randint(0, 6), 5)))
        poly = HPolytope(dim, cons)
        for _ in range(5):
            y = tuple(Fraction(rng.randint(-40, 40), rng.choice((4, 7, 16)))
                      for _ in range(dim))
            got = nudge_into(poly, y)
            assert got == reference_nudge_into(poly, y)
            assert poly.contains_point(got)
            if got != y:  # moved onto the boundary, short of y
                moved += 1
                assert not poly.contains_point(y)
                assert any(dot(n, got) == o
                           for n, o in poly.constraints)
    assert moved > 100


def test_fiber_validation_errors():
    with pytest.raises(
        ValidationError, match=r"^omega must be supported on indices 2\.\.n$"
    ) as info:
        e_fiber(MultiVector.basis(4, (1, 2)))  # touches index 1
    assert type(info.value) is ValidationError
    with pytest.raises(ValueError, match="^multivector is not normalized$") \
            as info:
        f_fiber(MultiVector(4, 1, {(2,): 2}))  # not normalized
    assert type(info.value) is ValueError
    with pytest.raises(
        ValidationError, match="^the normalization functional vanishes$"
    ) as info:
        FiberFrame(MultiVector.basis(4, (2, 3)), [], contract_ints, 1)
    assert type(info.value) is ValidationError


def test_point_of_rejects_elements_off_the_fiber():
    frame = e_fiber(MultiVector.basis(4, (2, 3)))
    with pytest.raises(
        ValidationError, match="^eta is not contained in the fiber family$"
    ) as info:
        frame.point_of(MultiVector.basis(4, (4,)))
    assert type(info.value) is ValidationError
    with pytest.raises(
        ValidationError, match="^eta does not lie on the normalized slice$"
    ) as info:
        frame.point_of(MultiVector(4, 1, {(2,): 1, (3,): 1}))
    assert type(info.value) is ValidationError
    # both: the containment check comes first
    with pytest.raises(ValidationError, match="not contained"):
        frame.point_of(MultiVector(4, 1, {(2,): 1, (4,): 1}))
    frame = f_fiber(MultiVector.basis(4, (2,)))
    with pytest.raises(
        ValidationError, match="^omega is not contained in the fiber family$"
    ):
        frame.point_of(MultiVector.basis(4, (3, 4)))
    with pytest.raises(
        ValidationError, match="^omega does not lie on the normalized slice$"
    ):
        frame.point_of(MultiVector(4, 2, {(2, 3): 2}))


# -- integer frames against their Fraction form --------------------------------------
# A ``FiberFrame`` is one integer affine map in slice coordinates.  The
# oracle below is its Fraction form, kept as the reference: the pivot point
# and kernel of the slice sum == 1, the images built by Fraction multivector
# arithmetic, a checked ``HPolytope``, the centroid through vertex
# enumeration and the barycenter, and the element of a slice point as the
# origin's image plus the basis images at that point.  The elements are
# compared at the centroid, at every vertex and at seeded interior
# rationals.  Every comparison is on ``repr``.


def probe_points(center, verts, rng):
    """The centroid, the vertices, and three seeded rational convex
    combinations of the vertices of a polytope."""
    dim = len(verts[0])
    points = [center] + list(verts)
    for _ in range(3):
        weights = [Fraction(rng.randint(1, 9)) for _ in verts]
        total = sum(weights)
        points.append(tuple(
            sum((w * v[i] for w, v in zip(weights, verts)), Fraction(0))
            / total
            for i in range(dim)
        ))
    return points


def reference_frame(frame_cls, base, rng):
    """repr of the frame's polytope, its vertices and centroid, and the
    elements at the probe points over base, or the error raised."""
    try:
        return _reference_frame(frame_cls, base, rng)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def reference_rows(n, count, alternate):
    """The frames' fixed totally positive reference as ``Fraction`` rows:
    row i is 0 at index 1 and (+-(i + 1))^j at index j + 2, the base
    negated when ``alternate``."""
    sign = -1 if alternate else 1
    return [
        (Fraction(0),) + tuple(Fraction((sign * (i + 1)) ** j)
                               for j in range(n - 1))
        for i in range(count)
    ]


def reference_generators(frame_cls, base):
    """(generator rows, image map, fiber grade) of the frame over base:
    k reference rows contracting omega (E), or n - 1 - k alternating ones
    wedging eta (F)."""
    if frame_cls is EFiberFrame:
        return reference_rows(base.n, base.k, False), contract, base.k - 1
    return (reference_rows(base.n, base.n - 1 - base.k, True), wedge,
            base.k + 1)


def _reference_frame(frame_cls, base, rng):
    generators, image, grade = reference_generators(frame_cls, base)
    images = [image(base, MultiVector.from_vector(r)) for r in generators]
    values = [img.coefficient_sum() for img in images]
    pivot = next((j for j, v in enumerate(values) if v), None)
    if pivot is None:
        raise ValidationError("the normalization functional vanishes")
    # the pivot point e_p / v_p, with p the first generator of nonzero sum
    origin = [Fraction(int(j == pivot)) / values[pivot]
              for j in range(len(values))]
    kernel = linalg.kernel_basis([values], len(values))
    zero = MultiVector.zero(base.n, grade)

    def combine(coords):
        out = zero
        for c, img in zip(coords, images):
            if c:
                out = out + img * c
        return out

    origin_image = combine(origin)
    basis_images = [combine(kc) for kc in kernel]
    support = sorted(set(origin_image.support()).union(
        *[img.support() for img in basis_images]))
    constraints = []
    for key in support:
        normal = tuple(-img.coefficient(key) for img in basis_images)
        if any(normal):
            constraints.append((normal, origin_image.coefficient(key)))
    dim = len(kernel)
    poly = HPolytope(dim, constraints)
    verts = vertices(poly)
    center = reference_centroid(poly, verts)
    probes = probe_points(center, verts, rng)

    def element(y):
        out = origin_image
        for v, img in zip(y, basis_images):
            out = out + img * v
        return out

    return {
        "dim": repr(dim),
        "polytope": repr((poly.dim, poly.constraints)),
        "centroid": repr(center),
        "vertices": repr(verts),
        "probes": probes,
        "elements": repr([element(p) for p in probes]),
    }


def reference_centroid(poly, verts):
    """The hull centroid through the vertices: a point, the barycenter of a
    full body, or that of a flat one in an orthogonal frame of its span (by
    Gram-Schmidt), as the polytope of its constraints in that frame."""
    if not verts:
        raise convexoid.DegenerateError("empty polytope")
    if poly.dim == 0 or len(verts) == 1:
        return verts[0]
    base = verts[0]
    frame = []
    for v in verts[1:]:
        vec = [a - b for a, b in zip(v, base)]
        for f in frame:
            coeff = dot(vec, f) / dot(f, f)
            vec = [x - coeff * y for x, y in zip(vec, f)]
        if any(vec):
            frame.append(tuple(vec))
    if len(frame) == poly.dim:
        return convexoid.barycenter(poly)
    rows = [
        (tuple(dot(n, f) for f in frame), o - dot(n, base))
        for n, o in poly.constraints
    ]
    mid = convexoid.barycenter(
        HPolytope(len(frame), [(n, o) for n, o in rows if any(n)])
    )
    return tuple(
        b + sum((c * f[i] for c, f in zip(mid, frame)), Fraction(0))
        for i, b in enumerate(base)
    )


def frame_state(frame_cls, base, probes):
    """The reference's entries for the frame over base, its elements at the
    probe points, and that ``point_of`` gives the probes back."""
    try:
        frame = frame_cls(base)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    elements = [frame.element_of(p) for p in probes]
    assert [frame.point_of(e) for e in elements] == probes
    return {
        "dim": repr(frame.dim),
        "polytope": repr((frame.polytope.dim, frame.polytope.constraints)),
        "centroid": repr(convexoid.centroid(frame.polytope)),
        "vertices": repr(vertices(frame.polytope)),
        "probes": probes,
        "elements": repr(elements),
    }


def check_frame(frame_cls, base, rng):
    """frame_state against reference_frame; the frame's dim or error."""
    want = reference_frame(frame_cls, base, rng)
    probes = want["probes"] if isinstance(want, dict) else []
    got = frame_state(frame_cls, base, probes)
    assert got == want, (frame_cls, base)
    return got["dim"] if isinstance(got, dict) else got


def frame_bases(triples):
    """(frame class, base) for each part of the triples, de-duplicated."""
    bases = {}
    for s in triples:
        if s.omega is not None:
            bases[(EFiberFrame, s.omega)] = None
        if s.eta is not None:
            bases[(FFiberFrame, s.eta)] = None
    return list(bases)


def chart_frame_bases(k, n, samples, ball_points, seed):
    """Bases of every frame a fresh (k, n) chart builds on chamber samples
    (forward and inverse) and on random ball points (inverse)."""
    chart = BallChart(k, n)
    rng = random.Random(seed)
    for _ in range(samples):
        chart.inverse(chart.forward(random_nonneg_point(rng, k, n)))
    nrng = np.random.default_rng(seed)
    for _ in range(ball_points):
        g = nrng.normal(size=chart.dim)
        chart.inverse(g / np.linalg.norm(g) * nrng.uniform(0, 0.95))
    return [(EFiberFrame, b) for b in chart._e.frames] + [
        (FFiberFrame, b) for b in chart._f.frames
    ]


def coordinate_bases(k, n):
    return frame_bases(
        split(ChamberPoint(MultiVector.basis(n, key)))
        for key in combinations(range(1, n + 1), k)
    )


def test_integer_frames_match_fraction_oracle_on_the_g24_chart():
    bases = chart_frame_bases(2, 4, 40, 40, 61) + coordinate_bases(2, 4)
    assert len(bases) >= 100
    rng = random.Random(63)
    dims = {check_frame(frame_cls, base, rng) for frame_cls, base in bases}
    assert dims == {"1"}, dims


@pytest.mark.parametrize("k,n", [(2, 5), (3, 5)])
def test_integer_frames_match_fraction_oracle_with_2d_fibers(k, n):
    rng = random.Random(62 + n + k)
    triples = [split(random_positive_point(rng, k, n)) for _ in range(6)]
    triples += [split(random_nonneg_point(rng, k, n)) for _ in range(10)]
    dims = {
        check_frame(frame_cls, base, rng)
        for frame_cls, base in frame_bases(triples) + coordinate_bases(k, n)
    }
    assert "2" in dims, dims


# -- generator images and frame sizes ------------------------------------------------


def test_frame_images_match_multivector_images():
    """Each frame's integer images over its one denominator are, as
    rationals, the contractions of omega by the reference rows (E) and the
    wedges of eta with the alternating reference rows (F)."""
    rng = random.Random(73)
    bases = [(EFiberFrame, MultiVector.basis(4, (2, 3))),
             (FFiberFrame, MultiVector.basis(4, (2,)))]
    for k, n in [(2, 4), (2, 5), (3, 5), (4, 6)]:
        triples = [split(random_positive_point(rng, k, n)) for _ in range(2)]
        triples += [split(random_nonneg_point(rng, k, n)) for _ in range(6)]
        bases += frame_bases(triples)
    sides = set()
    for frame_cls, base in bases:
        frame = frame_cls(base)
        rows, image, _ = reference_generators(frame_cls, base)
        want = [image(base, MultiVector.from_vector(r)) for r in rows]
        got = [
            {key: Fraction(c, frame._den) for key, c in ints.items()}
            for ints in frame._ints
        ]
        assert got == [img.coeffs for img in want], (frame_cls, base)
        sides.add((frame_cls, base.n))
    assert len(sides) == 6, sides  # both sides in R^4, R^5 and R^6


# The bit lengths of every frame map and polytope row over 40 seeded G(2,4)
# frames.  With the slice origin at v D / |v|^2 they summed to 23,565; from
# the pivot point 11,252, and with the fixed reference generators in place
# of each base's RREF rows they sum to 7,713.
FRAME_BITS = 7_713


def test_g24_frame_rows_stay_small():
    rng = random.Random(5)
    bases = {}
    while len(bases) < 40:
        bases.update(dict.fromkeys(
            frame_bases([split(random_nonneg_point(rng, 2, 4))])))
    bits = 0
    for frame_cls, base in list(bases)[:40]:
        frame = frame_cls(base)
        bits += sum(abs(c).bit_length()
                    for m in frame._maps for c in m.values())
        bits += sum(abs(x).bit_length()
                    for row in frame.polytope._rows for x in row)
    assert bits <= FRAME_BITS * 11 // 10, bits


# -- slice points by integer elimination ---------------------------------------------


def solve_point_of(frame, element):
    """``point_of`` through ``linalg.solve``, the reference for the
    integer solve: the generator images as integer columns, and the
    element's ``Fraction`` coefficients times the images' denominator as
    the right-hand side."""
    keys = sorted(set(element._ints).union(*frame._ints))
    x = linalg.solve(
        [[ints.get(key, 0) for ints in frame._ints] for key in keys],
        [frame._den * element.coefficient(key) for key in keys],
    )
    if x is None:
        raise ValidationError(
            f"{frame.fiber_part} is not contained in the fiber family"
        )
    if element.coefficient_sum() != 1:
        raise ValidationError(
            f"{frame.fiber_part} does not lie on the normalized slice"
        )
    return tuple(x[f] for f in frame._free)


def point_or_error(solve, frame, element):
    """(point, its repr), or (error type, message)."""
    try:
        point = solve(frame, element)
    except ValueError as exc:
        return type(exc), str(exc)
    return point, repr(point)


def test_point_of_matches_its_fraction_solve():
    """The integer solve gives the ``linalg.solve`` points, by value and
    type, on elements of the family, and the same errors on elements off
    the slice or outside the family; with a generator image repeated, so
    that the system is rank-deficient, it still agrees."""
    rng = random.Random(81)
    bases = []
    for k, n in [(2, 4), (2, 5), (3, 5), (4, 6)]:
        triples = [split(random_positive_point(rng, k, n)) for _ in range(2)]
        triples += [split(random_nonneg_point(rng, k, n)) for _ in range(3)]
        bases += frame_bases(triples)
    assert {frame_cls for frame_cls, _ in bases} == {EFiberFrame, FFiberFrame}
    seen = collections.Counter()
    for frame_cls, base in bases:
        frame = frame_cls(base)
        repeated = copy.copy(frame)
        repeated._ints = frame._ints + [frame._ints[-1]]
        verts = vertices(frame.polytope)
        mean = tuple(sum(v[i] for v in verts) / len(verts)
                     for i in range(frame.dim))
        probes = verts + [mean]
        family = [frame.element_of(p) for p in probes]
        n, grade = base.n, frame._grade
        outside = [MultiVector.basis(n, (1,) + tuple(range(2, grade + 1)))]
        outside += [
            normalize(family[-1] + MultiVector.basis(n, key))
            for key in combinations(range(2, n + 1), grade)
        ]
        off_slice = [el * 2 for el in family[-2:]]
        for element in family + off_slice + outside:
            want = point_or_error(solve_point_of, frame, element)
            assert point_or_error(FiberFrame.point_of, frame, element) == want
            for solve in (FiberFrame.point_of, solve_point_of):
                assert point_or_error(solve, repeated, element) == want
            if want[0] is ValidationError:
                seen[want[1].split(" ", 1)[1]] += 1
            else:
                assert all(type(c) is Fraction for c in want[0])
                seen["point"] += 1
        assert [frame.point_of(el) for el in family] == probes
    assert seen["point"] >= 3 * len(bases), seen
    assert seen["does not lie on the normalized slice"] >= len(bases), seen
    assert seen["is not contained in the fiber family"] >= len(bases), seen


def test_frames_that_only_map_points_compute_no_centroid(monkeypatch):
    """A frame computes no centroid of its own: one used only through
    ``point_of`` and ``element_of`` makes no ``_hull_centroid`` call.  When
    each frame centered its polytope on construction it made one per
    frame."""
    rng = random.Random(83)
    triples = [split(sample(rng, k, n))
               for k, n in [(2, 4), (2, 5), (3, 5), (2, 6), (4, 6)]
               for sample in (random_positive_point, random_nonneg_point)
               for _ in range(2)]
    calls = built = 0
    hull_centroid = convexoid._hull_centroid

    def counting(poly):
        nonlocal calls
        calls += 1
        return hull_centroid(poly)

    monkeypatch.setattr(convexoid, "_hull_centroid", counting)
    for s in triples:
        for frame_cls, base, fiber in ((EFiberFrame, s.omega, s.eta),
                                       (FFiberFrame, s.eta, s.omega)):
            if base is None or fiber is None:
                continue
            frame = frame_cls(base)
            built += 1
            assert frame.element_of(frame.point_of(fiber)) == fiber
    assert built >= 20, built
    assert calls == 0, calls


# -- no Fraction rows or kernel solves on the plane paths ----------------------------


def test_chart_and_witnesses_solve_no_kernel(monkeypatch):
    """Chart round trips build their frames from the fixed reference, and
    witnesses their bases from the planes' integer rows: no kernel solve,
    RREF or dense-vector element."""
    rng = random.Random(44)
    samples = {
        (k, n): [random_positive_point(rng, k, n) for _ in range(3)]
        for k, n in [(2, 4), (2, 5)]
    }
    witness_inputs = [random_positive_point(rng, 3, 7).rho for _ in range(2)]

    def refuse(*args, **kwargs):
        raise AssertionError("a plane was rebuilt the long way")

    monkeypatch.setattr(linalg, "kernel_basis", refuse)
    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(MultiVector, "from_vector", refuse)
    for (k, n), points in samples.items():
        chart = BallChart(k, n)  # fresh, so every frame is built here
        for point in points:
            back = chart.inverse(chart.forward(point))
            assert max(
                abs(float(point.rho.coefficient(key) - back.rho.coefficient(key)))
                for key in set(point.rho.support()) | set(back.rho.support())
            ) < 1e-6
    for rho in witness_inputs:
        assert contains(lemmas.shrink_positive(rho), rho)
        assert contains(rho, lemmas.extend_positive(rho))


EMPTY = HPolytope(1, [((1,), 0), ((-1,), -1)])  # x <= 0 and x >= 1


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: SplitTriple(Fraction(1, 2), MultiVector.basis(4, (2,)),
                                     None),
                 "omega must be present exactly when t < 1", id="no omega"),
    pytest.param(lambda: SplitTriple(Fraction(1, 2), MultiVector.basis(4, (2,)),
                                     MultiVector.basis(4, (2, 3, 4))),
                 "eta must have grade one below omega", id="grade gap"),
    pytest.param(lambda: nudge_into(EMPTY, (5,)),
                 "cannot nudge into an empty polytope", id="empty polytope"),
    pytest.param(lambda: BallChart(0, 4), "no chamber for grade 0",
                 id="grade 0 chart"),
])
def test_public_input_checks_raise_validation_errors(build, message):
    with pytest.raises(ValidationError, match=message):
        build()
