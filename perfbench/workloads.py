"""Seeded inputs, timed operations and correctness gates of each workload.

An op is one unit of work, timed on its own.  ``g24_sweep`` times ``forward``
then ``inverse`` of one G(2,4) chamber point; ``convexoid_2d`` times
``to_half_ball`` then ``from_half_ball`` of one point of a convexoid with 2-D
fibers; ``exact_algebra`` times the exact chain plucker_of_matrix ->
normalize -> ChamberPoint -> split -> assemble -> shrink_positive ->
extend_positive -> contains.  Inputs are made from the seed alone, before any
timing, and the library is driven only through its public calls.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from grassball import (chamber, convexoid, exterior, from_half_ball, lemmas,
                       plucker, sampling, to_half_ball)

CHART = "g24_sweep"
CHART_K, CHART_N = 2, 4
CONVEXOID = "convexoid_2d"
EXACT = "exact_algebra"
WORKLOADS = (CHART, CONVEXOID, EXACT)

# Chart inputs come from sampling.random_nonneg_point, sorted into strata:
# I / J interior with t <= 1/2 (E side) / t > 1/2 (F side), C coordinate
# planes, U the t = 1 stratum, Z the t = 0 stratum.  A fixed order of quotas
# per block of 20 keeps every run's mix the same, so run-to-run spread
# measures the program and not the luck of the draw: op costs differ ~30x
# between strata.  The quotas put the median inside the I cluster (~25 ms),
# 9 of 20 ops, whatever share of U ops hits the frame cache (a hit costs
# ~16 ms, a miss ~75 ms), so the cache warming up in a run cannot move the
# median from one cluster to another.  C, Z and U-hit ops, the cheaper
# ones, are at most 8 of 20; J and U-miss, the dearer ones, at most 5.
STRATA_PATTERN = "IZCIJIUIZCIJIZIUCIJI"

# Two (3,7) ops per (4,8) op keeps the median inside one size.
EXACT_PATTERN = ((3, 7), (3, 7), (4, 8))

# ops per second of reference time that no run can exceed; sizes the input
# list made before timing.  About ten times the baseline rates, so the
# deadline, not the input list, ends every run.
MAX_RATE = {CHART: 220.0, CONVEXOID: 13.0, EXACT: 15.0}

# ops whose outputs make the determinism digest; every run completes them
DIGEST_OPS = {CHART: 10, CONVEXOID: 2, EXACT: 2}

# peak RSS is read after this many ops, so it measures a fixed amount of work
# (caches grow with every op, and a faster program does more ops in a run)
RSS_OPS = {CHART: 300, CONVEXOID: 15, EXACT: 15}

ROUNDTRIP_TOL = 1e-6
NORM_SLACK = 1e-9
SPHERE_TOL = 1e-4

# Warm-up nodes 11/10, 13/10, 17/10: random_positive_matrix draws p/d with
# 3 <= d <= 9, which never reduces to a denominator of 10, so the warm-up
# point is never a measured input.
WARMUP_NODES = (Fraction(11, 10), Fraction(13, 10), Fraction(17, 10))


def warmup_matrix(k: int, n: int) -> plucker.PlaneMatrix:
    return plucker.PlaneMatrix(
        [[x ** j for j in range(n)] for x in WARMUP_NODES[:k]]
    )


def _is_positive(mv) -> bool:
    """All C(n, k) coefficients present and > 0; independent of the library."""
    return (len(mv.coeffs) == math.comb(mv.n, mv.k)
            and all(c > 0 for c in mv.coeffs.values()))


def _stratum(point) -> str:
    coeffs = point.rho.coeffs
    if len(coeffs) == 1:
        return "C"
    t = sum((c for key, c in coeffs.items() if key[0] == 1), Fraction(0))
    if t == 0:
        return "Z"
    if t == 1:
        return "U"
    return "I" if 2 * t <= 1 else "J"


def op_count(workload: str, seconds: float) -> int:
    return DIGEST_OPS[workload] + math.ceil(seconds * MAX_RATE[workload])


def make_inputs(workload: str, seed: int, count: int) -> list:
    """The first ``count`` inputs of the workload for ``seed``."""
    rng = random.Random(seed)
    if workload == CONVEXOID:
        return _convexoid_inputs(rng, count)
    if workload == EXACT:
        return [
            sampling.random_positive_matrix(rng, k, n)
            for k, n in (EXACT_PATTERN[i % len(EXACT_PATTERN)]
                         for i in range(count))
        ]
    cells = [STRATA_PATTERN[i % len(STRATA_PATTERN)] for i in range(count)]
    need = {c: cells.count(c) for c in set(cells)}
    drawn: dict[str, list] = {c: [] for c in need}
    while any(len(drawn[c]) < need[c] for c in need):
        point = sampling.random_nonneg_point(rng, CHART_K, CHART_N)
        cell = _stratum(point)
        if cell in need and len(drawn[cell]) < need[cell]:
            drawn[cell].append(point)
    taken = {c: iter(points) for c, points in drawn.items()}
    return [next(taken[cell]) for cell in cells]


# An op is timed in segments, and the caller's ``pause`` runs between them
# (the benchmark calibrates the machine's speed there, so each segment can be
# scaled by a measurement taken right next to it).  forward_ms and
# inverse_ms are the segments named so; op_ms is the sum of all of them.
SEGMENTS = {
    CHART: ("forward", "inverse"),
    CONVEXOID: ("forward", "inverse"),
    EXACT: ("point", "forward", "inverse", "witnesses"),
}


@dataclass(slots=True)
class Outcome:
    """One op's segment times (ms, as measured), whether it passed its
    gate, and its digest text.  An op that raised has the segments up to
    and including the one that raised."""

    segments: tuple
    ok: bool
    detail: str
    digest_text: str


def _segment(times: list, pause, fn, *args):
    """fn(*args), timed into ``times``; ``pause`` runs first unless this is
    the op's first segment."""
    if times:
        pause()
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        times.append(1e3 * (time.perf_counter() - start))


def failed(times: list, exc: Exception) -> Outcome:
    return Outcome(tuple(times), False, f"{type(exc).__name__}: {exc}",
                   "raised\n")


# -- chart ops ------------------------------------------------------------------


def chart_setup():
    """get_chart plus the first forward, which builds the glued map."""
    chart = chamber.get_chart(CHART_K, CHART_N)
    warm = chamber.ChamberPoint(exterior.normalize(
        plucker.plucker_of_matrix(warmup_matrix(CHART_K, CHART_N))))
    image = chart.forward(warm)
    return chart, repr(image.coords)


def chart_op(chart, point, pause) -> Outcome:
    times = []
    try:
        image = _segment(times, pause, chart.forward, point)
        back = _segment(times, pause, chart.inverse, image)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return failed(times, exc)
    problems = []
    keys = set(point.rho.coeffs) | set(back.rho.coeffs)
    error = max(
        abs(float(point.rho.coefficient(key) - back.rho.coefficient(key)))
        for key in keys
    )
    if error > ROUNDTRIP_TOL:
        problems.append(f"round-trip error {error:.3g}")
    norm = math.sqrt(sum(c * c for c in image.coords))
    if norm > 1 + NORM_SLACK:
        problems.append(f"norm {norm!r} > 1")
    positive = _is_positive(point.rho)
    if positive and not norm < 1:
        problems.append(f"positive point maps to norm {norm!r}")
    if not positive and norm < 1 - SPHERE_TOL:
        problems.append(f"boundary point maps to norm {norm!r}")
    return Outcome(tuple(times), not problems, "; ".join(problems),
                   f"{image.coords!r}|{back.rho!r}\n")


# -- convexoid op ---------------------------------------------------------------

# Shaped like the E side of the G(3,5) chart: base tau plus three cube
# coordinates, 2-D fibers (1 - tau) * H(z) with H(z) a hexagon whose facet
# offsets move affinely with z.  Every offset stays >= 1/2 on the cube, so
# fibers are bounded with interior below the top.
HEX_NORMALS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
HEX_SLOPES = (
    (Fraction(1, 4), Fraction(-1, 8), Fraction(1, 8)),
    (Fraction(-1, 8), Fraction(1, 4), Fraction(0)),
    (Fraction(1, 8), Fraction(1, 8), Fraction(-1, 4)),
    (Fraction(-1, 4), Fraction(0), Fraction(1, 8)),
    (Fraction(0), Fraction(-1, 4), Fraction(1, 8)),
    (Fraction(1, 8), Fraction(-1, 8), Fraction(-1, 4)),
)
CONVEXOID_BASE_DIM = 4

# Strata, in a fixed order per block of 10: I interior with tau in
# [0.05, 0.3], T interior with tau in [0.7, 0.95], B bottom (tau = 0), V a
# fiber vertex (boundary, maps to the sphere).  An op costs ~50 LPs when its
# rays leave the body through a face of the base cube and ~85 when they
# leave through a fiber, where every bisection step needs an LP.  I and B
# rays mostly take the first way, T and V rays the second, so the median
# stays inside the cheaper cluster, 7 ops of 10, in every run.
CONVEXOID_PATTERN = "IBITIVIBII"
CONVEXOID_TAU = {"I": (0.05, 0.3), "T": (0.7, 0.95), "V": (0.05, 0.95)}
CONVEXOID_GAUGE = (0.05, 0.5)  # interior points' gauge in their fiber


def hexagon_fiber(p) -> convexoid.HPolytope:
    scale = max(Fraction(0), 1 - p[0])
    return convexoid.HPolytope(2, [
        (normal, (1 + sum(s * z for s, z in zip(slopes, p[1:]))) * scale)
        for normal, slopes in zip(HEX_NORMALS, HEX_SLOPES)
    ])


def hexagon_spec() -> convexoid.ConvexoidSpec:
    return convexoid.ConvexoidSpec(CONVEXOID_BASE_DIM, 2, hexagon_fiber)


def hexagon_vertices(p) -> list[tuple[Fraction, Fraction]]:
    """Vertices of ``hexagon_fiber(p)``, computed here without the library,
    so input generation warms no cache the timed ops use: each pair of
    neighbouring facets meets in a point, kept if it lies in the hexagon."""
    constraints = hexagon_fiber(p).constraints
    found = []
    for i, ((a, b), r) in enumerate(constraints):
        (c, d), s = constraints[(i + 1) % len(constraints)]
        det = a * d - b * c
        y = ((r * d - b * s) / det, (a * s - r * c) / det)
        if all(u * y[0] + v * y[1] <= w for (u, v), w in constraints) \
                and y not in found:
            found.append(y)
    return found


def _van_der_corput(k: int) -> float:
    """k-th point (k >= 1) of the base-2 van der Corput sequence: the first
    n points of it cover [0, 1) evenly for every n."""
    x, f = 0.0, 0.5
    while k:
        x += f * (k & 1)
        k >>= 1
        f /= 2
    return x


def _cube_point(rng, u: float) -> tuple:
    """A point uniform in the cube [-0.9, 0.9]^(base_dim - 1) whose largest
    |coordinate| is the u-quantile of that coordinate's distribution."""
    dims = CONVEXOID_BASE_DIM - 1
    largest = 0.9 * u ** (1 / dims)
    z = [rng.uniform(-largest, largest) for _ in range(dims)]
    z[rng.randrange(dims)] = rng.choice((-largest, largest))
    return tuple(z)


def _convexoid_inputs(rng, count):
    # An op's cost falls as the largest |z| rises (correlation -0.65 with
    # both forward and inverse time): its rays leave through a cube face
    # sooner.  So per stratum, that coordinate's quantile follows a
    # van der Corput sequence with a seeded shift, and every run, however
    # short, sees the same spread of it.
    shift = {cell: rng.random() for cell in sorted(set(CONVEXOID_PATTERN))}
    seen = dict.fromkeys(shift, 0)
    items = []
    for i in range(count):
        cell = CONVEXOID_PATTERN[i % len(CONVEXOID_PATTERN)]
        seen[cell] += 1
        tau = 0.0 if cell == "B" else rng.uniform(*CONVEXOID_TAU[cell])
        base = (tau,) + _cube_point(
            rng, (_van_der_corput(seen[cell]) + shift[cell]) % 1)
        verts = [tuple(float(v) for v in vertex) for vertex in
                 hexagon_vertices(convexoid.rationalize_point(base))]
        edge = rng.randrange(len(verts))
        if cell == "V":
            y = verts[edge]
        else:
            # a point of edge `edge`, pulled towards the vertex average
            a, b = verts[edge], verts[(edge + 1) % len(verts)]
            at, gauge = rng.random(), rng.uniform(*CONVEXOID_GAUGE)
            mid = [sum(v[j] for v in verts) / len(verts) for j in range(2)]
            y = tuple(mid[j] + gauge * (a[j] + at * (b[j] - a[j]) - mid[j])
                      for j in range(2))
        items.append((cell, base + y))
    return items


def convexoid_setup():
    """The spec plus the first to_half_ball, which builds the map."""
    spec = hexagon_spec()
    warm = (Fraction(1, 10),) + (Fraction(0),) * (CONVEXOID_BASE_DIM + 1)
    return spec, repr(tuple(to_half_ball(spec, warm).tolist()))


def convexoid_op(spec, item, pause) -> Outcome:
    cell, x = item
    times = []
    try:
        image = _segment(times, pause, to_half_ball, spec, x)
        back = _segment(times, pause, from_half_ball, spec, image)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return failed(times, exc)
    coords = tuple(image.tolist())
    problems = []
    error = max(abs(a - b) for a, b in zip(x, back))
    if error > ROUNDTRIP_TOL:
        problems.append(f"round-trip error {error:.3g}")
    norm = math.sqrt(sum(c * c for c in coords))
    if norm > 1 + NORM_SLACK:
        problems.append(f"norm {norm!r} > 1")
    if cell == "V" and norm < 1 - SPHERE_TOL:
        problems.append(f"fiber vertex maps to norm {norm!r}")
    if cell != "V" and not norm < 1:
        problems.append(f"interior point maps to norm {norm!r}")
    if cell == "B" and coords[0] != 0:
        problems.append(f"bottom point maps to height {coords[0]!r}")
    return Outcome(tuple(times), not problems, "; ".join(problems),
                   f"{coords!r}|{back!r}\n")


# -- exact op -------------------------------------------------------------------


def exact_setup():
    """One exact op on a fixed (3,7) input that is never measured."""
    outcome = exact_op(warmup_matrix(3, 7), lambda: None)
    if not outcome.ok:
        raise RuntimeError(f"warm-up op failed: {outcome.detail}")
    return None, outcome.digest_text


def _chamber_point(matrix):
    return chamber.ChamberPoint(
        exterior.normalize(plucker.plucker_of_matrix(matrix)))


def _witnesses(rho):
    shrunk = lemmas.shrink_positive(rho)
    extended = lemmas.extend_positive(rho)
    return (shrunk, extended, plucker.contains(shrunk, rho),
            plucker.contains(rho, extended))


def exact_op(matrix, pause) -> Outcome:
    """Its forward and inverse segments are split and assemble, the exact
    chamber-coordinate map and its inverse."""
    times = []
    try:
        point = _segment(times, pause, _chamber_point, matrix)
        triple = _segment(times, pause, chamber.split, point)
        back = _segment(times, pause, chamber.assemble, triple)
        shrunk, extended, inside, outside = _segment(
            times, pause, _witnesses, point.rho)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return failed(times, exc)
    problems = []
    if back.rho != point.rho:
        problems.append("assemble(split(p)) != p")
    if not (_is_positive(shrunk) and inside):
        problems.append("shrink witness not positive or not contained")
    if not (_is_positive(extended) and outside):
        problems.append("extend witness not positive or not containing")
    return Outcome(
        tuple(times), not problems, "; ".join(problems),
        f"{triple.t!r}|{triple.eta!r}|{triple.omega!r}|{shrunk!r}|"
        f"{extended!r}\n",
    )


def setup(workload: str):
    """(state the ops need, digest text of the warm-up output)."""
    if workload == CONVEXOID:
        return convexoid_setup()
    if workload == EXACT:
        return exact_setup()
    return chart_setup()


def run_op(workload: str, state, item, pause) -> Outcome:
    if workload == CONVEXOID:
        return convexoid_op(state, item, pause)
    if workload == EXACT:
        return exact_op(item, pause)
    return chart_op(state, item, pause)


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()[:16]
