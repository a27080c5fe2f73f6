"""Command-line front end: algebra queries, witnesses, charts, and sweeps.

Multivectors and plane matrices travel as JSON (rationals as "p/q" strings).
Every subcommand validates its input before computing, emits a
schema-versioned JSON report, and exits 0 only when all requested checks
pass (2 on malformed input, 1 on check failure).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import chamber, convexoid, lemmas, plucker, sampling
from .exterior import MultiVector, classify_sign, normalize, wedge

REPORT_SCHEMA = "grassball.report/1"


@dataclass
class RunReport:
    command: str
    parameters: dict
    checks: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    def add_check(self, name: str, passed: bool, max_error=None, detail=None):
        entry = {"name": name, "passed": bool(passed)}
        if max_error is not None:
            entry["max_error"] = float(max_error)
        if detail is not None:
            entry["detail"] = detail
        self.checks.append(entry)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self, wall_time=None) -> dict:
        out = {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "parameters": self.parameters,
            "checks": self.checks,
            "passed": self.passed,
        }
        errors = [
            c["max_error"] for c in self.checks if c.get("max_error") is not None
        ]
        if errors:
            out["max_observed_error"] = max(errors)
        if self.payload:
            out.update(self.payload)
        if wall_time is not None:
            out["wall_time_s"] = wall_time
        return out


def _read_json(path: str):
    if path == "-":
        return json.loads(sys.stdin.read())
    with open(path) as fh:
        return json.loads(fh.read())


def _load_multivector(path: str) -> MultiVector:
    return MultiVector.from_json_dict(_read_json(path))


def _emit(data: dict, out: str | None):
    text = json.dumps(data, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _triple_to_json(triple: chamber.SplitTriple) -> dict:
    return {
        "t": str(triple.t),
        "eta": triple.eta.to_json_dict() if triple.eta is not None else None,
        "omega": triple.omega.to_json_dict() if triple.omega is not None else None,
    }


def _triple_from_json(data) -> chamber.SplitTriple:
    if not isinstance(data, dict):
        raise ValueError("a split triple is an object with t, eta and omega")
    return chamber.SplitTriple(
        Fraction(str(data["t"])),
        MultiVector.from_json_dict(data["eta"]) if data.get("eta") else None,
        MultiVector.from_json_dict(data["omega"]) if data.get("omega") else None,
    )


# -- subcommands -------------------------------------------------------------


def _cmd_wedge(args) -> int:
    a = _load_multivector(args.a)
    b = _load_multivector(args.b)
    _emit(wedge(a, b).to_json_dict(), args.out)
    return 0


def _cmd_plucker(args) -> int:
    matrix = plucker.PlaneMatrix.from_json_dict(_read_json(args.matrix))
    _emit(plucker.plucker_of_matrix(matrix).to_json_dict(), args.out)
    return 0


def _cmd_check(args) -> int:
    mv = _load_multivector(args.multivector)
    result = {
        "decomposable": plucker.is_decomposable(mv),
        "sign": classify_sign(mv).value,
        "normalized": mv.coefficient_sum() == 1,
    }
    _emit(result, args.out)
    return 0


def _cmd_witness(args) -> int:
    """``shrink`` or ``extend``: the lemma's positive or nonnegative witness,
    the pair of lemma functions set on ``args`` by the subcommand."""
    mv = _load_multivector(args.multivector)
    positive, nonneg = args.witnesses
    result = positive(mv) if args.positive else nonneg(mv)
    _emit(result.to_json_dict(), args.out)
    return 0


def _cmd_split(args) -> int:
    point = chamber.ChamberPoint(_load_multivector(args.multivector))
    _emit(_triple_to_json(chamber.split(point)), args.out)
    return 0


def _cmd_assemble(args) -> int:
    triple = _triple_from_json(_read_json(args.triple))
    _emit(chamber.assemble(triple).rho.to_json_dict(), args.out)
    return 0


def _cmd_chart(args) -> int:
    point = chamber.ChamberPoint(_load_multivector(args.multivector))
    chart = chamber.ball_chart(point)
    _emit({"coords": list(chart.coords), "k": point.k, "n": point.n}, args.out)
    return 0


def _cmd_chart_inverse(args) -> int:
    data = _read_json(args.chart)
    coords = data["coords"] if isinstance(data, dict) else None
    # type(), not isinstance(): JSON true and false are ints to isinstance
    if not isinstance(coords, list) or not all(
            type(c) in (int, float) for c in coords):
        raise ValueError("chart input is an object whose coords are numbers")
    point = chamber.ball_chart_inverse(coords, args.k, args.n)
    _emit(point.rho.to_json_dict(), args.out)
    return 0


def _roundtrip_sample(chart_map, point):
    forward = chart_map.forward(point)
    back = chart_map.inverse(forward)
    keys = set(point.rho.support()) | set(back.rho.support())
    err = max(
        abs(float(point.rho.coefficient(key)) - float(back.rho.coefficient(key)))
        for key in keys
    )
    return forward, err


def _require_samples(args):
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")


def _cmd_roundtrip(args) -> int:
    _require_samples(args)
    started = time.monotonic()
    rng = sampling.random.Random(args.seed)
    chart_map = chamber.get_chart(args.k, args.n)
    points = [
        sampling.random_positive_point(rng, args.k, args.n)
        for _ in range(args.samples)
    ]
    results = [_roundtrip_sample(chart_map, p) for p in points]
    errors = [err for _, err in results]
    report = RunReport(
        "roundtrip",
        {"k": args.k, "n": args.n, "samples": args.samples, "seed": args.seed,
         "tol": args.tol},
    )
    report.add_check("roundtrip_max_error", max(errors) <= args.tol, max(errors))
    norms = [convexoid.norm_gauge(fwd.coords) for fwd, _ in results]
    report.add_check(
        "norms_at_most_one", max(norms) <= 1 + convexoid.NORM_SLACK, max(norms)
    )
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("sample,coords,error\n")
            for i, (fwd, err) in enumerate(results):
                joined = ";".join(f"{c:.12g}" for c in fwd.coords)
                fh.write(f"{i},{joined},{err:.3e}\n")
    wall = time.monotonic() - started if args.timing else None
    _emit(report.to_dict(wall), args.out)
    return 0 if report.passed else 1


def _interp_oracle(data):
    """Multilinear interpolation of constraint offsets over a base grid."""
    base_dim = data["base_dim"]
    fiber_dim = data["fiber_dim"]
    rows = data["normals"]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == fiber_dim for row in rows
    ):
        raise ValueError(f"normals must be rows of fiber_dim = {fiber_dim}")
    normals = [tuple(Fraction(str(v)) for v in row) for row in rows]
    shape = data["grid_shape"]
    offsets = data["offsets"]
    if not isinstance(shape, list) or len(shape) != base_dim or not all(
        type(count) is int and count >= 2 for count in shape
    ):
        raise ValueError(
            f"grid_shape {shape} must hold base_dim = {base_dim} counts >= 2"
        )

    def check_table(table, axis):
        if axis == base_dim:
            return
        if not isinstance(table, list) or len(table) != shape[axis]:
            raise ValueError(
                f"an offsets table does not match grid_shape {shape}"
            )
        for sub in table:
            check_table(sub, axis + 1)

    if not isinstance(offsets, list) or len(offsets) != len(normals):
        raise ValueError("offsets must hold one table per normal")
    for table in offsets:
        check_table(table, 0)

    def lookup(table, idx):
        for i in idx:
            table = table[i]
        return Fraction(str(table))

    def oracle(p):
        axes = []
        for axis in range(base_dim):
            count = shape[axis]
            lo = Fraction(0) if axis == 0 else Fraction(-1)
            width = Fraction(1) if axis == 0 else Fraction(2)
            rel = (p[axis] - lo) / width * (count - 1)
            i0 = min(int(rel), count - 2)
            frac = rel - i0
            axes.append((i0, frac))
        cons = []
        for c_index, normal in enumerate(normals):
            total = Fraction(0)
            for corner in range(2 ** base_dim):
                weight = Fraction(1)
                idx = []
                for axis in range(base_dim):
                    bit = (corner >> axis) & 1
                    i0, frac = axes[axis]
                    weight *= frac if bit else 1 - frac
                    idx.append(i0 + bit)
                if weight:
                    total += weight * lookup(offsets[c_index], idx)
            cons.append((normal, total))
        return convexoid.HPolytope(fiber_dim, cons)

    return convexoid.ConvexoidSpec(base_dim, fiber_dim, oracle)


def _cmd_convexoid_map(args) -> int:
    started = time.monotonic()
    data = _read_json(args.spec)
    spec = _interp_oracle(data)
    points = _read_json(args.points)
    if not points:
        raise ValueError(f"points file {args.points} holds no points")
    mapped = []
    max_norm = 0.0
    errors = []
    for point in points:
        image = convexoid.to_half_ball(spec, point)
        back = convexoid.from_half_ball(spec, image)
        err = max(abs(a - float(b)) for a, b in zip(back, point))
        errors.append(err)
        max_norm = max(max_norm, convexoid.norm_gauge(image))
        mapped.append([float(v) for v in image])
    report = RunReport(
        "convexoid-map", {"spec": args.spec, "points": len(points), "tol": args.tol}
    )
    report.add_check(
        "norms_at_most_one", max_norm <= 1 + convexoid.NORM_SLACK, max_norm
    )
    report.add_check(
        "roundtrip_max_error", max(errors) <= args.tol, max(errors)
    )
    report.payload["mapped"] = mapped
    wall = time.monotonic() - started if args.timing else None
    _emit(report.to_dict(wall), args.out)
    return 0 if report.passed else 1


def _cmd_selftest(args) -> int:
    _require_samples(args)
    started = time.monotonic()
    rng = sampling.random.Random(args.seed)
    report = RunReport(
        "selftest",
        {"k": args.k, "n": args.n, "samples": args.samples, "seed": args.seed},
    )

    ok = True
    for _ in range(args.samples):
        a = sampling.random_multivector(rng, 4, 1)
        b = sampling.random_multivector(rng, 4, 1)
        ok = ok and wedge(a, b) == wedge(b, a) * (-1)
    report.add_check("wedge_antisymmetry", ok)

    ok = True
    for _ in range(args.samples):
        point = sampling.random_positive_point(rng, args.k, args.n)
        back = chamber.assemble(chamber.split(point))
        ok = ok and back.rho == point.rho
    report.add_check("split_assemble_exact", ok)

    ok = True
    for _ in range(min(args.samples, 50)):
        point = sampling.random_positive_point(rng, args.k, args.n)
        eta = lemmas.shrink_positive(normalize(point.rho))
        ok = ok and classify_sign(eta).value == "Positive"
        ok = ok and plucker.contains(eta, point.rho)
    report.add_check("shrink_positive_witness", ok)

    sample_count = min(args.samples, 25)
    errs = []
    chart_map = chamber.get_chart(args.k, args.n)
    for _ in range(sample_count):
        point = sampling.random_positive_point(rng, args.k, args.n)
        _, err = _roundtrip_sample(chart_map, point)
        errs.append(err)
    report.add_check(
        "chart_roundtrip", max(errs) <= args.tol, max(errs)
    )

    wall = time.monotonic() - started if args.timing else None
    _emit(report.to_dict(wall), args.out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassball",
        description="exact nonnegative Grassmann chamber toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, timing=False):
        p.add_argument("--out", help="write JSON output to this path")
        if timing:
            p.add_argument("--timing", action="store_true",
                           help="include wall time in reports")

    p = sub.add_parser("wedge", help="exterior product of two multivectors")
    p.add_argument("a")
    p.add_argument("b")
    common(p)
    p.set_defaults(func=_cmd_wedge)

    p = sub.add_parser("plucker", help="minor coordinates of a spanning matrix")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=_cmd_plucker)

    p = sub.add_parser("check", help="decomposability / sign / normalization")
    p.add_argument("multivector")
    common(p)
    p.set_defaults(func=_cmd_check)

    for name, witnesses in (
        ("shrink", (lemmas.shrink_positive, lemmas.shrink_nonneg)),
        ("extend", (lemmas.extend_positive, lemmas.extend_nonneg)),
    ):
        p = sub.add_parser(name, help=f"{name} witness one grade")
        p.add_argument("multivector")
        p.add_argument("--positive", action="store_true",
                       help="a strictly positive witness, with epsilon "
                            "halved as far as the input's integers require")
        common(p)
        p.set_defaults(func=_cmd_witness, witnesses=witnesses)

    p = sub.add_parser("split", help="chamber coordinates (t, eta, omega)")
    p.add_argument("multivector")
    common(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("assemble", help="rebuild a chamber point from a triple")
    p.add_argument("triple")
    common(p)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("chart", help="ball coordinates of a chamber point")
    p.add_argument("multivector")
    common(p)
    p.set_defaults(func=_cmd_chart)

    p = sub.add_parser("chart-inverse", help="chamber point of ball coordinates")
    p.add_argument("chart")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_chart_inverse)

    p = sub.add_parser("roundtrip", help="chart round-trip sweep")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--csv", help="emit per-sample CSV to this path")
    common(p, timing=True)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("convexoid-map", help="map points of a gridded convexoid")
    p.add_argument("--spec", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    common(p, timing=True)
    p.set_defaults(func=_cmd_convexoid_map)

    p = sub.add_parser("selftest", help="cross-module smoke battery")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    common(p, timing=True)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # OSError: an input path that is missing, a directory, or too long
    except (json.JSONDecodeError, OSError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
