"""Command-line front end: formats, exit codes, determinism."""

import json

import pytest

from grassball.cli import main


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


E1 = {"n": 4, "k": 1, "coeffs": {"1": "1"}}
E2 = {"n": 4, "k": 1, "coeffs": {"2": "1"}}
VANDERMONDE = {
    "n": 4,
    "k": 2,
    "coeffs": {
        "1,2": "1/10",
        "1,3": "2/10",
        "1,4": "3/10",
        "2,3": "1/10",
        "2,4": "2/10",
        "3,4": "1/10",
    },
}


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_wedge_subcommand(tmp_path, capsys):
    a = write(tmp_path, "a.json", E1)
    b = write(tmp_path, "b.json", E2)
    assert main(["wedge", a, b]) == 0
    out = read_json(capsys)
    assert out["coeffs"] == {"1,2": "1"}


def test_plucker_and_check(tmp_path, capsys):
    matrix = write(
        tmp_path, "m.json", {"rows": [["1", "1", "1", "1"], ["0", "1", "2", "3"]]}
    )
    assert main(["plucker", matrix]) == 0
    minors = read_json(capsys)
    assert minors["coeffs"]["3,4"] == "1"
    mv = write(tmp_path, "v.json", VANDERMONDE)
    assert main(["check", mv]) == 0
    out = read_json(capsys)
    assert out == {"decomposable": True, "sign": "Positive", "normalized": True}


def test_shrink_and_extend_flags(tmp_path, capsys):
    mv = write(tmp_path, "v.json", VANDERMONDE)
    assert main(["shrink", mv, "--positive"]) == 0
    eta = read_json(capsys)
    assert eta["k"] == 1 and all(
        not v.startswith("-") for v in eta["coeffs"].values()
    )
    assert main(["extend", mv, "--positive", "--epsilon-initial", "1/4"]) == 0
    out = read_json(capsys)
    assert out["k"] == 3 and len(out["coeffs"]) == 4


def test_split_assemble_round_trip(tmp_path, capsys):
    mv = write(tmp_path, "v.json", VANDERMONDE)
    assert main(["split", mv]) == 0
    triple = read_json(capsys)
    assert triple["t"] == "3/5"
    tri = write(tmp_path, "t.json", triple)
    assert main(["assemble", tri]) == 0
    out = read_json(capsys)
    from fractions import Fraction

    assert out["n"] == 4 and out["k"] == 2
    assert {key: Fraction(v) for key, v in out["coeffs"].items()} == {
        key: Fraction(v) for key, v in VANDERMONDE["coeffs"].items()
    }


def test_chart_and_inverse(tmp_path, capsys):
    mv = write(
        tmp_path,
        "v.json",
        {"n": 3, "k": 1, "coeffs": {"1": "1/2", "2": "1/4", "3": "1/4"}},
    )
    assert main(["chart", mv]) == 0
    chart = read_json(capsys)
    assert len(chart["coords"]) == 2
    cpath = write(tmp_path, "c.json", chart)
    assert main(["chart-inverse", cpath, "--k", "1", "--n", "3"]) == 0
    back = read_json(capsys)
    for key, value in back["coeffs"].items():
        num, _, den = value.partition("/")
        got = int(num) / int(den or 1)
        want = {"1": 0.5, "2": 0.25, "3": 0.25}[key]
        assert abs(got - want) < 1e-9


def test_roundtrip_report_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code = main(
        [
            "roundtrip",
            "--k", "1", "--n", "4",
            "--samples", "5",
            "--seed", "7",
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    report = read_json(capsys)
    assert report["schema"] == "grassball.report/1"
    assert report["passed"] is True
    assert "wall_time_s" not in report
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "sample,coords,error" and len(lines) == 6


def test_reports_byte_identical_for_same_seed(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(
            [
                "roundtrip",
                "--k", "1", "--n", "4",
                "--samples", "4",
                "--seed", "3",
                "--out", str(out),
            ]
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_convexoid_map_grid_spec(tmp_path, capsys):
    spec = {
        "base_dim": 1,
        "fiber_dim": 1,
        "normals": [["1"], ["-1"]],
        "grid_shape": [3],
        "offsets": [["1", "1", "1"], ["1", "1", "1"]],
    }
    spec_path = write(tmp_path, "spec.json", spec)
    points = write(tmp_path, "pts.json", [[0.0, 0.5], [1.0, 1.0], [0.5, -0.25]])
    assert main(["convexoid-map", "--spec", spec_path, "--points", points]) == 0
    report = read_json(capsys)
    assert report["passed"] is True
    assert len(report["mapped"]) == 3
    first = report["mapped"][0]
    assert abs(first[0]) < 1e-9 and abs(first[1] - 0.5) < 1e-9


def test_selftest_small(tmp_path, capsys):
    assert main(
        ["selftest", "--k", "2", "--n", "4", "--samples", "10", "--seed", "1"]
    ) == 0
    report = read_json(capsys)
    names = {c["name"] for c in report["checks"]}
    assert {"wedge_antisymmetry", "split_assemble_exact",
            "shrink_positive_witness", "chart_roundtrip"} <= names
    assert report["passed"] is True


def test_malformed_input_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["check", missing]) == 2
    invalid = write(tmp_path, "neg.json", {
        "n": 4, "k": 2, "coeffs": {"1,2": "3/2", "3,4": "-1/2"},
    })
    assert main(["split", invalid]) == 2


def test_empty_sample_counts_and_point_lists_exit_two(tmp_path, capsys):
    for argv in (["roundtrip", "--k", "2", "--n", "4", "--samples", "0"],
                 ["selftest", "--samples", "0"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--samples must be at least 1" in err
    spec = write(tmp_path, "spec.json", {
        "base_dim": 1, "fiber_dim": 1, "normals": [["1"], ["-1"]],
        "grid_shape": [2], "offsets": [["1", "1"], ["1", "1"]],
    })
    points = write(tmp_path, "pts.json", [])
    assert main(["convexoid-map", "--spec", spec, "--points", points]) == 2
    err = capsys.readouterr().err
    assert points in err and "no points" in err
    # offsets tables that do not match grid_shape, a grid_shape that does not
    # match base_dim and normals that are not rows are malformed input too
    points = write(tmp_path, "pts.json", [[1.0, 0.5], [0.5, 0.0]])
    for name, bad in {
        "ragged": {"grid_shape": [3], "offsets": [["1", "1"], ["1", "1"]]},
        "short": {"grid_shape": [3], "offsets": [["1", "1", "1"]]},
        "base_dim": {"base_dim": 2, "offsets": [["1", "1"], ["1", "1"]]},
        "normals": {"normals": [1, -1], "offsets": [["1", "1"], ["1", "1"]]},
    }.items():
        spec = write(tmp_path, f"{name}.json", {
            "base_dim": 1, "fiber_dim": 1, "normals": [["1"], ["-1"]],
            "grid_shape": [2], **bad,
        })
        assert main(["convexoid-map", "--spec", spec, "--points", points]) == 2
        assert "invalid input" in capsys.readouterr().err, name


def test_roundtrip_refuses_an_unsupported_chart(capsys):
    assert main(["roundtrip", "--k", "2", "--n", "7", "--samples", "1"]) == 2
    assert "fibers of dimension above 3" in capsys.readouterr().err
