"""Self-tests of the benchmark: span arithmetic, wrapper installation and a
smallest-size smoke run of every workload.

Run from the root of a checkout (takes under a minute):

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _span(name, start, end, parent, op=0, raised=False):
    return (tracing.SPAN_NAMES.index(name), start, end, parent, op, raised)


def test_self_time_subtracts_direct_children_through_recursion():
    spans = [
        _span("chamber.BallChart.forward", 0.0, 10.0, -1),
        _span("chamber.BallChart.forward", 1.0, 7.0, 0),  # base chart
        _span("lp.solve_lp", 2.0, 5.0, 1),
        _span("convexoid.vertices", 8.0, 9.0, 0, raised=True),
        _span("convexoid.GluedBallMap.__init__", 11.0, 12.0, -1,
              op=tracing.SETUP_OP),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0, 1.0]
    metrics = tracing.layer_metrics(tracing.SPAN_NAMES, spans, ops=1,
                                    nudge_moved=0)
    assert metrics["chamber.BallChart.forward.calls"] == (2, "count")
    assert metrics["chamber.BallChart.forward.self_s"] == (6.0, "s")
    assert metrics["chamber.BallChart.forward.per_op"] == (2.0, "calls/op")
    assert metrics["lp.solve_lp.per_op"] == (1.0, "calls/op")
    assert metrics["convexoid.vertices.errors"] == (1, "count")
    # set-up spans count in totals, not in per-op ratios
    assert metrics["convexoid.GluedBallMap.__init__.calls"] == (1, "count")
    assert metrics["chamber.frames_built.per_op"] == (0.0, "frames/op")


def test_wrappers_catch_calls_through_directly_imported_names():
    from grassball import chamber, convexoid
    from grassball.convexoid import HPolytope

    original = convexoid.vertices
    interval = HPolytope(1, [((1,), 1), ((-1,), 1)])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert chamber.vertices is not original
        tracer.op = 0
        moved = chamber.nudge_into(interval, (Fraction(3),))
        kept = chamber.nudge_into(interval, (Fraction(0),))
    finally:
        tracer.uninstall()
    assert chamber.vertices is original and convexoid.vertices is original
    assert moved == (Fraction(1),) and kept == (Fraction(0),)
    names = [tracer.names[span[0]] for span in tracer.spans]
    assert names.count("chamber.nudge_into") == 2
    # chamber's own binding of vertices, called inside nudge_into
    vertices_span = tracer.spans[names.index("convexoid.vertices")]
    assert names[vertices_span[3]] == "chamber.nudge_into"
    assert tracer.nudge_moved == 1


def test_segments_are_scaled_by_the_kernels_either_side():
    import math

    import run
    import workloads

    kernels = [run.REF_CAL_S * 2, run.REF_CAL_S * 4, run.REF_CAL_S * 2]
    factors = [run.scale_factor(pair) for pair in zip(kernels, kernels[1:])]
    assert factors == [pytest.approx(1 / 3)] * 2
    roles = ("forward", "inverse")
    done = run.op_times(workloads.Outcome((3.0, 6.0), True, "", ""), roles,
                        factors)
    assert (done.busy_ms, done.op_ms, done.forward_ms, done.inverse_ms) \
        == pytest.approx((3.0, 3.0, 1.0, 2.0))
    # a failed op costs the time it ran and misses every latency metric
    raised = run.op_times(workloads.Outcome((3.0,), False, "", ""), roles,
                          factors[:1])
    assert raised.busy_ms == pytest.approx(1.0)
    assert math.isinf(raised.op_ms) and math.isinf(raised.forward_ms)


def test_hexagon_vertices_match_the_library():
    import random

    import workloads
    from grassball import convexoid

    rng = random.Random(3)
    spec = workloads.hexagon_spec()
    for _ in range(10):
        base = (rng.uniform(0.05, 0.95),) + tuple(
            rng.uniform(-0.9, 0.9) for _ in range(3))
        assert sorted(workloads.hexagon_vertices(
            convexoid.rationalize_point(base))) == sorted(
            convexoid.vertices(spec.fiber(base)))


def test_chart_median_stays_in_the_interior_cluster():
    import workloads

    pattern = workloads.STRATA_PATTERN
    cheaper = sum(pattern.count(c) for c in "CZU")  # if every U op hits
    dearer = sum(pattern.count(c) for c in "JU")  # if every U op misses
    assert cheaper < len(pattern) / 2 and dearer < len(pattern) / 2


def _run(workload, trace, seed=7):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _assert_prints(lines, result, declared):
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    lines, result = _run(workload, trace=0)
    _assert_prints(lines, result, BENCHMARK["end_to_end"])
    assert any("same in a fresh interpreter" in line for line in lines)


def test_same_seed_gives_the_same_digest():
    digests = [
        [line for line in _run("g24_sweep", trace=0)[0]
         if line.startswith("digest = ")]
        for _ in range(2)
    ]
    assert digests[0] == digests[1] and len(digests[0]) == 1


@pytest.mark.parametrize("workload", ["g24_sweep", "exact_algebra"])
def test_traced_smoke_run_prints_every_per_layer_metric(workload):
    lines, result = _run(workload, trace=1)
    _assert_prints(lines, result, BENCHMARK["per_layer"])
    metrics = result["metrics"]
    if workload == "exact_algebra":
        assert metrics["lp.solve_lp.calls"]["value"] == 0
        assert all(metrics[f"{name}.calls"]["value"] == 0
                   for name in tracing.SPAN_NAMES
                   if name.startswith("convexoid."))
    else:
        assert metrics["chamber.BallChart.forward.per_op"]["value"] >= 1
