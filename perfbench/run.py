#!/usr/bin/env python3
"""Benchmark of grassball's chart, convexoid and exact layers.

Run from the root of a checkout that holds ``src/grassball``:

    python3 perfbench/run.py --workload g24_sweep --seed 1 --seconds 20 --trace 0

Workloads: g24_sweep (forward then inverse of G(2,4) chart points),
convexoid_2d (to_half_ball then from_half_ball on a convexoid with 2-D
fibers) and exact_algebra (the exact chain at (3,7) and (4,8)).  Each run is
one process and one thread; the extra set-ups run one at a time in fresh
interpreters.  Times are reported at a reference speed (see REF_CAL_S),
because the host's own speed drifts.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it wraps the library's public
functions, prints the per-layer metrics and writes every span to
``.perfbench_out/``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

# one thread: numpy's BLAS must not start workers of its own
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402

sys.dont_write_bytecode = True  # every run compiles the same sources

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_SAMPLES = 5  # set-ups per run, main process included; median is setup_s
CHILD_TIMEOUT_S = 150

# The host's speed drifts: identical pure-Python work takes from 45 to 97 ms
# per pass within one minute, and from 2 to 5 ms per pass between minutes;
# process CPU time drifts with it, so it is a slower CPU, not stolen time.
# Every time is therefore scaled to a reference speed: a fixed calibration
# kernel (stdlib only, no library code) runs before every op, after the last
# one and around every set-up, and a time t measured while the kernel took c
# seconds is reported as t * REF_CAL_S / c.  An op's c is the mean of the
# kernels just before and just after it, since the speed changes within
# seconds.
REF_CAL_S = 0.005  # about the kernel's median time on a 2-vCPU Xeon VM
SETUP_CALS = 10  # kernels before and again after each set-up
WALL_CAP = 3  # a run stops after WALL_CAP * seconds of wall time regardless

_WEDGE_A = {key: Fraction(sum(key) % 7 + 1, key[0] * key[1] % 5 + 1)
            for key in itertools.combinations(range(1, 10), 2)}
_WEDGE_B = {key: Fraction(sum(key) % 5 + 1, (key[0] + key[1]) % 7 + 1)
            for key in itertools.combinations(range(1, 8), 2)}


def calibration_kernel_s() -> float:
    """Seconds taken by one pass of fixed work shaped like the library's:
    Fraction arithmetic, and a wedge product of two 2-vectors held as dicts
    of sorted index tuples."""
    start = time.perf_counter()
    for i in range(1, 200):
        Fraction(i % 89 + 1, i % 97 + 2) * Fraction(i % 7 + 1, i % 5 + 3) \
            + Fraction(1, i)
    out = {}
    for ka, va in _WEDGE_A.items():
        for kb, vb in _WEDGE_B.items():
            if set(ka) & set(kb):
                continue
            merged = ka + kb
            swaps = sum(x > y for i, x in enumerate(merged)
                        for y in merged[i + 1:])
            key = tuple(sorted(merged))
            out[key] = out.get(key, 0) + (va * vb if swaps % 2 == 0
                                          else -va * vb)
    return time.perf_counter() - start


def scale_factor(cals) -> float:
    """REF_CAL_S over the median kernel time: the factor taking a time
    measured at this speed to the reference speed."""
    return REF_CAL_S / statistics.median(cals)


def import_library():
    """Import grassball from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "grassball", "__init__.py")):
        sys.exit("perfbench: no src/grassball here; "
                 "run from the root of a grassball checkout")
    sys.path.insert(0, SRC)
    import grassball

    if not os.path.abspath(grassball.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: grassball imported from {grassball.__file__}")
    import workloads

    return workloads


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Times:
    """One op's times (ms); a failed op misses every latency metric."""

    busy_ms: float  # every segment run, failed or not
    op_ms: float
    forward_ms: float
    inverse_ms: float


def op_times(outcome, roles, factors) -> Times:
    """Segment times, each multiplied by its factor, summed and picked."""
    seg = [t * f for t, f in zip(outcome.segments, factors)]
    if not outcome.ok:
        return Times(sum(seg), math.inf, math.inf, math.inf)
    return Times(sum(seg), sum(seg), seg[roles.index("forward")],
                 seg[roles.index("inverse")])


@dataclass
class Run:
    wl: object  # the workloads module
    setup_s: float  # at the reference speed
    warm_text: str
    outcomes: list  # workloads.Outcome of each op
    times: list  # Times of each op, at the reference speed
    wall_times: list  # Times of each op, as the clock read them
    speed: float  # median factor from measured to reference times
    rss_mb: float  # peak RSS after set-up and the first RSS_OPS ops
    exhausted: bool  # the inputs ran out before the time did


def measure(workload, seed, seconds, tracer=None, run_ops=True) -> Run:
    """Set up, then run ops until ``seconds`` of reference time have passed.

    The digest ops always run, so ``seconds=0`` runs exactly those.
    """
    for _ in range(SETUP_CALS):  # a fresh interpreter runs its first
        calibration_kernel_s()  # passes slowly, so they are not counted
    setup_cals = [calibration_kernel_s() for _ in range(SETUP_CALS)]
    start = time.perf_counter()
    wl = import_library()
    if workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r}; "
                 f"choose from {', '.join(wl.WORKLOADS)}")
    if tracer is not None:
        tracer.install()
    state, warm_text = wl.setup(workload)
    setup_s = time.perf_counter() - start
    setup_cals += [calibration_kernel_s() for _ in range(SETUP_CALS)]
    setup_s *= scale_factor(setup_cals)

    if tracer is not None:
        tracer.uninstall()  # input generation is not part of any layer
    items = wl.make_inputs(
        workload, seed, wl.op_count(workload, seconds) if run_ops else 0)
    if tracer is not None:
        tracer.install()
    roles = wl.SEGMENTS[workload]
    outcomes, times, wall_times, all_cals = [], [], [], []
    rss_mb = None
    busy_s = 0.0  # op time so far at the reference speed
    wall_deadline = time.perf_counter() + WALL_CAP * seconds
    cals = [calibration_kernel_s()]
    for index, item in enumerate(items):
        if index >= wl.DIGEST_OPS[workload] and (
                busy_s >= seconds or time.perf_counter() >= wall_deadline):
            break
        if tracer is not None:
            tracer.op = index
        outcome = wl.run_op(workload, state, item,
                            lambda: cals.append(calibration_kernel_s()))
        cals.append(calibration_kernel_s())
        # each segment is scaled by the kernels just before and after it
        factors = [scale_factor(pair) for pair in zip(cals, cals[1:])]
        outcomes.append(outcome)
        times.append(op_times(outcome, roles, factors))
        wall_times.append(op_times(outcome, roles, [1.0] * len(factors)))
        busy_s += times[-1].busy_ms / 1e3
        all_cals += cals[:-1]
        cals = cals[-1:]
        if index + 1 == wl.RSS_OPS[workload]:
            rss_mb = peak_rss_mb()
    exhausted = 0 < len(outcomes) == len(items) and busy_s < seconds
    if tracer is not None:
        tracer.uninstall()
    return Run(wl, setup_s, warm_text, outcomes, times, wall_times,
               scale_factor(all_cals + cals),
               peak_rss_mb() if rss_mb is None else rss_mb, exhausted)


def ops_per_s(outcomes, times):
    return sum(o.ok for o in outcomes) / (sum(t.busy_ms for t in times) / 1e3)


def percentile(values, q):
    """Nearest-rank percentile; a failed op's inf counts as a miss."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_child(args, mode):
    """Run this script in a fresh interpreter and parse its last line."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--child", mode]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: {mode} child failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def child_main(args):
    if args.child == "reference":
        run = measure(args.workload, args.seed, args.seconds)
        print(json.dumps({"ops_per_s": ops_per_s(run.outcomes, run.times)}))
        return
    # "setup": time one set-up; "digest": also redo the digest ops
    digest_mode = args.child == "digest"
    run = measure(args.workload, args.seed, 0, run_ops=digest_mode)
    print(json.dumps({
        "setup_s": run.setup_s,
        "warmup": run.wl.digest([run.warm_text]),
        "prefix": run.wl.digest(o.digest_text for o in run.outcomes)
        if digest_mode else None,
    }))


def emit(correct, outcomes, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {
            name: {"value": value if math.isfinite(value) else None,
                   "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def report_ops(args, run):
    failures = [o for o in run.outcomes if not o.ok]
    print(f"workload {args.workload} seed {args.seed}: "
          f"ops_attempted = {len(run.outcomes)} ops_failed = {len(failures)}")
    for o in failures[:5]:
        print(f"  failed op: {o.detail}")
    if run.exhausted:
        print("  note: inputs ran out before the time did")


def main_untraced(args):
    run = measure(args.workload, args.seed, args.seconds)
    wl, outcomes = run.wl, run.outcomes
    prefix_ops = wl.DIGEST_OPS[args.workload]
    ops_digest = wl.digest(o.digest_text for o in outcomes[:prefix_ops])
    setups = [run.setup_s]
    deterministic = True
    for i in range(SETUP_SAMPLES - 1):
        child = run_child(args, "digest" if i == 0 else "setup")
        setups.append(child["setup_s"])
        if child["warmup"] != wl.digest([run.warm_text]) or (
                child["prefix"] is not None and child["prefix"] != ops_digest):
            deterministic = False
    report_ops(args, run)
    print(f"digest = {ops_digest} (first {prefix_ops} ops; "
          f"{'same' if deterministic else 'DIFFERS'} in a fresh interpreter)")
    print(f"digest_all = {wl.digest(o.digest_text for o in outcomes)} "
          f"({len(outcomes)} ops)")
    print(f"setup samples (s, reference speed): {setups}")
    print(f"speed factor = {run.speed!r} (median; measured times are "
          f"multiplied by it)")
    print("wall-clock op_ms.p50 = "
          f"{percentile([t.op_ms for t in run.wall_times], 0.5)!r} ms, "
          f"ops_per_s = {ops_per_s(outcomes, run.wall_times)!r} 1/s")
    times = {
        "op_ms": [t.op_ms for t in run.times],
        "forward_ms": [t.forward_ms for t in run.times],
        "inverse_ms": [t.inverse_ms for t in run.times],
    }
    if len(outcomes) >= 100:  # p90 needs ten samples beyond it
        for name, values in times.items():
            print(f"{name}.p90 = {percentile(values, 0.9)!r} ms "
                  f"(n={len(outcomes)})")
    else:
        print(f"p90 not reported: {len(outcomes)} ops < 100")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s(outcomes, run.times), "1/s"),
    }
    for name, values in times.items():
        metrics[f"{name}.p50"] = (percentile(values, 0.5), "ms")
    metrics["peak_rss_mb"] = (run.rss_mb, "MB")
    emit(deterministic and all(o.ok for o in outcomes), outcomes, metrics)


def main_traced(args):
    import tracing

    tracer = tracing.Tracer()
    run = measure(args.workload, args.seed, args.seconds, tracer=tracer)
    traced = ops_per_s(run.outcomes, run.times)
    untraced = run_child(args, "reference")["ops_per_s"]
    overhead = untraced / traced - 1
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json.gz")
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "ops": len(run.outcomes), "ops_per_s_traced": traced,
                        "ops_per_s_untraced": untraced,
                        "overhead": overhead})
    report_ops(args, run)
    print(f"spans = {len(tracer.spans)} written to {os.path.relpath(path)}")
    metrics = tracing.layer_metrics(tracer.names, tracer.spans,
                                    len(run.outcomes), tracer.nudge_moved)
    metrics["trace.ops_per_s.traced"] = (traced, "1/s")
    metrics["trace.ops_per_s.untraced"] = (untraced, "1/s")
    metrics["trace.overhead"] = (overhead, "ratio")
    emit(all(o.ok for o in run.outcomes), run.outcomes, metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "digest", "reference"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child_main(args)
    elif args.trace:
        main_traced(args)
    else:
        main_untraced(args)


if __name__ == "__main__":
    main()
