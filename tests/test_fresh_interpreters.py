"""What a fresh interpreter sees: the package, its CLI and the chart path
load no numpy (only ``to_half_ball``, which returns a numpy array, imports
it), and the chart's bottom samples do not depend on the process.

Each case runs in its own interpreter, since this test process has numpy
loaded and its charts built already.  Nothing here is timed.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

CHART_ROUND_TRIP = """
import random
from grassball import get_chart
from grassball.sampling import random_positive_point
chart = get_chart(2, 4)
point = random_positive_point(random.Random(3), 2, 4)
chart.inverse(chart.forward(point))
"""

HALF_BALL = """
from grassball.convexoid import ConvexoidSpec, HPolytope, to_half_ball
spec = ConvexoidSpec(1, 1, lambda p: HPolytope(1, [((1,), 1), ((-1,), 1)]))
image = to_half_ball(spec, (0.5, 0.5))
print(f"{type(image).__module__}.{type(image).__name__}")
"""

BOTTOM_SAMPLES = """
from grassball import get_chart
for k, n in ((2, 4), (3, 5)):
    print(get_chart(k, n)._bottom_samples(8))
"""

PRINT_NUMPY_LOADED = """
import sys
print('numpy' in sys.modules)
"""


def run_fresh(code: str, hash_seed: str = "0") -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports
    the package from this checkout, with hash seed ``hash_seed``."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in (os.environ.get("PYTHONPATH"),) if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def numpy_loaded_after(code: str) -> bool:
    return run_fresh(code + PRINT_NUMPY_LOADED).split()[-1] == "True"


@pytest.mark.parametrize("code", [
    "import grassball",
    "import grassball.cli",
    CHART_ROUND_TRIP,
], ids=["package", "cli", "g24_round_trip"])
def test_numpy_stays_unloaded(code):
    assert not numpy_loaded_after(code)


def test_to_half_ball_still_returns_an_ndarray():
    # it imports numpy itself, which shows that the check above can see numpy
    assert run_fresh(HALF_BALL + PRINT_NUMPY_LOADED).split() \
        == ["numpy.ndarray", "True"]


def test_bottom_samples_are_the_same_in_fresh_interpreters():
    """``_bottom_samples`` draws from a seeded stdlib RNG: two interpreters
    with different hash seeds give the same rationals."""
    first, second = (run_fresh(BOTTOM_SAMPLES, seed) for seed in ("1", "2"))
    assert first == second
    assert first.count("Fraction(") > 16
