"""Every name the benchmark's tracer wraps resolves in grassball.

``perfbench/tracing.py`` names functions and methods by string; a rename in
the library would otherwise surface only when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    assert tracing.SPAN_NAMES
    for span_name in tracing.SPAN_NAMES:
        layer, _, attr = span_name.partition(".")
        module = importlib.import_module(f"grassball.{layer}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer wraps the method found in the class's own dict
            assert callable(vars(getattr(module, cls_name))[meth]), span_name
        else:
            assert callable(getattr(module, attr)), span_name
