"""Every numeric cutoff of ``grassball`` is one of the documented set.

The numeric layer's tolerances are ``SLACK``, ``GLUE_TOL`` and
``RATIONALIZE_DEN``, each assigned once at module level in ``convexoid``
(its docstring lists them); ``NORM_SLACK`` is ``SLACK`` as a float.  Apart
from them only the CLI's ``--tol`` defaults may spell a small number.  The
test walks the syntax tree of every module and fails on any other float
constant v with 0 < |v| < 1e-3 and on any ``10**k`` with k >= 6.
"""

import ast
from pathlib import Path

import pytest

import grassball

SRC = Path(grassball.__file__).parent
TOLERANCES = {"SLACK", "GLUE_TOL", "RATIONALIZE_DEN"}


def is_cutoff(node) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return 0 < abs(node.value) < 1e-3
    return (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.Constant) and node.left.value == 10
        and isinstance(node.right, ast.Constant)
        and type(node.right.value) is int and node.right.value >= 6
    )


def allowed_roots(tree, module: str):
    """The subtrees that may hold cutoffs: the values of the module-level
    tolerance assignments in ``convexoid`` and the defaults of the CLI's
    ``--tol`` options."""
    if module == "convexoid":
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in TOLERANCES
                for t in stmt.targets
            ):
                yield stmt.value
    if module == "cli":
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "--tol"):
                yield from (kw.value for kw in node.keywords
                            if kw.arg == "default")


def cutoffs(source: str, module: str) -> list[str]:
    """'line: expression' for every cutoff outside the allowed places."""
    tree = ast.parse(source)
    allowed = {
        id(node) for root in allowed_roots(tree, module)
        for node in ast.walk(root)
    }
    return [
        f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
        if is_cutoff(node) and id(node) not in allowed
    ]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem
)
def test_no_cutoffs_outside_the_documented_set(path):
    assert cutoffs(path.read_text(), path.stem) == []


def test_the_documented_tolerances_are_where_the_scan_allows_them():
    from grassball import convexoid

    source = (SRC / "convexoid.py").read_text()
    tree = ast.parse(source)
    assigned = {
        t.id for stmt in tree.body if isinstance(stmt, ast.Assign)
        for t in stmt.targets if isinstance(t, ast.Name)
    }
    assert TOLERANCES <= assigned
    assert convexoid.NORM_SLACK == float(convexoid.SLACK) == 1e-9


@pytest.mark.parametrize("source, module, found", [
    ("DEGENERATE_EPS = Fraction(1, 10**9)\n", "chamber", ["1: 10 ** 9"]),
    ("SLACK = Fraction(1, 10**9)\n", "convexoid", []),
    ("SLACK = Fraction(1, 10**9)\n", "chamber", ["1: 10 ** 9"]),
    ("def f():\n    SLACK = 1e-9\n", "convexoid", ["2: 1e-09"]),
    ("NORM_SLACK = 1e-9\n", "convexoid", ["1: 1e-09"]),
    ("if norm < 1e-300 or gauge == 0:\n    pass\n", "chamber",
     ["1: 1e-300"]),
    ("x = -1e-14\n", "chamber", ["1: 1e-14"]),
    ("p.add_argument('--tol', type=float, default=1e-6)\n", "cli", []),
    ("p.add_argument('--tol', type=float, default=1e-6)\n", "chamber",
     ["1: 1e-06"]),
    ("p.add_argument('--eps', type=float, default=1e-6)\n", "cli",
     ["1: 1e-06"]),
    ("cap = 2**80\nsmall = 1e-3\nbig = 10**5\n", "convexoid", []),
])
def test_the_scan_flags_each_kind_of_cutoff(source, module, found):
    assert cutoffs(source, module) == found
