"""Exact exterior algebra and numerical ball charts for nonnegative
Grassmann chambers.

The exact layer (exterior products, Plucker coordinates, shrink/extend
witnesses, chamber splitting) runs entirely over rationals; the topological
layer (convexoid half-cube maps, glued cube charts) runs over rationals
rounded to bounded denominators, with explicit tolerances, and takes the
cubes to the Euclidean balls in floating point at its public API.  That API
works in Python floats; numpy only builds the array that ``to_half_ball``
returns, so importing the package and using a chart do not load it.
"""

from .exterior import (
    GradeError,
    MultiVector,
    NormalizationError,
    SignClass,
    classify_sign,
    complement,
    contract,
    inner,
    normalize,
    q_form,
    wedge,
)
from .plucker import (
    DecomposabilityError,
    PlaneMatrix,
    RankError,
    canonical_scale,
    contains,
    is_decomposable,
    plucker_of_matrix,
    q_orthocomplement,
    spanning_vectors,
)
from .lemmas import (
    EpsilonExhausted,
    extend_nonneg,
    extend_positive,
    shrink_nonneg,
    shrink_positive,
)
from .chamber import (
    ChamberPoint,
    ChartPoint,
    ContainmentError,
    SplitTriple,
    ValidationError,
    assemble,
    ball_chart,
    ball_chart_inverse,
    get_chart,
    split,
)
from .convexoid import (
    ConvexoidSpec,
    DegenerateError,
    DomainError,
    GluingError,
    HPolytope,
    UnboundedError,
    barycenter,
    centroid,
    exit_time,
    from_half_ball,
    radial_project_base,
    to_half_ball,
    vertices,
)

# No module on the chart path imports ``lp`` any more; it is the exact
# reference oracle for the closed forms in ``convexoid``.  Loading it with the
# package keeps ``grassball.lp`` importable by name for code that looks up
# the package's modules, such as a tracer that wraps ``lp.solve_lp``.
from . import lp  # noqa: E402,F401

__version__ = "0.1.0"
