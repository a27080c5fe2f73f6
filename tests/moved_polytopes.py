"""A test oracle shared by the polytope and chart tests: the image of a
polytope under y -> factor y + shift, in ``Fraction`` arithmetic and
through the public ``HPolytope`` constructor only."""

from fractions import Fraction

from grassball.convexoid import HPolytope


def moved_fraction_form(poly, factor, shift):
    """Constraints of the image under y -> factor y + shift, in row
    order."""
    return tuple(
        (n, o * factor + sum((a * b for a, b in zip(n, shift)), Fraction(0)))
        for n, o in poly.constraints
    )


def moved(poly, factor, shift):
    """poly's image under y -> factor y + shift, built through the public
    constructor from the ``Fraction`` rows (n, factor o + n . shift)."""
    return HPolytope(poly.dim, moved_fraction_form(poly, factor, shift))
