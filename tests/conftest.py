import itertools
from fractions import Fraction

import pytest

from quasifold import (
    Field,
    Scalar,
    builtin_document,
    build_construction,
    parse_polytope,
    rational_field,
)
from quasifold.scalars import _over_common_denominator


@pytest.fixture(scope="session")
def sqrt2_field():
    return Field(("-2", "0", "1"), (1, 2))


@pytest.fixture(scope="session")
def cos_field():
    # theta = cos(pi/10), the ambient field for the regular pentagon data
    return Field(("5/16", "0", "-5/4", "0", "1"), ("9/10", 1))


@pytest.fixture(scope="session")
def rat_field():
    return rational_field()


def load_builtin(name):
    return parse_polytope(builtin_document(name))


def construct_builtin(name):
    return build_construction(load_builtin(name))


def cross_polytope_document(n):
    """|x_1| + ... + |x_n| <= 1: one facet <x, s> >= -1 per sign vector s,
    2n vertices, each on 2^(n-1) facets."""
    return {"dimension": n,
            "facets": [{"normal": [str(x) for x in signs], "offset": "-1"}
                       for signs in itertools.product((1, -1), repeat=n)]}


# Scalars hold integer numerators over one denominator; the tests state
# their expectations and references in Fractions, read and built here.

def coeffs(s):
    """Power-basis coefficients of a scalar, as Fractions."""
    return tuple(Fraction(c, s.den) for c in s.num)


def as_fraction(s):
    """The value of a rational scalar, as a Fraction."""
    if not s.is_rational():
        raise ValueError(f"{s} is not rational")
    return Fraction(s.num[0], s.den)


def from_coeffs(field, values):
    """The scalar with the given rational power-basis coefficients."""
    return Scalar(field, *_over_common_denominator(values))
