"""Exception types shared across the package.

Every error the package raises on purpose derives from QuasifoldError, so
the CLI maps all of them to exit code 2 with one handler.  The sections
below follow the modules that raise them.
"""

from __future__ import annotations


class QuasifoldError(Exception):
    """Base class for every error this package raises deliberately."""


# ---------------------------------------------------------------- scalars

class FieldError(QuasifoldError):
    """Invalid number field specification."""


class NotMonic(FieldError):
    pass


class NoSignChange(FieldError):
    """Root interval endpoints do not bracket a sign change."""


class ReduciblePolynomial(FieldError):
    """Minimal polynomial failed a square-free or rational-root check."""


class RootNotIsolated(FieldError):
    """The given interval contains more than one real root."""


class FieldMismatch(QuasifoldError):
    """Arithmetic attempted between scalars of different fields."""


class ScalarSyntaxError(QuasifoldError, ValueError):
    """Malformed scalar expression text."""


class DivisionByZeroScalar(QuasifoldError, ZeroDivisionError):
    pass


class ScalarTooLarge(QuasifoldError, ValueError):
    """A value too large to write out: a numerator or denominator past
    ``sys.get_int_max_str_digits()`` digits, or a magnitude past the
    largest double."""


class SignUndecidable(QuasifoldError):
    """Interval refinement failed to separate a value from zero, or to
    pin down the one double nearest to it.

    Only reachable when the minimal polynomial is reducible over Q despite
    passing the square-free and rational-root pre-checks; the coefficient
    vector then does not determine a nonzero real number.
    """


# ----------------------------------------------------------------- linalg

class DimensionMismatch(QuasifoldError, ValueError):
    pass


# --------------------------------------------------------------- polytope

class InvalidPolytope(QuasifoldError):
    """Input cannot define a bounded full-dimensional simple polytope."""


class SchemaError(InvalidPolytope):
    """Polytope document violates the JSON schema."""


class UnboundedPolytope(InvalidPolytope):
    """Feasible set has a nonzero recession direction, carried as a witness."""

    def __init__(self, message: str, direction=None):
        super().__init__(message)
        self.direction = direction


class LowerDimensional(InvalidPolytope):
    """Feasible set is empty or its affine hull has dimension < n.

    An empty set carries ``certificate``, one exact Scalar y_j per facet
    with y >= 0, sum y_j X_j = 0 and sum y_j lambda_j > 0 (Farkas); a
    set inside the hyperplane of a facet carries that facet's index as
    ``facet``, the least facet active at every vertex.
    """

    def __init__(self, message: str, certificate=None, facet=None):
        super().__init__(message)
        self.certificate = certificate
        self.facet = facet


class NormalsDontSpan(InvalidPolytope):
    pass


class NotRationalInput(QuasifoldError):
    """Operation requires a rational polytope but none was certified."""


# ----------------------------------------------------------- construction

class NotSimple(QuasifoldError):
    """Construction requires a simple polytope; the witness is the index
    of a vertex on more than n facets and its active facet tuple."""

    def __init__(self, message: str, vertex=None, active=None):
        super().__init__(message)
        self.vertex = vertex
        self.active = active


class NotAVertex(QuasifoldError, ValueError):
    pass


class InternalInconsistency(QuasifoldError, AssertionError):
    """Two independent computations of the same invariant disagree."""


# --------------------------------------------------------------- verifier

class OffLevelSet(QuasifoldError):
    """Point is too far from the zero level set of the reduced moment map."""


class IllConditioned(QuasifoldError):
    """Float-side linear system lost rank at working precision."""


class StepOutOfRange(QuasifoldError, ValueError):
    """Finite-difference step outside the supported [1e-8, 1e-3] range."""


# -------------------------------------------------------------------- cli

class DimensionUnsupported(QuasifoldError):
    """Requested output only exists for planar (n = 2) polytopes."""
