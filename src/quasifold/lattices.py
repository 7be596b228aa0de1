"""Integer lattice computations and rational-span certificates.

A family of vectors over Q(theta) spans a lattice (discrete subgroup of
rank n) exactly when the Q-vector space generated by their power-basis
coefficient vectors has dimension n.  The family is flattened to integer
rows over one denominator, and their Hermite normal form, built one row at
a time, answers every question: the rows that leave a remainder give the
rank and a witness, and its rows a Z-basis holding every input.  Built
modulo a common denominator D, it gives the order of a finite quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, InternalInconsistency
from .scalars import Field, Scalar, bareiss

IntRow = list[int]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    if not b:
        return abs(a), (a > 0) - (a < 0), 0
    g = math.gcd(a, b)
    x = pow(a // g, -1, abs(b) // g) if abs(b) != g else 0
    return g, x, (g - x * a) // b


def hermite_normal_form(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[IntRow, ...], tuple[int, ...], tuple[int, ...]]:
    """Row-style HNF of an integer matrix, built one input row at a time.

    Returns (nonzero rows, pivot columns, independent).  Pivots are
    positive with strictly increasing columns; entries above each pivot
    are reduced into [0, pivot).  Each row is reduced at the pivots met so
    far, and one that leaves a remainder becomes a pivot row: ``independent``
    indexes the rows independent over Q of the rows before them.
    """
    form: list[IntRow] = []
    pivots: list[int] = []
    independent: list[int] = []
    width = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        v = list(map(int, row))
        if len(v) != width:
            raise DimensionMismatch("Hermite form of rows of different lengths")
        k = 0
        for c in range(len(v)):
            at_pivot = k < len(pivots) and pivots[k] == c
            if v[c]:
                if not at_pivot:
                    form.insert(k, v if v[c] > 0 else [-e for e in v])
                    pivots.insert(k, c)
                    independent.append(i)
                    break
                a, b = form[k][c], v[c]
                g, x, y = xgcd(a, b)
                # 2x2 unimodular transform: new rows (x*R + y*v, -b/g*R + a/g*v)
                form[k], v = ([x * p + y * q for p, q in zip(form[k], v)],
                              [(a // g) * q - (b // g) * p for p, q in zip(form[k], v)])
            k += at_pivot
    for r, c in enumerate(pivots):
        for k in range(r):
            q = form[k][c] // form[r][c]
            if q:
                form[k] = [p - q * t for p, t in zip(form[k], form[r])]
    return tuple(tuple(row) for row in form), tuple(pivots), tuple(independent)


def hnf_coordinates(hnf_rows: list[IntRow], pivots: list[int], target: Sequence[int]) -> list[int] | None:
    """Express an integer vector in the HNF row basis; None if outside."""
    rem = list(map(int, target))
    coords = []
    for row, c in zip(hnf_rows, pivots):
        q, check = divmod(rem[c], row[c])
        if check:
            return None
        coords.append(q)
        if q:
            rem = [p - q * t for p, t in zip(rem, row)]
    return coords if not any(rem) else None


def smith_invariant_factors(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Row and column Hermite forms alternate until the matrix is diagonal,
    and gcd/lcm exchanges make the diagonal a divisibility chain.  From
    the second form on, the leading pivot is the gcd of the leading row
    before: it drops strictly unless it divides that row, and then the
    form, which is unique (Cohen, 2.4), clears its row and column and
    leaves the rest to go on alone.  So the alternation ends.  No
    command calls it: it is the tests' reference for quotient_order, and
    the benchmark's tracer counts its calls by name."""
    a = hermite_normal_form(rows)[0]
    while any(v for i, row in enumerate(a) for j, v in enumerate(row) if i != j):
        a = hermite_normal_form(list(zip(*a)))[0]
    factors = [row[i] for i, row in enumerate(a)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = math.gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return tuple(factors)


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact signed determinant by ``bareiss``; 1 for no rows."""
    a = [list(map(int, r)) for r in rows]
    if any(len(r) != len(a) for r in a):
        raise DimensionMismatch("determinant of a non-square matrix")
    return bareiss(a)[1]


def quotient_order(coord_vectors: Sequence[Sequence[Scalar]], n: int) -> int:
    """Order of (Z^n + sum_i Z*c_i) / Z^n for rational scalar vectors c_i.

    Writes every c_i over a common denominator D; the group is
    Lambda / D*Z^n with Lambda generated by D*Z^n and the numerators, so
    its order is the product of D / h over the pivots h of a Hermite form
    of Lambda.  That form is built modulo D, from D*I_n: each 2x2 step is
    unimodular, so it keeps the rows' span in (Z/D)^n and (D/h_k) * row k
    in the span of the rows after it, and the pivots are those of Lambda.
    """
    d = math.lcm(*(c.den for vec in coord_vectors for c in vec))
    if d == 1:
        return 1
    form = [[d if i == j else 0 for j in range(n)] for i in range(n)]
    for vec in coord_vectors:
        if len(vec) != n:
            raise DimensionMismatch(f"generator of length {len(vec)} in dimension {n}")
        v = [c.num[0] * (d // c.den) % d for c in vec]
        for k in range(n):
            if v[k]:
                a, b = form[k][k], v[k]
                g, x, y = xgcd(a, b)
                form[k], v = ([(x * p + y * q) % d for p, q in zip(form[k], v)],
                              [((a // g) * q - (b // g) * p) % d for p, q in zip(form[k], v)])
    return math.prod(d // row[k] for k, row in enumerate(form))


# --------------------------------------------------------------------------
# Rational-span certificates for vectors over Q(theta)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeCertificate:
    """Outcome of the exact rationality test on a family of vectors.

    ``rational`` means the vectors generate a rank-n lattice; ``basis``
    then holds n generating vectors and ``coords`` one integer coordinate
    row per input vector.  Otherwise ``rank`` > n is the Q-dimension of
    the span and ``independent`` indexes a Q-linearly independent subset
    witnessing it.
    """

    rational: bool
    rank: int
    basis: tuple[tuple[Scalar, ...], ...] | None = None
    coords: tuple[tuple[int, ...], ...] | None = None
    independent: tuple[int, ...] | None = None


def integer_rows(vectors: Sequence[Sequence[Scalar]]) -> tuple[list[IntRow], int]:
    """(rows, D): row i holds the power-basis numerators of every
    coordinate of vectors[i], concatenated, over the least common
    denominator D of the whole family."""
    den = math.lcm(*(s.den for vec in vectors for s in vec))
    return [[c * (den // s.den) for s in vec for c in s.num] for vec in vectors], den


def rational_rank(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[int, ...]]:
    """Rank over Q of integer rows and the indices of the rows independent of
    those before them: the rows that leave a remainder in their Hermite form."""
    independent = hermite_normal_form(rows)[2]
    return len(independent), independent


def span_certificate(
    field: Field, vectors: Sequence[Sequence[Scalar]], ambient_dim: int
) -> LatticeCertificate:
    """Decide whether the vectors generate a lattice in R^ambient_dim.

    The callers guarantee the vectors span R^ambient_dim over the reals,
    which forces Q-rank >= ambient_dim; equality is exactly the lattice
    case, and the Hermite form of the denominator-cleared coefficient
    matrix then provides a basis whose Z-span contains every input.
    """
    rows, den = integer_rows(vectors)
    hnf_rows, pivots, independent = hermite_normal_form(rows)
    if len(independent) != ambient_dim:
        return LatticeCertificate(rational=False, rank=len(independent), independent=independent)

    g = field.degree
    basis = tuple(
        tuple(Scalar(field, row[k * g:(k + 1) * g], den) for k in range(ambient_dim))
        for row in hnf_rows
    )

    coords = []
    for row in rows:
        c = hnf_coordinates(hnf_rows, pivots, row)
        if c is None:
            raise InternalInconsistency("input vector fell outside its own HNF lattice")
        coords.append(tuple(c))
    return LatticeCertificate(rational=True, rank=ambient_dim, basis=basis,
                              coords=tuple(coords))
