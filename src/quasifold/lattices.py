"""Integer lattice computations and rational-span certificates.

A family of vectors over Q(theta) spans a lattice (discrete subgroup of
rank n) exactly when the Q-vector space generated by their power-basis
coefficient vectors has dimension n.  The family is flattened to integer
rows over one denominator, and their Hermite normal form answers every
question: its pivots on the transposed rows give the rank and a witness,
its rows a lattice basis holding every input, and alternated on rows and
columns it gives the Smith invariant factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InternalInconsistency
from .scalars import Field, Scalar

IntRow = list[int]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> tuple[tuple[IntRow, ...], tuple[int, ...]]:
    """Row-style HNF of an integer matrix.

    Returns (nonzero rows, pivot columns).  Pivots are positive with
    strictly increasing columns; entries above each pivot are reduced
    into [0, pivot).
    """
    work = [list(map(int, r)) for r in rows]
    m = len(work)
    ncols = len(work[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, m):
            if work[i][c]:
                a, b = work[r][c], work[i][c]
                if b % a == 0:
                    # the pivot row stays as it is; smith_invariant_factors needs that
                    work[i] = [q - (b // a) * p for p, q in zip(work[r], work[i])]
                    continue
                g, x, y = xgcd(a, b)
                # 2x2 unimodular transform: new rows (x*R + y*I, -b/g*R + a/g*I)
                rr = [x * p + y * q for p, q in zip(work[r], work[i])]
                ri = [(a // g) * q - (b // g) * p for p, q in zip(work[r], work[i])]
                work[r], work[i] = rr, ri
        if work[r][c] < 0:
            work[r] = [-e for e in work[r]]
        for k in range(r):
            q = work[k][c] // work[r][c]
            if q:
                work[k] = [p - q * t for p, t in zip(work[k], work[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


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
    form clears its row and column (see hermite_normal_form) and leaves
    the rest to go on alone.  So the alternation ends."""
    a, _ = hermite_normal_form(rows)
    while any(v for i, row in enumerate(a) for j, v in enumerate(row) if i != j):
        a, _ = hermite_normal_form(list(zip(*a)))
    factors = [row[i] for i, row in enumerate(a)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = math.gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return tuple(factors)


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free elimination."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def quotient_order(coord_vectors: Sequence[Sequence[Scalar]], n: int) -> int:
    """Order of (Z^n + sum_i Z*c_i) / Z^n for rational scalar vectors c_i.

    Writes every c_i over a common denominator D; the group is
    Lambda / D*Z^n with Lambda generated by D*Z^n and the numerators, so
    its order is D^n divided by the product of the Smith invariant
    factors of the stacked generator matrix.
    """
    d_common = math.lcm(*(c.den for vec in coord_vectors for c in vec))
    if d_common == 1:
        return 1
    stack = [[d_common if i == j else 0 for j in range(n)] for i in range(n)]
    for vec in coord_vectors:
        stack.append([c.num[0] * (d_common // c.den) for c in vec])
    factors = smith_invariant_factors(stack)
    covolume = math.prod(factors)
    order, check = divmod(d_common ** n, covolume)
    if check:
        raise InternalInconsistency("quotient order computation lost integrality")
    return order


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
    those before them: the pivot columns of the transposed rows' Hermite form."""
    pivots = hermite_normal_form(list(zip(*rows)))[1]
    return len(pivots), pivots


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
    rank, independent = rational_rank(rows)
    if rank != ambient_dim:
        return LatticeCertificate(rational=False, rank=rank, independent=independent)

    hnf_rows, pivots = hermite_normal_form(rows)
    if len(hnf_rows) != ambient_dim:
        raise InternalInconsistency("HNF rank disagrees with rational rank")

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
