"""Exact dense linear algebra over Q(theta).

The randomized checks compare against a plain Fraction Gaussian
elimination and a Leibniz-formula determinant written here, so the
Gauss-Jordan implementation under test is never its own oracle; matrix
products are written here too.  The contract checks run over Q and over
Q(sqrt 2), where every pivot inverse goes through the extended gcd with
the minimal polynomial.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifold import DimensionMismatch, Field, rational_field
from quasifold.linalg import Matrix
from conftest import as_fraction

RAT = rational_field()
SQRT2 = Field(("-2", "0", "1"), (1, 2))


def rat_matrix(rows):
    return Matrix(RAT, [[RAT.scalar(x) for x in r] for r in rows])


def rat_vector(values):
    return tuple(RAT.scalar(x) for x in values)


def identity(field, n):
    return Matrix(field, [[field.one if i == j else field.zero for j in range(n)]
                          for i in range(n)])


def mat_vec(m, v):
    return tuple(sum((a * b for a, b in zip(row, v)), m.field.zero) for row in m.rows)


def matmul(a, b):
    return Matrix(a.field, [[sum((x * y for x, y in zip(row, col)), a.field.zero)
                             for col in zip(*b.rows)] for row in a.rows])


def same(a, b):
    return a.field == b.field and a.rows == b.rows


# --------------------------------------------------------------------------
# Oracle: textbook fraction elimination (kept independent of the package)
# --------------------------------------------------------------------------

def oracle_rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    rank, col, nrows = 0, 0, len(m)
    ncols = len(m[0]) if m else 0
    while rank < nrows and col < ncols:
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(nrows):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def leibniz_det(m):
    """Sum over permutations, in the package's scalar arithmetic only."""
    n = m.shape[0]
    total = m.field.zero
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = m.field.one
        for i, j in enumerate(perm):
            term = term * m.rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def oracle_det(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


# --------------------------------------------------------------------------
# Pinned cases from the construction
# --------------------------------------------------------------------------

class TestPinned:
    def test_zero_matrix_rank(self):
        assert rat_matrix([[0, 0, 0]] * 3).rank() == 0

    def test_identity_kernel_empty(self):
        assert identity(RAT, 2).kernel() == ()

    def test_triangle_projection_kernel(self):
        # projection onto the skewed right triangle normals: kernel direction
        # must come out exactly as (theta, 1, 1)
        t = SQRT2.theta
        one, zero = SQRT2.one, SQRT2.zero
        m = Matrix(SQRT2, [[one, zero, -t], [zero, one, -one]])
        (v,) = m.kernel()
        assert v == (t, one, one)

    def test_pentagon_projection(self, cos_field):
        a = cos_field.parse("2*theta^2 - 3/2")
        b = cos_field.theta
        c = cos_field.parse("1 - 2*theta^2")
        d = cos_field.parse("4*theta^3 - 3*theta")
        cols = [(1, 0), (a, b), (c, d), (c, -d), (a, -b)]
        m = Matrix(cos_field, [[cos_field.scalar(x) for x in row]
                               for row in zip(*cols)])
        assert m.rank() == 2
        basis = m.kernel()
        assert len(basis) == 3
        zero = cos_field.zero
        for v in basis:
            assert mat_vec(m, v) == (zero, zero)

    def test_solve_identity(self, sqrt2_field):
        m = identity(sqrt2_field, 2)
        s = sqrt2_field.theta
        assert m.solve((s, sqrt2_field.zero)) == (s, sqrt2_field.zero)

    def test_solve_inconsistent(self):
        m = rat_matrix([[1, 1], [1, 1]])
        assert m.solve(rat_vector([0, 1])) is None

    def test_solve_underdetermined_sets_free_to_zero(self):
        m = rat_matrix([[1, 1]])
        assert m.solve(rat_vector([3])) == (RAT.scalar(3), RAT.zero)

    def test_dimension_mismatch(self):
        m = rat_matrix([[1, 2], [3, 4]])
        with pytest.raises(DimensionMismatch):
            m.solve(rat_vector([1, 2, 3]))

    def test_det_and_inverse(self):
        m = rat_matrix([[2, 1], [7, 4]])
        assert as_fraction(m.det()) == 1
        assert same(matmul(m.inverse(), m), identity(RAT, 2))

    def test_ragged_rows_and_wrong_width_rejected(self):
        one = RAT.one
        with pytest.raises(DimensionMismatch, match="ragged rows"):
            Matrix(RAT, [[one, one], [one]])
        with pytest.raises(DimensionMismatch, match="cols=3"):
            Matrix(RAT, [[one, one]], cols=3)

    def test_zero_row_matrix_keeps_columns(self):
        m = Matrix(RAT, [], cols=3)
        assert m.shape == (0, 3)
        assert len(m.kernel()) == 3


# --------------------------------------------------------------------------
# Randomized cross-checks
# --------------------------------------------------------------------------

entries = st.integers(min_value=-6, max_value=6)
# a + b*theta; over Q theta is 0, so b drops out
pairs = st.tuples(entries, entries)
fields = st.sampled_from((RAT, SQRT2))


def field_vector(field, pairs_):
    return tuple(field.scalar(a) + b * field.theta for a, b in pairs_)


def field_matrix(field, rows):
    return Matrix(field, [field_vector(field, r) for r in rows])


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.lists(entries, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rank_matches_oracle(rows):
    assert rat_matrix(rows).rank() == oracle_rank(rows)


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_matches_oracle(rows):
    assert as_fraction(rat_matrix(rows).det()) == oracle_det(rows)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(pairs, min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_matches_leibniz_over_sqrt2(rows):
    m = field_matrix(SQRT2, rows)
    assert m.det() == leibniz_det(m)


@settings(max_examples=80, deadline=None)
@given(field=fields,
       rows=st.lists(st.lists(pairs, min_size=4, max_size=4), min_size=2, max_size=4))
def test_kernel_contract(field, rows):
    m = field_matrix(field, rows)
    basis = m.kernel()
    assert m.rank() + len(basis) == m.shape[1]
    for v in basis:
        assert all(x.is_zero() for x in mat_vec(m, v))
    # determinism on an equal matrix built from scratch
    assert field_matrix(field, rows).kernel() == basis


@settings(max_examples=60, deadline=None)
@given(
    field=fields,
    rows=st.lists(st.lists(pairs, min_size=3, max_size=3), min_size=2, max_size=4),
    x=st.lists(pairs, min_size=3, max_size=3),
)
def test_solve_round_trip(field, rows, x):
    # construct a guaranteed-consistent system, then check M @ solution = b
    m = field_matrix(field, rows)
    b = mat_vec(m, field_vector(field, x))
    sol = m.solve(b)
    assert sol is not None
    assert mat_vec(m, sol) == b


@settings(max_examples=40, deadline=None)
@given(field=fields,
       rows=st.lists(st.lists(pairs, min_size=3, max_size=3), min_size=3, max_size=3))
# singular only over the field: the leading block has det theta^2 - 2 = 0
@example(field=SQRT2, rows=[[(0, 1), (2, 0), (0, 0)],
                            [(1, 0), (0, 1), (0, 0)],
                            [(0, 0), (0, 0), (1, 0)]])
def test_inverse_round_trip(field, rows):
    m = field_matrix(field, rows)
    if leibniz_det(m).is_zero():
        assert m.inverse() is None
    else:
        assert same(matmul(m, m.inverse()), identity(field, 3))
