"""Integer lattice computations: HNF, Smith invariants, quotient orders.

quotient_order is cross-checked against a brute-force closure of the
subgroup of Q^n/Z^n generated by the coordinate vectors, which is the
independent oracle for the structure-group orders, and on large
denominators against the product of the Smith invariant factors.  The
row-by-row hermite_normal_form is cross-checked against a column-by-column
one.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifold import DimensionMismatch, Field, QuasifoldError, rational_field
from quasifold.lattices import (
    hermite_normal_form,
    hnf_coordinates,
    integer_det,
    integer_rows,
    quotient_order,
    rational_rank,
    smith_invariant_factors,
    span_certificate,
    xgcd,
)
from conftest import as_fraction, from_coeffs

RAT = rational_field()
SQRT2 = Field(("-2", "0", "1"), (1, 2))


# --------------------------------------------------------------------------
# Oracle: brute-force subgroup closure in Q^n / Z^n
# --------------------------------------------------------------------------

def brute_force_quotient_order(vectors):
    """Size of the subgroup of Q^n/Z^n generated by the given vectors."""
    def reduce_mod_1(v):
        return tuple(x - x.__floor__() for x in v)

    gens = [reduce_mod_1(tuple(Fraction(x) for x in v)) for v in vectors]
    seen = {tuple(Fraction(0) for _ in gens[0])}
    frontier = list(seen)
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                s = reduce_mod_1(tuple(a + b for a, b in zip(el, g)))
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return len(seen)


# --------------------------------------------------------------------------
# xgcd / HNF / SNF
# --------------------------------------------------------------------------

SMALL_OR_HUGE = st.one_of(st.just(0), st.integers(-200, 200),
                         st.integers(-2**1600, 2**1600))


@settings(max_examples=120, deadline=None)
@given(a=SMALL_OR_HUGE, b=SMALL_OR_HUGE)
def test_xgcd(a, b):
    g, x, y = xgcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


def reference_hermite_normal_form(rows):
    """(nonzero rows, pivot columns) of the row-style HNF, built one
    column at a time: swap a row with a nonzero entry up, fold every row
    below into it by 2x2 unimodular transforms, then reduce above."""
    work = [list(map(int, r)) for r in rows]
    m = len(work)
    ncols = len(work[0]) if m else 0
    pivots = []
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
                    work[i] = [q - (b // a) * p for p, q in zip(work[r], work[i])]
                    continue
                g, x, y = xgcd(a, b)
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


# TestRationalRank's entries: many zeros, small values and one of 10^20.
ENTRY_POOL = [0, 0, 0, 1, -1, 2, 3, -5, 10**20]


class TestHermite:
    def test_pinned(self):
        rows, pivots, independent = hermite_normal_form([(4, 6), (2, 2)])
        assert rows == ((2, 0), (0, 2))
        assert pivots == (0, 1)
        assert independent == (0, 1)

    def test_row_reduction_above_pivot(self):
        rows, pivots, _ = hermite_normal_form([(3, 7), (0, 2)])
        for i, p in enumerate(pivots):
            assert rows[i][p] > 0
            for k in range(i):
                assert 0 <= rows[k][p] < rows[i][p]

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=1, max_size=4))
    def test_span_preserved(self, rows):
        h, pivots, _ = hermite_normal_form(rows)
        # every input row is an integer combination of the HNF rows
        for r in rows:
            assert hnf_coordinates(h, pivots, tuple(r)) is not None
        # and the HNF rows lie in the span of the input (same rank both ways)
        assert len(h) == oracle_int_rank(rows)

    def test_membership_rejects_outside(self):
        h, pivots, _ = hermite_normal_form([(2, 0), (0, 2)])
        assert hnf_coordinates(h, pivots, (1, 0)) is None
        assert hnf_coordinates(h, pivots, (4, -2)) == [2, -1]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_column_by_column_form(self, data):
        # Tall and wide shapes, zero and repeated rows: the form is unique
        # for its lattice, and the rows that leave a remainder are the
        # greedy Q-independent ones.
        width = data.draw(st.integers(1, 8))
        rows = data.draw(st.lists(
            st.lists(st.sampled_from(ENTRY_POOL), min_size=width, max_size=width),
            min_size=1, max_size=12))
        if len(rows) > 1 and data.draw(st.booleans()):
            rows.insert(data.draw(st.integers(1, len(rows))), list(rows[0]))
        h, pivots, independent = hermite_normal_form(rows)
        assert (h, pivots) == reference_hermite_normal_form(rows)
        assert independent == greedy_independent(rows)

    def test_no_rows(self):
        assert hermite_normal_form([]) == ((), (), ())

    def test_ragged_rows_refused(self):
        for rows in ([(2, 1), (3,)], [(3,), (2, 1)]):
            with pytest.raises(DimensionMismatch):
                hermite_normal_form(rows)


def oracle_int_rank(rows):
    from fractions import Fraction
    m = [[Fraction(x) for x in r] for r in rows]
    rank, col = 0, 0
    ncols = len(m[0]) if m else 0
    while rank < len(m) and col < ncols:
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def leibniz_det(a):
    """Determinant as the signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(a))):
        inversions = sum(p > q for p, q in combinations(perm, 2))
        total += (-1) ** inversions * math.prod(a[i][j] for i, j in enumerate(perm))
    return total


def determinantal_factors(rows):
    """Invariant factors from their definition: d_k is the gcd of all
    k x k minors, and factor k is d_k / d_(k-1), up to the rank."""
    factors, prev = [], 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        d = math.gcd(*(leibniz_det([[rows[i][j] for j in cols] for i in picked])
                       for picked in combinations(range(len(rows)), k)
                       for cols in combinations(range(len(rows[0])), k)))
        if not d:
            break
        factors.append(d // prev)
        prev = d
    return tuple(factors)


class TestSmith:
    def test_pinned(self):
        assert smith_invariant_factors([(2, 4), (6, 8)]) == (2, 4)
        assert smith_invariant_factors([(6, 0), (0, 4)]) == (2, 12)
        assert smith_invariant_factors([(1, 0), (0, 1)]) == (1, 1)
        assert smith_invariant_factors([(2, 0), (0, 3)]) == (1, 6)
        assert smith_invariant_factors([(4, 0, 0), (0, 6, 0), (0, 0, 10)]) == (2, 2, 60)
        assert smith_invariant_factors([(0, 1), (0, 0)]) == (1,)
        assert smith_invariant_factors([]) == ()
        assert smith_invariant_factors([(0, 0)]) == ()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_determinantal_divisors(self, data):
        height, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(
            st.lists(st.integers(-12, 12), min_size=width, max_size=width),
            min_size=height, max_size=height))
        if height > 1 and data.draw(st.booleans()):
            rows[-1] = [-x for x in rows[0]]  # rank-deficient
        assert smith_invariant_factors(rows) == determinantal_factors(rows)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(
        st.lists(st.integers(-7, 7), min_size=3, max_size=3), min_size=3, max_size=3))
    def test_product_is_abs_det(self, rows):
        d = integer_det([tuple(r) for r in rows])
        factors = smith_invariant_factors(rows)
        if d == 0:
            assert len(factors) < 3
        else:
            prod = 1
            for f in factors:
                prod *= f
            assert prod == abs(d)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(
        st.lists(st.integers(-7, 7), min_size=2, max_size=2), min_size=2, max_size=3))
    def test_divisibility_chain(self, rows):
        factors = smith_invariant_factors(rows)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


class TestIntegerDet:
    def test_pinned(self):
        assert integer_det([]) == 1
        assert integer_det([(0, 1), (1, 0)]) == -1
        assert integer_det([(0, 2, 0), (0, 0, 3), (5, 0, 0)]) == 30
        assert integer_det([(1, 2), (-2, -4)]) == 0
        with pytest.raises(ValueError):
            integer_det([(1, 2)])
        with pytest.raises(QuasifoldError):
            integer_det([(1, 2)])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_leibniz(self, data):
        # Signs included; a zero first pivot with a nonzero entry below it
        # makes the elimination swap rows.
        n = data.draw(st.integers(0, 4))
        rows = data.draw(st.lists(
            st.lists(st.integers(-7, 7), min_size=n, max_size=n), min_size=n, max_size=n))
        case = data.draw(st.sampled_from(["any", "singular", "zero first pivot"]))
        if case == "singular" and n > 1:
            rows[-1] = [-x for x in rows[0]]
        elif case == "zero first pivot" and n > 1:
            rows[0][0] = 0
            rows[1][0] = data.draw(st.integers(-7, 7).filter(bool))
        assert integer_det(rows) == leibniz_det(rows)


def greedy_independent(rows):
    """Indices of the rows that raise the Fraction-elimination rank of
    the rows before them."""
    return tuple(i for i in range(len(rows))
                 if oracle_int_rank(rows[:i + 1]) > oracle_int_rank(rows[:i]))


class TestRationalRank:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_elimination(self, data):
        width = data.draw(st.integers(1, 8))
        rows = data.draw(st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 3, -5, 10**20]),
                     min_size=width, max_size=width),
            min_size=1, max_size=12))
        want = (oracle_int_rank(rows), greedy_independent(rows))
        assert rational_rank(rows) == want
        scales = data.draw(st.lists(
            st.integers(-10**12, 10**12).filter(bool), min_size=len(rows), max_size=len(rows)))
        assert rational_rank([[k * x for x in row] for k, row in zip(scales, rows)]) == want

    def test_no_rows(self):
        assert rational_rank([]) == (0, ())


# --------------------------------------------------------------------------
# Quotient orders vs brute force
# --------------------------------------------------------------------------

def rational_vectors(vectors):
    """Fraction vectors as vectors of rational scalars."""
    return [tuple(from_coeffs(RAT, (x,)) for x in v) for v in vectors]


class TestQuotientOrder:
    def test_teardrop_orders(self):
        for k in (2, 3, 5):
            c = (Fraction(-1, k),)
            assert quotient_order(rational_vectors([c]), 1) == k
            assert brute_force_quotient_order([c]) == k

    def test_trivial(self):
        assert quotient_order(rational_vectors([(Fraction(1),), (Fraction(-2),)]), 1) == 1

    def test_product_group(self):
        gens = [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3))]
        assert quotient_order(rational_vectors(gens), 2) == 6
        assert brute_force_quotient_order(gens) == 6

    @settings(max_examples=60, deadline=None)
    @given(vecs=st.lists(
        st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=6),
            min_size=2, max_size=2),
        min_size=1, max_size=3))
    def test_matches_brute_force(self, vecs):
        gens = [tuple(v) for v in vecs]
        assert quotient_order(rational_vectors(gens), 2) == brute_force_quotient_order(gens)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_smith_factors(self, data):
        # The order is D^n over the product of the Smith invariant factors
        # of D*I_n stacked over the numerators.  Denominators mix small
        # values, which share factors, with ones of up to 256 bits.
        n = data.draw(st.integers(1, 4))
        den = st.one_of(st.integers(1, 12), st.integers(1, 2**256))
        entry = st.builds(Fraction, st.integers(-2**256, 2**256), den)
        gens = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
        d = math.lcm(*(x.denominator for g in gens for x in g))
        stack = [[d * (i == j) for j in range(n)] for i in range(n)]
        stack += [[int(x * d) for x in g] for g in gens]
        want = d ** n // math.prod(smith_invariant_factors(stack))
        assert quotient_order(rational_vectors(gens), n) == want

    def test_ragged_generator_refused(self):
        gens = [(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))]
        with pytest.raises(DimensionMismatch):
            quotient_order(rational_vectors(gens), 2)


# --------------------------------------------------------------------------
# Rational span certificates
# --------------------------------------------------------------------------

class TestSpanCertificate:
    def test_square_normals(self):
        vecs = [
            (RAT.scalar(1), RAT.zero), (RAT.zero, RAT.scalar(1)),
            (RAT.scalar(-1), RAT.zero), (RAT.zero, RAT.scalar(-1)),
        ]
        cert = span_certificate(RAT, vecs, 2)
        assert cert.rational
        assert [[as_fraction(s) for s in b] for b in cert.basis] == [[1, 0], [0, 1]]
        assert cert.coords == ((1, 0), (0, 1), (-1, 0), (0, -1))

    def test_interval_sqrt2_flatten(self):
        one, t = SQRT2.one, SQRT2.theta
        assert integer_rows([(one,)]) == ([[1, 0]], 1)
        assert integer_rows([(-t,)]) == ([[0, -1]], 1)
        rank, independent = rational_rank(integer_rows([(one,), (-t,)])[0])
        assert rank == 2
        assert independent == (0, 1)

    def test_interval_sqrt2_not_lattice(self):
        cert = span_certificate(SQRT2, [(SQRT2.one,), (-SQRT2.theta,)], 1)
        assert not cert.rational
        assert cert.rank == 2

    def test_reconstruction_is_exact(self):
        # scaled and redundant generators over Q: basis must regenerate each
        vecs = [
            (RAT.scalar(2), RAT.scalar(4)),
            (RAT.scalar(3), RAT.scalar(1)),
            (RAT.scalar(-1), RAT.scalar(3)),
        ]
        cert = span_certificate(RAT, vecs, 2)
        assert cert.rational
        for v, coords in zip(vecs, cert.coords):
            rebuilt = [
                sum((RAT.scalar(c) * b[i] for c, b in zip(coords, cert.basis)), RAT.zero)
                for i in range(2)
            ]
            assert tuple(rebuilt) == v

    def test_fractional_generators(self):
        # 1/2 and 1/3 generate the lattice (1/6)Z
        cert = span_certificate(RAT, [(RAT.scalar("1/2"),), (RAT.scalar("1/3"),)], 1)
        assert cert.rational
        assert as_fraction(cert.basis[0][0]) == Fraction(1, 6)
        assert cert.coords == ((3,), (2,))

    def test_rows_share_one_denominator(self):
        rows, den = integer_rows([(SQRT2.parse("1/2"),), (SQRT2.parse("theta/3 - 1/4"),)])
        assert den == 12
        assert rows == [[6, 0], [-3, 4]]
        assert integer_rows([]) == ([], 1)
