"""Exact arithmetic in Q(theta): field construction, parsing, certified floats."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifold import (
    DimensionMismatch,
    DivisionByZeroScalar,
    Field,
    FieldMismatch,
    NoSignChange,
    NotMonic,
    ReduciblePolynomial,
    RootNotIsolated,
    Scalar,
    ScalarSyntaxError,
    ScalarTooLarge,
    parse_scalar,
    rational_field,
)
from quasifold.scalars import (
    _over_common_denominator, _sturm_chain, add_product, cross_sign, dot, sub_product,
)
import quasifold.scalars as scalars_module
from conftest import as_fraction, coeffs, from_coeffs


# --------------------------------------------------------------------------
# Field construction
# --------------------------------------------------------------------------

class TestFieldCreate:
    def test_sqrt2(self, sqrt2_field):
        assert sqrt2_field.degree == 2
        assert abs(sqrt2_field.theta.to_float() - math.sqrt(2)) < 1e-12

    def test_rational_field_is_degree_one(self, rat_field):
        assert rat_field.degree == 1
        assert as_fraction(rat_field.scalar("7/3")) == Fraction(7, 3)

    def test_cos_pi_10(self, cos_field):
        # 16x^4 - 20x^2 + 5 made monic is x^4 - 5/4 x^2 + 5/16; its root in
        # (9/10, 1) is cos(pi/10)
        assert cos_field.degree == 4
        assert abs(cos_field.theta.to_float() - math.cos(math.pi / 10)) < 1e-12

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            Field(("-2", "0", "2"), (1, 2))
        with pytest.raises(NotMonic):
            Field(("5",), (0, 1))

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            Field(("-2", "0", "1"), (2, 3))
        with pytest.raises(NoSignChange):
            Field(("-2", "0", "1"), ("-2", 2))  # contains both roots, endpoint signs agree
        with pytest.raises(NoSignChange):
            Field(("-2", "0", "1"), (2, 1))  # empty interval

    def test_root_not_isolated(self):
        # x^3 - 3x + 1 has three real roots, all inside (-2, 8/5)
        with pytest.raises(RootNotIsolated):
            Field(("1", "-3", "0", "1"), ("-2", "8/5"))

    def test_reducible_rejected(self):
        with pytest.raises(ReduciblePolynomial):
            Field(("-1", "0", "1"), ("1/2", 2))  # rational roots +-1
        with pytest.raises(ReduciblePolynomial, match="not square-free"):
            Field(("2", "-3", "0", "1"), (-3, 0))  # (x-1)^2 (x+2)

    @pytest.mark.parametrize("c", [2 * 10**16, 2 * 10**24])
    def test_large_constant_term_builds_quickly(self, c):
        # Q(sqrt c) is Q(sqrt 2) with a large constant term.  The
        # rational-root screen halves the Sturm chain's grid about log2(c)
        # times, so its cost must not grow like sqrt(c).
        root = math.isqrt(c)
        start = time.perf_counter()
        field = Field((-c, 0, 1), (root, root + 1))
        assert time.perf_counter() - start < 1
        assert field.theta * field.theta == c

    def test_large_rational_root_named(self):
        # (x - 10^12)(x^2 - 2), around sqrt 2
        with pytest.raises(ReduciblePolynomial, match="has rational root 1000000000000$"):
            Field((2 * 10**12, -2, -10**12, 1), (1, 2))

    def test_rational_root_between_the_integers(self):
        # (16x - 5)(x^2 - 2): the root 5/16 is the grid point 5/a with
        # a = 16, the leading coefficient of the integer polynomial
        with pytest.raises(ReduciblePolynomial, match="has rational root 5/16$"):
            Field(("5/8", "-2", "-5/16", "1"), (1, 2))

    def test_square_free_check_alone_refuses(self):
        # (x^2-2)^2 (x^2-3) has no rational root and one root, sqrt 3, in
        # the interval: only the square-free check can refuse it.
        with pytest.raises(ReduciblePolynomial, match="not square-free"):
            Field(("-12", "0", "16", "0", "-7", "0", "1"), ("17/10", "9/5"))

    def test_squarefree_reducible_slips_through_until_division(self):
        # (x^2-2)(x^2-3) has no rational roots and is square-free, so the
        # pre-checks accept it; the quotient ring then has zero divisors.
        ring = Field(("6", "0", "-5", "0", "1"), (1, "3/2"))
        zero_divisor = ring.parse("theta^2 - 2")
        assert not zero_divisor.is_zero()
        with pytest.raises(DivisionByZeroScalar):
            ring.one / zero_divisor

    def test_field_equality_by_value(self, sqrt2_field):
        assert sqrt2_field == Field(("-2", "0", "1"), (1, 2))
        assert sqrt2_field != rational_field()

    @pytest.mark.parametrize("minpoly, interval", [
        ((-2.0, 0, 1.0), (1, 2)),
        (("-2", "0", "1"), (1, 2.0)),
        ((np.float64(-2), 0, 1), (1, 2)),
        (("-2", "0", "1"), (np.float32(1), 2)),
    ], ids=["coefficient", "endpoint", "numpy-coefficient", "numpy-endpoint"])
    def test_binary_floats_refused(self, minpoly, interval):
        # A double stands for its own dyadic value, never for the decimal
        # it prints as, so an exact field takes none.
        with pytest.raises(TypeError, match="binary float"):
            Field(minpoly, interval)

    def test_exact_values_accepted(self):
        assert Field((-2, 0, Fraction(1)), (np.int64(1), "2")) == Field(("-2", "0", "1"), (1, 2))

    @pytest.mark.parametrize("value", [0.1, 2.0, np.float64(0.5), np.float32(0.5)])
    def test_scalar_refuses_binary_floats(self, value):
        # Fraction(0.1) would give 3602879701896397/36028797018963968.
        with pytest.raises(TypeError, match="binary float"):
            rational_field().scalar(value)

    def test_scalar_of_exact_values(self, sqrt2_field):
        for field in (rational_field(), sqrt2_field):
            for value in (Fraction(1, 10), "1/10"):
                assert as_fraction(field.scalar(value)) == Fraction(1, 10)
            assert as_fraction(field.scalar(np.int64(-3))) == -3


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

class TestParse:
    def test_rational_literal(self, sqrt2_field):
        s = parse_scalar("1/2", sqrt2_field)
        assert coeffs(s) == (Fraction(1, 2), Fraction(0))

    def test_theta_square_reduces(self, sqrt2_field):
        assert coeffs(parse_scalar("theta^2", sqrt2_field)) == (Fraction(2), Fraction(0))

    def test_minpoly_evaluates_to_zero(self, cos_field):
        assert parse_scalar("16*theta^4 - 20*theta^2 + 5", cos_field).is_zero()

    def test_unicode_theta(self, sqrt2_field):
        assert parse_scalar("θ", sqrt2_field) == sqrt2_field.theta

    def test_precedence_and_parens(self, rat_field):
        assert as_fraction(rat_field.parse("1 + 2*3^2")) == 19
        assert as_fraction(rat_field.parse("(1 + 2)*3^2")) == 27
        assert as_fraction(rat_field.parse("-3^2")) == -9
        assert as_fraction(rat_field.parse("(-3)^2")) == 9

    def test_negative_exponent(self, sqrt2_field):
        # theta^-1 = theta/2 in Q(sqrt 2)
        assert sqrt2_field.parse("theta^-1") == sqrt2_field.theta / 2

    def test_division(self, sqrt2_field):
        assert sqrt2_field.parse("1/theta") == sqrt2_field.parse("theta/2")

    @pytest.mark.parametrize("bad", [
        "", "1 +", "theta^(1/2)", "2 ** 3", "x + 1", "(1", "1//2",
        pytest.param("(" * 400 + "1" + ")" * 400, id="deep-parentheses"),
        pytest.param("-" * 3000 + "1", id="deep-signs"),
    ])
    def test_syntax_errors(self, bad, sqrt2_field):
        with pytest.raises(ScalarSyntaxError):
            parse_scalar(bad, sqrt2_field)

    def test_division_by_zero(self, sqrt2_field):
        with pytest.raises(DivisionByZeroScalar):
            sqrt2_field.parse("1/(theta^2 - 2)")

    def test_expr_round_trip(self, cos_field):
        s = cos_field.parse("3/2 - theta + 5*theta^3")
        assert cos_field.parse(s.to_expr()) == s

    def test_digit_runs_are_decimal_characters(self, rat_field):
        # str.isdigit() holds for superscripts and circled digits, which
        # int() refuses; digit runs read exactly the characters it accepts.
        for text, position in (("2\u00b2", 1), ("\u2460", 0)):
            with pytest.raises(ScalarSyntaxError,
                               match=f"unexpected character '{text[position]}' "
                                     f"at position {position}"):
                rat_field.parse(text)
        assert as_fraction(rat_field.parse("\u0663")) == 3  # Arabic-Indic three

    def test_overlong_integer_literal(self, rat_field):
        # int() refuses more than sys.get_int_max_str_digits() digits.
        for text in ("1" * 5000, "2^" + "1" * 5000):
            with pytest.raises(ScalarSyntaxError, match="5000 digits is too long"):
                rat_field.parse(text)

    @pytest.mark.parametrize("text", ["10^5000", "-2^300000", "theta^-20000", "1^20000"])
    def test_power_past_the_digit_limit_before_computing_it(self, text, sqrt2_field):
        # |e| times max(bits - 1, 1), bits the base's largest bit length, is
        # refused past the bit length of sys.get_int_max_str_digits() digits.
        with pytest.raises(ScalarSyntaxError, match="exceeds 4300 digits"):
            parse_scalar(text, sqrt2_field)

    def test_powers_within_the_digit_limit_parse(self, rat_field):
        assert rat_field.parse("2^8000").num == (2**8000,)
        assert rat_field.parse("(-10)^-3000").den == 10**3000
        third = rat_field.parse("(1/3)^9000")  # a 4,295-digit denominator
        assert third.den == 3**9000
        assert parse_scalar(third.to_expr(), rat_field) == third

    def test_no_digit_limit(self, rat_field, monkeypatch):
        # Python before 3.10.7 has no sys.get_int_max_str_digits().
        monkeypatch.setattr("quasifold.scalars._max_str_digits", lambda: 0)
        assert rat_field.parse("1^20000") == rat_field.one


# --------------------------------------------------------------------------
# Values too large to write out
# --------------------------------------------------------------------------

class TestTooLarge:
    def test_product_past_the_digit_limit(self, rat_field):
        value = rat_field.parse("10^3000*10^3000")
        assert value.num == (10**6000,)
        with pytest.raises(ScalarTooLarge, match="exceeds 4300 digits"):
            value.to_expr()

    def test_power_past_the_digit_limit_in_higher_degree(self):
        # theta = sqrt(2)*10^5 has bit length 1 in the power basis, so the
        # parser lets theta^2000 = 2^1000 * 10^10000 through.
        field = Field(("-20000000000", "0", "1"), (141421, 141422))
        assert field.parse("theta^800").num == (2**400 * 10**4000, 0)
        with pytest.raises(ScalarTooLarge, match="exceeds 4300 digits"):
            field.parse("theta^2000").to_expr()

    @pytest.mark.parametrize("text", ["10^400", "-10^400", "10^400*theta", "1/(theta - 1)^2000"])
    def test_past_the_largest_double(self, text, sqrt2_field):
        with pytest.raises(ScalarTooLarge, match="past the largest double"):
            parse_scalar(text, sqrt2_field).to_float()

    def test_largest_double_still_converts(self, rat_field):
        largest = rat_field.parse(str(int(1.7976931348623157e308)))
        assert largest.to_float() == 1.7976931348623157e308


# --------------------------------------------------------------------------
# Arithmetic
# --------------------------------------------------------------------------

def _scalars(field):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    return st.tuples(*[coeff] * field.degree).map(
        lambda cs: field.parse(
            " + ".join(f"({c})*theta^{k}" for k, c in enumerate(cs)) or "0"
        )
    )


SQRT2 = Field(("-2", "0", "1"), (1, 2))
COSF = Field(("5/16", "0", "-5/4", "0", "1"), ("9/10", 1))


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(a=_scalars(SQRT2), b=_scalars(SQRT2), c=_scalars(SQRT2))
    def test_ring_axioms_quadratic(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @settings(max_examples=40, deadline=None)
    @given(a=_scalars(COSF), b=_scalars(COSF), c=_scalars(COSF))
    def test_ring_axioms_quartic(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(a=_scalars(COSF))
    def test_multiplicative_inverse(self, a):
        if not a.is_zero():
            assert a * a.inverse() == COSF.one

    @pytest.mark.parametrize("field", [SQRT2, COSF], ids=["sqrt2", "cos_pi_10"])
    @pytest.mark.parametrize("value, num, den", [
        (Fraction(-3, 7), -7, 3), (Fraction(5), 1, 5), (Fraction(1), 1, 1),
    ])
    def test_rational_inverse_swaps_numerator_and_denominator(self, monkeypatch, field,
                                                              value, num, den):
        # No integer system is solved for a rational value: the inverse of
        # num[0] / den is den / num[0], with the higher numerators still 0.
        calls = []
        bareiss = scalars_module.bareiss
        monkeypatch.setattr(scalars_module, "bareiss",
                            lambda system: calls.append(1) or bareiss(system))
        inverse = field.scalar(value).inverse()
        assert (inverse.num, inverse.den) == ((num,) + (0,) * (field.degree - 1), den)
        assert calls == []
        assert field.theta.inverse() * field.theta == field.one and calls == [1]

    @settings(max_examples=40, deadline=None)
    @given(a=_scalars(COSF))
    def test_expr_parse_round_trip(self, a):
        assert COSF.parse(a.to_expr()) == a

    def test_mixed_field_rejected(self, sqrt2_field, cos_field):
        with pytest.raises(FieldMismatch):
            sqrt2_field.theta + cos_field.theta

    def test_pow(self, sqrt2_field):
        t = sqrt2_field.theta
        assert t ** 0 == sqrt2_field.one
        assert t ** 3 == 2 * t
        assert t ** -2 == sqrt2_field.scalar("1/2")

    def test_int_coercion(self, sqrt2_field):
        t = sqrt2_field.theta
        assert 1 + t - 1 == t
        assert (2 * t) / 2 == t


# --------------------------------------------------------------------------
# Certified evaluation
# --------------------------------------------------------------------------

def _is_nearest_double(s, d):
    """s lies strictly between the midpoints that d shares with its two
    neighbouring doubles (also right when d is a power of two)."""
    below = (Fraction(math.nextafter(d, -math.inf)) + Fraction(d)) / 2
    above = (Fraction(d) + Fraction(math.nextafter(d, math.inf))) / 2
    return (s - below).sign() > 0 and (s - above).sign() < 0


class TestEval:
    def test_rational_is_float_of_fraction(self, sqrt2_field):
        for value in (Fraction(1, 3), Fraction(-7, 10), Fraction(10**30 + 1, 3**40)):
            assert sqrt2_field.scalar(value).to_float() == float(value)

    def test_square_roots_are_correctly_rounded(self, sqrt2_field, cos_field):
        assert sqrt2_field.theta.to_float() == math.sqrt(2)
        assert cos_field.parse("8*theta^2 - 5").to_float() == math.sqrt(5)

    @settings(max_examples=250, deadline=None)
    @given(a=st.sampled_from([SQRT2, COSF]).flatmap(_scalars))
    def test_nearest_double(self, a):
        for s in (a, a - Fraction(a.to_float())):
            assert _is_nearest_double(s, s.to_float())

    @pytest.mark.parametrize("expr, field", [
        (f"theta - {Fraction(math.sqrt(2))}", SQRT2),
        (f"8*theta^2 - 5 - {Fraction(math.sqrt(5))}", COSF),
        (f"theta - {Fraction(9510565162951535, 10**16)}", COSF),
    ], ids=["sqrt2", "sqrt5", "cos_pi_10"])
    def test_nearest_double_near_zero(self, expr, field):
        s = field.parse(expr)
        d = s.to_float()
        assert d != 0.0 and _is_nearest_double(s, d)

    def test_nested_refinement(self, cos_field):
        # Refining the shared isolator only shrinks it, and a rendering does
        # not move when later sign tests refine it further.
        s = cos_field.parse("1 - 2*theta^2 + theta^3")
        outer = cos_field.isolator()
        d = s.to_float()
        inner = cos_field.isolator()
        assert outer[0] <= inner[0] and inner[1] <= outer[1]
        # theta - mid straddles zero on the current isolator, so its sign
        # forces at least one more bisection.
        assert (cos_field.theta - (inner[0] + inner[1]) / 2).sign() != 0
        tightest = cos_field.isolator()
        assert inner[0] <= tightest[0] and tightest[1] <= inner[1]
        assert tightest[1] - tightest[0] < inner[1] - inner[0]
        assert s.to_float() == d

    def test_cos_2pi_5(self, cos_field):
        # cos(2pi/5) expressed in the power basis of cos(pi/10)
        a = cos_field.parse("2*theta^2 - 3/2")
        assert abs(a.to_float() - math.cos(2 * math.pi / 5)) < 1e-9

    def test_trig_constants(self, cos_field):
        pairs = [
            ("theta", math.sin(2 * math.pi / 5)),
            ("1 - 2*theta^2", math.cos(4 * math.pi / 5)),
            ("4*theta^3 - 3*theta", math.sin(4 * math.pi / 5)),
            ("8*theta^2 - 5", math.sqrt(5)),
        ]
        for expr, want in pairs:
            assert abs(cos_field.parse(expr).to_float() - want) < 1e-12

    def test_float_width_contract(self, sqrt2_field):
        # The rendering of sqrt(2) is off by at most half an ulp, which is
        # far inside 1e-10; the containment is checked exactly in Q.
        d = sqrt2_field.theta.to_float()
        half_ulp = Fraction(math.ulp(d)) / 2
        lo, hi = Fraction(d) - half_ulp, Fraction(d) + half_ulp
        assert 0 < lo and lo * lo <= 2 <= hi * hi
        assert hi - lo <= Fraction(1, 10**10)

    def test_sign_certification(self, cos_field):
        # sqrt5 - 2 > 0 but the difference is about 0.236; tighter: compare
        # two nearby algebraic numbers whose difference is tiny yet nonzero
        sqrt5 = cos_field.parse("8*theta^2 - 5")
        assert (sqrt5 - cos_field.scalar("2236067977/1000000000")).sign() > 0
        assert (sqrt5 - cos_field.scalar("2236067978/1000000000")).sign() < 0
        assert cos_field.parse("0").sign() == 0

    def test_ordering(self, sqrt2_field):
        t = sqrt2_field.theta
        assert sqrt2_field.scalar(1) < t < sqrt2_field.scalar("3/2")
        assert t * t == 2
        assert t <= t

    def test_is_rational_and_integer(self, sqrt2_field):
        assert sqrt2_field.scalar(-3).is_integer()
        assert sqrt2_field.scalar("1/2").is_rational()
        assert not sqrt2_field.theta.is_rational()
        assert (sqrt2_field.theta ** 2).is_integer()


# --------------------------------------------------------------------------
# Integer representation against a Fraction reference
# --------------------------------------------------------------------------

def _ref_eval(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _ref_mul(field, x, y):
    """Product of two Fraction coefficient vectors: convolve, then reduce
    theta^g, ..., theta^(2g-2) by the minimal polynomial."""
    g = field.degree
    table, cur = [], [-c for c in field.minpoly[:-1]]
    for _ in range(g - 1):
        table.append(cur)
        cur = [Fraction(0)] + cur[:-1]
        cur = [c + table[-1][-1] * t for c, t in zip(cur, table[0])]
    raw = [Fraction(0)] * (2 * g - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            raw[i + j] += a * b
    out = raw[:g]
    for c, red in zip(raw[g:], table):
        out = [o + c * r for o, r in zip(out, red)]
    return tuple(out)


def _ref_enclosure(field, x, done):
    """Horner enclosure of the value over Fraction bisections of the
    field's root interval, until done(lo, hi)."""
    tlo, thi = field.root_interval
    rising = _ref_eval(field.minpoly, thi) > 0
    for _ in range(400):
        lo = hi = x[-1]
        for c in reversed(x[:-1]):
            products = (lo * tlo, lo * thi, hi * tlo, hi * thi)
            lo, hi = min(products) + c, max(products) + c
        if done(lo, hi):
            return lo, hi
        mid = (tlo + thi) / 2
        if (_ref_eval(field.minpoly, mid) > 0) == rising:
            thi = mid
        else:
            tlo = mid
    raise AssertionError("reference enclosure did not converge")


def _ref_sign(field, x):
    if all(c == 0 for c in x[1:]):
        return (x[0] > 0) - (x[0] < 0)
    lo, _ = _ref_enclosure(field, x, lambda lo, hi: lo > 0 or hi < 0)
    return 1 if lo > 0 else -1


def _ref_float(field, x):
    if all(c == 0 for c in x[1:]):
        return float(x[0])
    return float(_ref_enclosure(field, x, lambda lo, hi: float(lo) == float(hi))[0])


def _assert_canonical(s):
    assert s.den > 0 and math.gcd(s.den, *s.num) == 1
    assert len(s.num) == s.field.degree


def _coefficient_vectors(field):
    """Coefficient vectors, and rational ones (zero past theta^0), which an
    irrational field inverts by swapping numerator and denominator."""
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=40)
    zeros = (Fraction(0),) * (field.degree - 1)
    return st.one_of(st.tuples(*[coeff] * field.degree),
                     coeff.map(lambda c: (c,) + zeros))


ORACLE_FIELDS = [rational_field(), SQRT2, COSF]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["Q", "sqrt2", "cos_pi_10"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_integer_scalars_match_fraction_reference(field, data):
    x = data.draw(_coefficient_vectors(field))
    y = data.draw(_coefficient_vectors(field))
    a, b = from_coeffs(field, x), from_coeffs(field, y)
    assert coeffs(a) == x and coeffs(b) == y
    one = (Fraction(1),) + (Fraction(0),) * (field.degree - 1)
    results = {
        "add": (a + b, tuple(p + q for p, q in zip(x, y))),
        "sub": (a - b, tuple(p - q for p, q in zip(x, y))),
        "mul": (a * b, _ref_mul(field, x, y)),
        "pow": (a ** 3, _ref_mul(field, _ref_mul(field, x, x), x)),
    }
    for name, (got, want) in results.items():
        _assert_canonical(got)
        assert coeffs(got) == want, name
    if not b.is_zero():
        quotient = a / b
        _assert_canonical(quotient)
        assert _ref_mul(field, coeffs(quotient), y) == x
    if not a.is_zero():
        power = a ** -2
        _assert_canonical(power)
        assert _ref_mul(field, coeffs(power), _ref_mul(field, x, x)) == one
    for s, v in ((a, x), (a - b, results["sub"][1])):
        assert s.sign() == _ref_sign(field, v)
        assert s.to_float() == _ref_float(field, v)
    assert (a == b) == (x == y)
    # Equal values reached by different routes have one representation.
    again = (a + b) - b
    assert again == a and hash(again) == hash(a)
    assert (again.num, again.den) == (a.num, a.den)


def _kernel_entries(field):
    """Zero, and values with mixed denominators and signs."""
    zero = (Fraction(0),) * field.degree
    return st.one_of(st.just(zero), _coefficient_vectors(field)).map(
        lambda x: from_coeffs(field, x))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["Q", "sqrt2", "cos_pi_10"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fused_kernels_match_unfused_arithmetic(field, data):
    # Each kernel reduces once; the lowest-terms form is unique, so it
    # returns exactly what the chain of *, + and - returns.
    length = data.draw(st.integers(1, 6))
    u = data.draw(st.lists(_kernel_entries(field), min_size=length, max_size=length))
    v = data.draw(st.lists(_kernel_entries(field), min_size=length, max_size=length))
    x, f, a, b = (data.draw(_kernel_entries(field)) for _ in range(4))
    unfused = u[0] * v[0]
    for p, q in zip(u[1:], v[1:]):
        unfused = unfused + p * q
    for got, want in ((dot(u, v), unfused),
                      (sub_product(x, f, a), x - f * a),
                      (add_product(x, f, a), x + f * a)):
        _assert_canonical(got)
        assert (got.num, got.den) == (want.num, want.den)
    assert cross_sign(x, f, a, b) == (x * f - a * b).sign()


def test_fused_kernels_reject_mixed_fields():
    q, s = rational_field().one, SQRT2.theta
    calls = [
        lambda: dot([s, s], [s, q]),
        lambda: dot([q], [s]),
        lambda: sub_product(s, q, s),
        lambda: add_product(q, q, s),
        lambda: cross_sign(s, s, s, COSF.theta),
    ]
    for call in calls:
        with pytest.raises(FieldMismatch):
            call()


def _fraction_to_expr(coefficients):
    """The rendering from Fraction coefficients that to_expr replaces."""
    parts: list[str] = []
    for k, c in enumerate(coefficients):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = "theta" if k == 1 else f"theta^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["Q", "sqrt2", "cos_pi_10"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_to_expr_matches_fraction_rendering(field, data):
    numerator = st.one_of(st.just(0), st.sampled_from([1, -1]),
                          st.integers(-10**30, 10**30))
    denominator = st.one_of(st.just(1), st.integers(1, 10**30))
    x = tuple(Fraction(data.draw(numerator), data.draw(denominator))
              for _ in range(field.degree))
    s = from_coeffs(field, x)
    text = s.to_expr()
    assert text == _fraction_to_expr(x)
    assert parse_scalar(text, field) == s


# --------------------------------------------------------------------------
# Field validation against a Fraction reference
# --------------------------------------------------------------------------

def _ref_remainder(a, b):
    """Remainder of a by b over Q."""
    a = list(a)
    for k in range(len(a) - len(b), -1, -1):
        coeff = a[k + len(b) - 1] / b[-1]
        for j, bj in enumerate(b):
            a[k + j] -= coeff * bj
    rem = a[:len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _ref_sturm_chain(p):
    chain = [list(p), [c * k for k, c in enumerate(p)][1:]]
    while True:
        rem = _ref_remainder(chain[-2], chain[-1])
        if not rem:
            return chain
        chain.append([-c for c in rem])


def _ref_variations(chain, x):
    signs = [v > 0 for v in (_ref_eval(poly, x) for poly in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_divisors(n):
    small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
    return sorted({*small, *(abs(n) // d for d in small)})


def _ref_has_rational_root(p):
    """The divisor screen: every num/den with num | constant and
    den | leading coefficient once denominators are cleared."""
    scale = math.lcm(*(c.denominator for c in p))
    constant, leading = p[0] * scale, p[-1] * scale
    nums, dens = _ref_divisors(constant.numerator), _ref_divisors(leading.numerator)
    return constant == 0 or any(_ref_eval(p, Fraction(sign * num, den)) == 0
                                for den in dens for num in nums for sign in (1, -1))


def _ref_refusal(p, lo, hi):
    """The exception type a Field refuses (p, (lo, hi)) with, or None."""
    plo, phi = _ref_eval(p, lo), _ref_eval(p, hi)
    if lo >= hi or plo == 0 or phi == 0 or (plo > 0) == (phi > 0):
        return NoSignChange
    if len(p) > 2:
        chain = _ref_sturm_chain(p)
        if len(chain[-1]) > 1 or _ref_has_rational_root(p):
            return ReduciblePolynomial
        if _ref_variations(chain, lo) - _ref_variations(chain, hi) != 1:
            return RootNotIsolated
    return None


def _ref_table(p):
    """theta^g, ..., theta^(2g-2) as integer rows over their least common
    denominator."""
    g = len(p) - 1
    table, cur = [], [-c for c in p[:-1]]
    for _ in range(g - 1):
        table.append(cur)
        cur = [Fraction(0)] + cur[:-1]
        cur = [c + table[-1][-1] * t for c, t in zip(cur, table[0])]
    den = math.lcm(*(c.denominator for row in table for c in row))
    return [tuple(int(c * den) for c in row) for row in table], den


def _ref_bisect(p, lo, hi, steps):
    rising = _ref_eval(p, lo) < 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if (_ref_eval(p, mid) > 0) == rising:
            hi = mid
        else:
            lo = mid
    return lo, hi


_SMALL = sorted({Fraction(n, d) for n in range(-12, 13) for d in (1, 2, 3, 4) if abs(n) <= 3 * d})
# (x - r)^2 - m: irrational real roots r +- sqrt m, rational ones (m a
# square) or none (m < 0).
_SPREADS = [Fraction(m) for m in ("2", "3", "1/2", "5/4", "7/9", "1/4", "1", "-1")]
_OFFSETS = [Fraction(1, 3), Fraction(1, 100), Fraction(2)]


def _factored_field(rng):
    """A product of rational linear and quadratic factors, sometimes with
    a repeated one, and an interval around one of its real roots or
    anywhere: it may hold 0, 1, 2 or more roots, or end on a rational one."""
    p, roots = [Fraction(1)], []
    # A third are even or odd, as the minimal polynomials of sqrt 2 and
    # cos pi/10 are: each pseudo-division step of their Sturm chains
    # scales by the lead once, not twice.
    centers = [Fraction(0)] if rng.random() < 1 / 3 else _SMALL
    factors = [(rng.choice(centers), rng.choice([None, *_SPREADS]))
               for _ in range(rng.randint(1, 3))]
    if rng.random() < 1 / 3:
        # A linear factor qx - p with q <= 30 and |p| <= 10^6, whose root
        # is a grid point k/a of the chain's screen, a often larger than
        # q; with at most one more factor the divisor reference stays quick.
        factors = [(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 30)), None),
                   *factors[1:2]]
    if rng.random() < 0.25:
        factors.append(rng.choice(factors))
    for r, m in factors:
        if m is None:
            f = (-r, Fraction(1))
            roots.append(r)
        else:
            f = (r * r - m, -2 * r, Fraction(1))
            if m > 0:
                roots += [r + Fraction(s * math.sqrt(m)).limit_denominator(1000) for s in (1, -1)]
        p = [sum((p[i] * f[k - i] for i in range(len(p)) if 0 <= k - i < len(f)), Fraction(0))
             for k in range(len(p) + len(f) - 1)]
    if roots and rng.random() < 0.7:
        root = rng.choice(roots)
        return p, root - rng.choice([Fraction(0), *_OFFSETS]), root + rng.choice(_OFFSETS)
    lo = rng.choice(roots + _SMALL)
    width = rng.choice([Fraction(1), Fraction(3), Fraction(1, 10), Fraction(0)])
    return p, lo, lo - width if rng.random() < 0.1 else lo + width


# The cases are drawn from a seeded generator: hypothesis's own draws lean
# on repeated and zero values, which leave few fields that are accepted.
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64), steps=st.integers(0, 6))
def test_field_validation_matches_fraction_reference(seed, steps):
    p, lo, hi = _factored_field(random.Random(seed))
    if len(p) > 2:
        # Each entry of the integer chain is a positive multiple of the
        # Fraction chain's.
        chain, ref = _sturm_chain(_over_common_denominator(p)[0]), _ref_sturm_chain(p)
        assert [len(c) for c in chain] == [len(c) for c in ref]
        for got, want in zip(chain, ref):
            assert got[-1] * want[-1] > 0
            assert all(g * want[-1] == w * got[-1] for g, w in zip(got, want))
    refusal = _ref_refusal(p, lo, hi)
    if refusal is not None:
        with pytest.raises(refusal):
            Field(p, (lo, hi))
        return
    field = Field(p, (lo, hi))
    assert (field._powers, field._powers_den) == _ref_table(p)
    if field.degree > 1:
        for _ in range(steps):
            field._refine()
        assert field.isolator() == _ref_bisect(p, lo, hi, steps)


def test_field_construction_runs_no_fraction_arithmetic(monkeypatch):
    # Validation, the reduction table and the isolator run on the integer
    # minimal polynomial alone.
    calls = []
    for name in ("__mul__", "__add__", "__sub__", "__truediv__"):
        original = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, _original=original: calls.append(1) or _original(*args))
    assert Fraction(1, 2) * Fraction(1, 3) - Fraction(1, 6) == 0 and len(calls) == 2
    calls.clear()
    fields = [Field(("-2", "0", "1"), (1, 2)), Field(("-5", "0", "1"), (2, 3)),
              Field(("5/16", "0", "-5/4", "0", "1"), ("9/10", 1))]
    monkeypatch.undo()
    assert calls == []
    assert [f.degree for f in fields] == [2, 2, 4]


class TestConstructor:
    def test_lowest_terms_over_a_positive_denominator(self):
        s = Scalar(SQRT2, (4, -6), -8)
        assert (s.num, s.den) == ((-2, 3), 4)
        assert s == SQRT2.parse("-1/2 + 3/4*theta")
        assert Scalar(SQRT2, [0, 0], 7) == SQRT2.zero
        assert (Scalar(SQRT2, [0, 0], 7).den, Scalar(SQRT2, (5, 0)).den) == (1, 1)

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZeroScalar):
            Scalar(SQRT2, (1, 0), 0)

    @pytest.mark.parametrize("num", [(), (1,), (1, 0, 0)])
    def test_one_numerator_per_power_basis_element(self, num):
        # A short tuple used to make Scalar(f, (1,)) + f.theta == 1.
        with pytest.raises(DimensionMismatch, match="for a field of degree 2"):
            Scalar(SQRT2, num)

    def test_hash_agrees_with_equality(self):
        # == equates a rational value with its int or Fraction, so the
        # hashes must agree too; an irrational one hashes by its tuples.
        f = rational_field()
        assert f.one == 1 and 1 in {f.one}
        half = f.scalar(Fraction(1, 2))
        assert hash(half) == hash(Fraction(1, 2)) and half in {Fraction(1, 2)}
        assert hash(SQRT2.scalar(Fraction(-3, 4))) == hash(Fraction(-3, 4))
        s = SQRT2.parse("1/2 + theta/3")
        assert hash(s) == hash(((3, 2), 6)) == hash(SQRT2.parse("theta/3 + 1/2"))


class TestRounding:
    @pytest.mark.parametrize("value", [
        Fraction(10**400 + 1, 10**400),
        Fraction(1, 3 * 10**300),
        Fraction(-(10**500) - 7, 10**500 - 3),
    ], ids=["one-plus-tiny", "tiny", "minus-one"])
    def test_huge_rationals_round_like_float_of_fraction(self, value):
        for field in (rational_field(), SQRT2):
            assert field.scalar(value).to_float() == float(value)

    def test_irrational_beyond_double_range(self):
        # Numerator and denominator far beyond double range, value near 1.
        s = SQRT2.theta / 10**400 + 1
        assert s.to_float() == 1.0
        tiny = SQRT2.parse("theta/3") / 10**300
        assert _is_nearest_double(tiny, tiny.to_float())

    def test_many_bisections(self):
        # 665857/470832 is a continued-fraction convergent of sqrt 2, so the
        # difference is about 1.6e-12 and needs a narrow isolator.
        field = Field(("-2", "0", "1"), (1, 2))
        s = field.parse("theta - 665857/470832")
        assert s.to_float() == -1.5948618246068547e-12
        assert _is_nearest_double(s, s.to_float())
