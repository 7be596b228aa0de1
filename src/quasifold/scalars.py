"""Exact arithmetic in a real algebraic number field Q(theta).

A field is described by a monic minimal polynomial with rational
coefficients together with an isolating interval that pins down which
real root theta denotes.  It keeps that polynomial once, as integers
over one denominator, and builds one Sturm chain of positive integer
multiples of Euclid's remainders, which both checks the interval and
finds any rational root.  A scalar is a vector of integer numerators
over the power basis 1, theta, ..., theta^(g-1) and one positive common
denominator, kept in lowest terms, so that equal values are equal
tuples (Cohen, A Course in Computational Algebraic Number Theory, 4.2).
All arithmetic is exact integer arithmetic.  Every comparison against
zero and every rounding to a double is decided by a Horner enclosure in
integers over the field's isolating interval, refined by bisection,
never by a floating epsilon.

The fused kernels ``sub_product`` and ``add_product`` compute x - f*a
and x + f*a with one reduction each: they accumulate integer numerators
over one denominator, fold theta^g, ... once through the field's
reduction table, and take a single gcd at the end, where the same
expression built from ``*``, ``+`` and ``-`` takes one per operation.
The lowest-terms form is unique, so each returns exactly the Scalar that
expression returns.  ``+`` and ``-`` are the same kernel with f*1, so
every linear combination in Q(theta) goes through it.  ``cross_sign``
gives the sign of a*b - c*d from unreduced numerators, with no gcd and
no Scalar.  ``dot`` is a chain of ``add_product``, so it reduces once
per term.

``bareiss`` is the one fraction-free elimination: ``Scalar.inverse``
solves its integer system with it, and ``lattices.integer_det`` reads a
determinant off it.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    DivisionByZeroScalar,
    FieldMismatch,
    NoSignChange,
    NotMonic,
    ReduciblePolynomial,
    RootNotIsolated,
    ScalarSyntaxError,
    ScalarTooLarge,
    SignUndecidable,
)

# Bisection cap for sign certification and for rounding to the nearest
# double.  2^-320 of the initial isolating interval is far below
# any gap a well-posed input can produce between a value and zero or a
# rounding midpoint; hitting the cap means the minimal polynomial was
# reducible after all.
_MAX_REFINE = 320

# --------------------------------------------------------------------------
# Dense integer polynomials, ascending coefficient order.
# --------------------------------------------------------------------------

def _eval_scaled(p: Sequence[int], a: int, b: int) -> int:
    """b^deg * p(a/b), which has the sign of p(a/b) when b > 0."""
    value, scale = 0, 1
    for c in reversed(p):
        value = value * a + c * scale
        scale *= b
    return value


def _sturm_chain(p: Sequence[int]) -> list[list[int]]:
    """Sturm chain of p by Euclid's algorithm on (p, p'): its last entry is
    gcd(p, p') up to a constant factor.  Each remainder is a positive
    multiple of the one over Q (pseudo-division scales by |lead|, then the
    content is divided out), so every sign variation is the same (Basu,
    Pollack and Roy, Algorithms in Real Algebraic Geometry, 2.2)."""
    chain = [list(p), [k * c for k, c in enumerate(p)][1:]]
    while True:
        *low, lead = chain[-1] if chain[-1][-1] > 0 else [-c for c in chain[-1]]
        rem = list(chain[-2])
        for shift in range(len(rem) - len(low) - 1, -1, -1):
            top = rem.pop()
            if top:
                rem = [lead * c for c in rem]
                for j, c in enumerate(low):
                    rem[shift + j] -= top * c
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            return chain
        content = math.gcd(*rem)
        chain.append([-c // content for c in rem])


def _sign_variations(chain: list[list[int]], a: int, b: int) -> int:
    signs = []
    for poly in chain:
        v = _eval_scaled(poly, a, b)
        if v:
            signs.append(v > 0)
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def _rational_root(p: Sequence[int], chain: list[list[int]]) -> Fraction | None:
    """A rational root of the square-free integer polynomial p, or None,
    found by the Sturm chain alone.  A root in lowest terms has a
    denominator dividing a = p[-1] > 0, so it is k/a for an integer k,
    and |k| < b*a by Cauchy's bound b.  V(lo/a) - V(hi/a) counts the roots
    in (lo/a, hi/a]; pieces with roots are halved until one step wide,
    where hi/a is the only candidate."""
    a = p[-1]
    bound = (2 + max(abs(c) for c in p) // a) * a
    pieces = [(-bound, _sign_variations(chain, -bound, a),
               bound, _sign_variations(chain, bound, a))]
    while pieces:
        lo, vlo, hi, vhi = pieces.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if not _eval_scaled(p, hi, a):
                return Fraction(hi, a)
            continue
        mid = (lo + hi) // 2
        vmid = _sign_variations(chain, mid, a)
        pieces += [(mid, vmid, hi, vhi), (lo, vlo, mid, vmid)]
    return None


def _over_common_denominator(values: Iterable) -> tuple[tuple[int, ...], int]:
    """Integer numerators over the least common denominator of the
    rationals; the result is in lowest terms."""
    fractions = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fractions))
    return tuple(f.numerator * (den // f.denominator) for f in fractions), den


# --------------------------------------------------------------------------
# Fields
# --------------------------------------------------------------------------

class Field:
    """Real algebraic number field Q(theta).

    ``minpoly`` lists rational coefficients in ascending order and must be
    monic; ``root_interval`` is an open interval whose endpoints evaluate
    to opposite signs and which contains exactly one real root (verified
    with a Sturm chain).  Reducibility is screened by square-free and
    rational-root checks, both read off that chain; full irreducibility
    certification is out of scope and documented as a caller obligation.

    The minimal polynomial is kept once, as the integers F = D * minpoly
    with D > 0 (``_minpoly_num``).  Validation, the reduction table and
    the isolator's bisection run on F alone, with no Fraction arithmetic;
    the Sturm chain holds positive multiples of the remainders over Q.
    """

    def __init__(self, minpoly: Iterable[Fraction | int | str], root_interval: tuple) -> None:
        coeffs = tuple(Fraction(c) for c in minpoly)
        if len(coeffs) < 2:
            raise NotMonic("minimal polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise NotMonic(f"leading coefficient is {coeffs[-1]}, expected 1")
        lo, hi = (Fraction(root_interval[0]), Fraction(root_interval[1]))
        (lo_num, hi_num), iso_den = _over_common_denominator((lo, hi))
        if lo_num >= hi_num:
            raise NoSignChange(f"empty root interval [{lo}, {hi}]")
        ints, scale = _over_common_denominator(coeffs)
        degree = len(ints) - 1
        plo, phi = _eval_scaled(ints, lo_num, iso_den), _eval_scaled(ints, hi_num, iso_den)
        if plo == 0 or phi == 0 or (plo > 0) == (phi > 0):
            scale *= iso_den ** degree
            raise NoSignChange(
                f"minpoly({lo}) = {Fraction(plo, scale)} and "
                f"minpoly({hi}) = {Fraction(phi, scale)} do not bracket a root"
            )

        self.minpoly = coeffs
        self.degree = degree
        self.root_interval = (lo, hi)

        self._minpoly_num = ints
        if degree > 1:
            chain = _sturm_chain(ints)
            if len(chain[-1]) > 1:
                raise ReduciblePolynomial("minimal polynomial is not square-free")
            root = _rational_root(ints, chain)
            if root is not None:
                raise ReduciblePolynomial(f"minimal polynomial has rational root {root}")
            roots = (_sign_variations(chain, lo_num, iso_den)
                     - _sign_variations(chain, hi_num, iso_den))
            if roots != 1:
                raise RootNotIsolated(
                    f"interval ({lo}, {hi}) contains {roots} roots of the minimal polynomial"
                )

        # Mutable isolator cache (L, H, D): theta lies in [L/D, H/D].  It
        # only ever shrinks, and refining it only saves later work: every
        # sign and float is a function of the exact value alone, so no
        # output depends on its state.
        self._iso = (lo_num, hi_num, iso_den)
        self._sign_lo = 1 if plo > 0 else -1
        self._powers, self._powers_den = self._reduction_table()

        zeros = (0,) * (degree - 1)
        self.zero = _scalar(self, (0,) + zeros, 1)
        self.one = _scalar(self, (1,) + zeros, 1)
        if degree == 1:  # F = (c, d) in lowest terms
            self.theta = _scalar(self, (-ints[0],), ints[1])
        else:
            self.theta = _scalar(self, (0, 1) + zeros[1:], 1)

    def _reduction_table(self) -> tuple[list[tuple[int, ...]], int]:
        """theta^k for k in [degree, 2*degree-2] as power-basis vectors of
        integer numerators, over one common denominator.  Row k is
        theta^(g+k) over D^(k+1), from D * theta^g = -F[:g]: theta times
        the row before, theta^g folded in, over one more factor of D."""
        g, ints = self.degree, self._minpoly_num
        d = ints[-1]
        rows, cur = [], [-c for c in ints[:-1]]
        for _ in range(g - 1):
            rows.append(cur)
            cur = [d * c + cur[-1] * f for c, f in zip([0] + cur[:-1], rows[0])]
        den = d ** (g - 1)
        rows = [[c * d ** (g - 2 - k) for c in row] for k, row in enumerate(rows)]
        common = math.gcd(den, *(c for row in rows for c in row))
        return [tuple([c // common for c in row]) for row in rows], den // common

    # -- isolator -----------------------------------------------------------

    def _refine(self) -> None:
        # Only irrational scalars refine, so the degree is >= 2 and the
        # minimal polynomial has no rational root: the midpoint is never one.
        lo, hi, den = self._iso
        mid = lo + hi
        den *= 2
        if (_eval_scaled(self._minpoly_num, mid, den) > 0) == (self._sign_lo > 0):
            self._iso = (mid, 2 * hi, den)
        else:
            self._iso = (2 * lo, mid, den)

    def isolator(self) -> tuple[Fraction, Fraction]:
        lo, hi, den = self._iso
        return Fraction(lo, den), Fraction(hi, den)

    # -- construction helpers -------------------------------------------------

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch("scalar belongs to a different field")
            return value
        if isinstance(value, str):
            return parse_scalar(value, self)
        zeros = (0,) * (self.degree - 1)
        if isinstance(value, int):
            return _scalar(self, (value,) + zeros, 1)
        value = Fraction(value)
        return _scalar(self, (value.numerator,) + zeros, value.denominator)

    def parse(self, text: str) -> "Scalar":
        return parse_scalar(text, self)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, Field)
            and self.minpoly == other.minpoly
            and self.root_interval == other.root_interval
        )

    def __hash__(self) -> int:
        return hash((self.minpoly, self.root_interval))

    def __repr__(self) -> str:
        lo, hi = self.root_interval
        return f"Field(degree={self.degree}, theta in ({lo}, {hi}))"


def rational_field() -> Field:
    """Degree-1 field whose theta is 0: plain rational arithmetic.  One
    instance serves every caller: a degree-1 field never refines its
    isolator, and fields compare by value."""
    return _RATIONALS


# --------------------------------------------------------------------------
# Scalars
# --------------------------------------------------------------------------

class Scalar:
    """Element of a Field: the value (num[0] + num[1]*theta + ... +
    num[g-1]*theta^(g-1)) / den, with integer numerators ``num``, a
    positive integer ``den`` and gcd(den, *num) == 1.  The lowest-terms
    form is unique, so ``==`` compares tuples; ``hash`` hashes a rational
    value as its Fraction, which ``==`` equates it with, and any other by
    its tuples.

    ``Scalar(field, num, den=1)`` puts g = field.degree integer numerators
    over a nonzero integer denominator and brings them to that form.
    Scalars are treated as immutable.
    """

    __slots__ = ("field", "num", "den")

    def __new__(cls, field: Field, num: Iterable[int], den: int = 1) -> "Scalar":
        num = tuple(num)
        if len(num) != field.degree:
            raise DimensionMismatch(
                f"{len(num)} numerators for a field of degree {field.degree}"
            )
        if not den:
            raise DivisionByZeroScalar("zero denominator")
        if den < 0:
            return _reduced(field, tuple([-c for c in num]), -den)
        return _reduced(field, num, den)

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other) -> "Scalar | None":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch("mixed-field arithmetic is rejected")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _fused(self, o, self.field.one, 1)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.field, tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _fused(self, o, self.field.one, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        den = self.den * o.den
        g = field.degree
        if g == 1:
            return _reduced(field, (self.num[0] * o.num[0],), den)
        raw = [0] * (2 * g - 1)
        _convolve(raw, self.num, o.num, 1)
        return _reduced(field, *_fold(field, raw, den))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZeroScalar("division by zero scalar")
        if self.is_rational():  # den / num[0], zero higher numerators kept
            num, zeros = self.num[0], self.num[1:]
            if num < 0:
                return _scalar(self.field, (-self.den, *zeros), -num)
            return _scalar(self.field, (self.den, *zeros), num)
        # x = den / (num[0] + ... + num[g-1]*theta^(g-1)) solves the integer
        # system whose column j is T * num * theta^j, reduced by the field's
        # table over its denominator T, with right-hand side T * den * e_0.
        field = self.field
        g = field.degree
        table, scale = field._powers, field._powers_den
        system = [[0] * (g + 1) for _ in range(g)]
        system[0][g] = scale * self.den
        for j in range(g):
            for i, c in enumerate(self.num):
                if c and i + j < g:
                    system[i + j][j] += scale * c
                elif c:
                    for m, r in enumerate(table[i + j - g]):
                        system[m][j] += c * r
        pivot = bareiss(system)[0]
        if not pivot:
            # Reachable only when a reducible minpoly slipped past the
            # square-free and rational-root pre-checks: the quotient ring
            # then has zero divisors, which are not invertible.
            raise DivisionByZeroScalar(
                "scalar is a zero divisor (reducible minimal polynomial)"
            )
        num = tuple(row[g] if pivot > 0 else -row[g] for row in system)
        return _reduced(field, num, abs(pivot))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = self.field.one
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_integer(self) -> bool:
        return self.den == 1 and self.is_rational()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.num, self.den))

    # -- certified evaluation ----------------------------------------------------

    def to_float(self) -> float:
        """The double nearest to the exact value.  int / int rounds
        correctly, as float(Fraction) does.  Rounding is monotone, so once
        both ends of an enclosure round to the same double, that double is
        nearest to the value; an irrational value is never a tie."""
        try:
            if self.is_rational():
                return self.num[0] / self.den
            lo, _, q = _enclosure(self.field, self.num, self.den,
                                  lambda lo, hi, q: lo / q == hi / q)
            return lo / q
        except OverflowError:
            raise ScalarTooLarge("value is past the largest double") from None

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, certified by interval refinement."""
        return _sign(self.field, self.num)

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    # -- rendering ---------------------------------------------------------------

    def to_expr(self) -> str:
        """Canonical expression text; parse_scalar round-trips it."""
        parts: list[str] = []
        den = self.den
        for k, c in enumerate(self.num):
            if not c:
                continue
            # |c|/den in lowest terms, written as str(Fraction) writes it
            common = math.gcd(c, den)
            try:
                mag = str(abs(c) // common)
                if common != den:
                    mag = f"{mag}/{den // common}"
            except ValueError:
                raise ScalarTooLarge(
                    f"value exceeds {_max_str_digits()} digits"
                ) from None
            if k == 0:
                body = mag
            else:
                power = "theta" if k == 1 else f"theta^{k}"
                body = power if mag == "1" else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.to_expr()

    def __repr__(self) -> str:
        return f"Scalar({self.to_expr()!r})"


def _scalar(field: Field, num: tuple[int, ...], den: int) -> Scalar:
    """A Scalar from numerators and a denominator already in lowest terms."""
    s = object.__new__(Scalar)
    s.field = field
    s.num = num
    s.den = den
    return s


_RATIONALS = Field((0, 1), (-1, 1))  # built once _scalar, which Field() calls, exists


def _reduced(field: Field, num: tuple[int, ...], den: int) -> Scalar:
    """A Scalar from numerators over a positive denominator, in lowest terms."""
    common = math.gcd(den, *num)
    if common != 1:
        num = tuple([c // common for c in num])
        den //= common
    return _scalar(field, num, den)


def _horner_interval(num: Sequence[int], den: int,
                     theta: tuple[int, int, int]) -> tuple[int, int, int]:
    """Integers (lo, hi, q) with sum_k num[k] theta^k / den in [lo/q, hi/q]
    when theta lies in [L/D, H/D]; after m Horner steps the partial
    enclosure is scaled by D^m."""
    tlo, thi, tden = theta
    lo = hi = num[-1]
    scale = 1
    for c in reversed(num[:-1]):
        scale *= tden
        products = (lo * tlo, lo * thi, hi * tlo, hi * thi)
        lo, hi = min(products) + c * scale, max(products) + c * scale
    return lo, hi, scale * den


def _enclosure(field: Field, num: Sequence[int], den: int, done) -> tuple[int, int, int]:
    """First Horner enclosure (lo, hi, q) of sum_k num[k] theta^k / den
    with done(lo, hi, q), refining the field's isolator in between."""
    for _ in range(_MAX_REFINE):
        lo, hi, q = _horner_interval(num, den, field._iso)
        if done(lo, hi, q):
            return lo, hi, q
        field._refine()
    raise SignUndecidable(
        f"interval refinement of {_reduced(field, tuple(num), den).to_expr()} "
        "failed to converge; is the minimal polynomial reducible?"
    )


def _sign(field: Field, num: Sequence[int]) -> int:
    """Sign of sum_k num[k] theta^k, the numerator of a value over any
    positive denominator."""
    if not any(num[1:]):
        return (num[0] > 0) - (num[0] < 0)
    lo, _, _ = _enclosure(field, num, 1, lambda lo, hi, q: lo > 0 or hi < 0)
    return 1 if lo > 0 else -1


# --------------------------------------------------------------------------
# Fused kernels
# --------------------------------------------------------------------------

def _check_fields(field: Field, *values: Scalar) -> None:
    for s in values:
        if s.field != field:
            raise FieldMismatch("mixed-field arithmetic is rejected")


def _convolve(raw: list[int], x: Sequence[int], y: Sequence[int], scale: int) -> None:
    """raw[i + j] += scale * x[i] * y[j]: the product of two numerator
    vectors as a polynomial in theta of degree up to 2g - 2."""
    for i, a in enumerate(x):
        if a:
            a *= scale
            for j, b in enumerate(y):
                if b:
                    raw[i + j] += a * b


def _fold(field: Field, raw: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """Power-basis numerators and a denominator of sum_k raw[k] theta^k / den
    for k < 2g - 1, not reduced: theta^g, ..., theta^(2g-2) are replaced in
    one pass through the field's table, over its denominator."""
    g = field.degree
    out = raw[:g]
    high = raw[g:]
    if any(high):
        scale = field._powers_den
        if scale != 1:
            out = [c * scale for c in out]
            den *= scale
        for c, red in zip(high, field._powers):
            if c:
                for j in range(g):
                    out[j] += c * red[j]
    return tuple(out), den


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """sum_i u[i] * v[i], one ``add_product`` (so one reduction) per term."""
    acc = u[0].field.zero
    for a, b in zip(u, v):
        acc = add_product(acc, a, b)
    return acc


def sub_product(x: Scalar, f: Scalar, a: Scalar) -> Scalar:
    """x - f * a with one reduction."""
    return _fused(x, f, a, -1)


def add_product(x: Scalar, f: Scalar, a: Scalar) -> Scalar:
    """x + f * a with one reduction."""
    return _fused(x, f, a, 1)


def _fused(x: Scalar, f: Scalar, a: Scalar, sign: int) -> Scalar:
    """x + sign * f * a: the product's numerators are folded once, put over
    x's denominator (cross-multiplied when the two differ) and reduced
    once; x itself when the product is zero."""
    field = x.field
    if f.field is not field or a.field is not field:
        _check_fields(field, f, a)
    xd = x.den
    if field.degree == 1:
        p = f.num[0] * a.num[0]
        if not p:
            return x
        d = f.den * a.den
        if d == xd:
            return _reduced(field, (x.num[0] + sign * p,), d)
        return _reduced(field, (x.num[0] * d + sign * p * xd,), xd * d)
    raw = [0] * (2 * field.degree - 1)
    _convolve(raw, f.num, a.num, sign)
    prod, d = _fold(field, raw, f.den * a.den)
    if not any(prod):
        return x
    if d == xd:
        return _reduced(field, tuple(map(add, x.num, prod)), d)
    return _reduced(field, tuple([c * d + p * xd for c, p in zip(x.num, prod)]), xd * d)


def cross_sign(a: Scalar, b: Scalar, c: Scalar, d: Scalar) -> int:
    """Sign of a*b - c*d, from the numerators of the difference over the
    positive denominator a.den*b.den*c.den*d.den, left unreduced."""
    field = a.field
    if b.field is not field or c.field is not field or d.field is not field:
        _check_fields(field, b, c, d)
    left, right = c.den * d.den, a.den * b.den
    if field.degree == 1:
        value = a.num[0] * b.num[0] * left - c.num[0] * d.num[0] * right
        return (value > 0) - (value < 0)
    raw = [0] * (2 * field.degree - 1)
    _convolve(raw, a.num, b.num, left)
    _convolve(raw, c.num, d.num, -right)
    return _sign(field, _fold(field, raw, 1)[0])


def bareiss(system: list[list[int]]) -> tuple[int, int]:
    """Reduce the integer rows [A | B], A square of order len(system), in
    place by fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968),
    and return (last pivot, det A); both are 0 when A is singular.

    Each row operation divides exactly by the previous pivot, so every
    entry stays an integer minor, and at the end every diagonal entry of
    A equals the last pivot, which is det A up to the sign of the row
    swaps.  The empty matrix gives (1, 1).
    """
    n = len(system)
    previous = sign = 1
    for k in range(n):
        p = next((i for i in range(k, n) if system[i][k]), None)
        if p is None:
            return 0, 0
        if p != k:
            system[k], system[p] = system[p], system[k]
            sign = -sign
        row = system[k]
        pivot = row[k]
        for i in range(n):
            if i != k:
                factor = system[i][k]
                system[i] = [(pivot * x - factor * y) // previous
                             for x, y in zip(system[i], row)]
        previous = pivot
    return previous, sign * previous


# --------------------------------------------------------------------------
# Expression parser
# --------------------------------------------------------------------------

_THETA_NAMES = {"theta", "θ"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():  # exactly the digits int() reads
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
        elif ch.isalpha() or ch == "θ":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_θ"):
                j += 1
            name = text[i:j]
            if name not in _THETA_NAMES:
                raise ScalarSyntaxError(f"unknown symbol {name!r}")
            tokens.append(("theta", name))
            i = j
        elif ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ScalarSyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", ""))
    return tokens


def _integer(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ScalarSyntaxError(f"integer literal of {len(digits)} digits is too long") from None


# sys.get_int_max_str_digits() came with Python 3.10.7; before it str(int)
# had no limit, which 0 stands for.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], field: Field) -> None:
        self.tokens = tokens
        self.pos = 0
        self.field = field

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> str:
        tok_kind, value = self.next()
        if tok_kind != kind:
            raise ScalarSyntaxError(f"expected {kind!r}, found {value!r}")
        return value

    def parse_expr(self) -> Scalar:
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> Scalar:
        value = self.parse_unary()
        while self.peek() in ("*", "/"):
            op = self.next()[0]
            rhs = self.parse_unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_unary(self) -> Scalar:
        if self.peek() in ("+", "-"):
            op = self.next()[0]
            value = self.parse_unary()
            return value if op == "+" else -value
        return self.parse_power()

    def parse_power(self) -> Scalar:
        base = self.parse_atom()
        if self.peek() != "^":
            return base
        self.next()
        negate = False
        if self.peek() == "-":
            self.next()
            negate = True
        exponent = _integer(self.expect("int"))
        if negate:
            exponent = -exponent
        # Stop a runaway exponent before it runs.  In degree 1 the result
        # has at least |e|*(bits - 1) bits, so past the limit it could not
        # be rendered; the floor of 1 also caps |e| for 0 and ±1.  Whether
        # any other value renders is decided in to_expr.
        limit = _max_str_digits()
        if limit:
            bits = max(abs(c).bit_length() for c in (*base.num, base.den))
            if abs(exponent) * max(bits - 1, 1) > limit * math.log2(10):
                raise ScalarSyntaxError(f"power ^{exponent} exceeds {limit} digits")
        return base ** exponent

    def parse_atom(self) -> Scalar:
        kind, value = self.next()
        if kind == "int":
            return self.field.scalar(_integer(value))
        if kind == "theta":
            return self.field.theta
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ScalarSyntaxError(f"unexpected token {value!r}")


def parse_scalar(text: str, field: Field) -> Scalar:
    """Parse expression text (rationals, theta, + - * / ^, parentheses)."""
    if not isinstance(text, str) or not text.strip():
        raise ScalarSyntaxError("empty scalar expression")
    parser = _Parser(_tokenize(text), field)
    try:
        value = parser.parse_expr()
    except RecursionError:  # deep parentheses or a long run of signs
        raise ScalarSyntaxError("expression nested too deeply") from None
    if parser.peek() != "end":
        raise ScalarSyntaxError(f"trailing input after expression in {text!r}")
    return value
