"""Exact arithmetic in a real algebraic number field Q(theta).

A field is described by a monic minimal polynomial with rational
coefficients together with an isolating interval that pins down which
real root theta denotes.  Scalars are coefficient vectors over the power
basis 1, theta, ..., theta^(g-1); all arithmetic is exact, and every
comparison against zero is decided by certified interval refinement,
never by a floating epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DivisionByZeroScalar,
    FieldMismatch,
    NoSignChange,
    NotMonic,
    ReduciblePolynomial,
    RootNotIsolated,
    ScalarSyntaxError,
    SignUndecidable,
)

# Bisection cap for sign certification and for rounding to the nearest
# double.  2^-320 of the initial isolating interval is far below
# any gap a well-posed input can produce between a value and zero or a
# rounding midpoint; hitting the cap means the minimal polynomial was
# reducible after all.
_MAX_REFINE = 320

Rat = Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)


# --------------------------------------------------------------------------
# Dense polynomial helpers over Fraction, ascending coefficient order.
# --------------------------------------------------------------------------

def _poly_trim(p: list[Rat]) -> list[Rat]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_eval(p: Sequence[Rat], x: Rat) -> Rat:
    acc = _ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_deriv(p: Sequence[Rat]) -> list[Rat]:
    return [c * k for k, c in enumerate(p)][1:]


def _poly_divmod(a: Sequence[Rat], b: Sequence[Rat]) -> tuple[list[Rat], list[Rat]]:
    a = list(a)
    q = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coeff = a[k + len(b) - 1] * inv_lead
        q[k] = coeff
        if coeff:
            for j, bj in enumerate(b):
                a[k + j] -= coeff * bj
    return q, _poly_trim(a[: len(b) - 1])


def _poly_xgcd(a: Sequence[Rat], b: Sequence[Rat]) -> tuple[list[Rat], list[Rat]]:
    """Return (g, u) with u*a = g (mod b) and g = gcd(a, b), both trimmed."""
    r0, r1 = _poly_trim(list(a)), _poly_trim(list(b))
    u0, u1 = [_ONE], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        # u_next = u0 - q*u1
        prod = [_ZERO] * (len(q) + len(u1))
        for i, qi in enumerate(q):
            if qi:
                for j, uj in enumerate(u1):
                    prod[i + j] += qi * uj
        nxt = [x - y for x, y in zip(u0 + [_ZERO] * len(prod), prod + [_ZERO] * len(u0))]
        u0, u1 = u1, _poly_trim(nxt)
    return r0, u0


def _sturm_chain(p: list[Rat]) -> list[list[Rat]]:
    chain = [list(p), _poly_deriv(p)]
    while chain[-1]:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_variations(chain: list[list[Rat]], x: Rat) -> int:
    signs = []
    for poly in chain:
        v = _poly_eval(poly, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


# --------------------------------------------------------------------------
# Fields
# --------------------------------------------------------------------------

class Field:
    """Real algebraic number field Q(theta).

    ``minpoly`` lists rational coefficients in ascending order and must be
    monic; ``root_interval`` is an open interval whose endpoints evaluate
    to opposite signs and which contains exactly one real root (verified
    with a Sturm chain).  Reducibility is screened by square-free and
    rational-root checks; full irreducibility certification is out of
    scope and documented as a caller obligation.
    """

    def __init__(self, minpoly: Iterable[Rat | int | str], root_interval: tuple) -> None:
        coeffs = tuple(Fraction(c) for c in minpoly)
        if len(coeffs) < 2:
            raise NotMonic("minimal polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise NotMonic(f"leading coefficient is {coeffs[-1]}, expected 1")
        lo, hi = (Fraction(root_interval[0]), Fraction(root_interval[1]))
        if lo >= hi:
            raise NoSignChange(f"empty root interval [{lo}, {hi}]")
        p = list(coeffs)
        plo, phi = _poly_eval(p, lo), _poly_eval(p, hi)
        if plo == 0 or phi == 0 or (plo > 0) == (phi > 0):
            raise NoSignChange(
                f"minpoly({lo}) = {plo} and minpoly({hi}) = {phi} do not bracket a root"
            )

        self.minpoly = coeffs
        self.degree = len(coeffs) - 1
        self.root_interval = (lo, hi)

        if self.degree > 1:
            self._reject_reducible(p)
            chain = _sturm_chain(p)
            roots = _sign_variations(chain, lo) - _sign_variations(chain, hi)
            if roots != 1:
                raise RootNotIsolated(
                    f"interval ({lo}, {hi}) contains {roots} roots of the minimal polynomial"
                )

        # Mutable isolator cache; it only ever shrinks, and refining it only
        # saves later work: every sign and float is a function of the exact
        # value alone, so no output depends on its state.
        self._iso = (lo, hi)
        self._sign_lo = 1 if plo > 0 else -1
        self._powers = self._reduction_table()

    def _reject_reducible(self, p: list[Rat]) -> None:
        g, _ = _poly_xgcd(p, _poly_deriv(p))
        if len(g) > 1:
            raise ReduciblePolynomial("minimal polynomial is not square-free")
        # Monic with rational coefficients: clear denominators and test every
        # candidate rational root num/den with num | constant, den | leading.
        mult = math.lcm(*(c.denominator for c in p))
        ints = [int(c * mult) for c in p]
        if ints[0] == 0:
            raise ReduciblePolynomial("zero is a rational root of the minimal polynomial")
        for den in _int_divisors(ints[-1]):
            for num in _int_divisors(ints[0]):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if _poly_eval(p, cand) == 0:
                        raise ReduciblePolynomial(
                            f"minimal polynomial has rational root {cand}"
                        )

    def _reduction_table(self) -> list[tuple[Rat, ...]]:
        """theta^k for k in [degree, 2*degree-2] as power-basis vectors."""
        g = self.degree
        table = []
        cur = [-c for c in self.minpoly[:-1]]  # theta^g
        for _ in range(g - 1):
            table.append(tuple(cur))
            top = cur[-1]
            cur = [_ZERO] + cur[:-1]
            if top:
                for j in range(g):
                    cur[j] += top * table[0][j]
        return table

    # -- isolator -----------------------------------------------------------

    def _refine(self) -> None:
        # Only irrational scalars refine, so the degree is >= 2 and the
        # minimal polynomial has no rational root: the midpoint is never one.
        lo, hi = self._iso
        mid = (lo + hi) / 2
        if (_poly_eval(self.minpoly, mid) > 0) == (self._sign_lo > 0):
            self._iso = (mid, hi)
        else:
            self._iso = (lo, mid)

    def isolator(self) -> tuple[Rat, Rat]:
        return self._iso

    # -- construction helpers -------------------------------------------------

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, (_ZERO,) * self.degree)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    @property
    def theta(self) -> "Scalar":
        if self.degree == 1:
            return self.scalar(-self.minpoly[0])
        v = [_ZERO] * self.degree
        v[1] = _ONE
        return Scalar(self, tuple(v))

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch("scalar belongs to a different field")
            return value
        if isinstance(value, str):
            return parse_scalar(value, self)
        coeffs = [_ZERO] * self.degree
        coeffs[0] = Fraction(value)
        return Scalar(self, tuple(coeffs))

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
    """Degree-1 field whose theta is 0: plain rational arithmetic."""
    return Field((0, 1), (-1, 1))


# --------------------------------------------------------------------------
# Scalars
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Scalar:
    """Element of a Field, stored as an exact power-basis coefficient vector."""

    field: Field
    coeffs: tuple[Rat, ...]

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
        return Scalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        g = self.field.degree
        if g == 1:
            return Scalar(self.field, (self.coeffs[0] * o.coeffs[0],))
        raw = [_ZERO] * (2 * g - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        raw[i + j] += a * b
        out = raw[:g]
        table = self.field._powers
        for k in range(g, 2 * g - 1):
            c = raw[k]
            if c:
                red = table[k - g]
                for j in range(g):
                    out[j] += c * red[j]
        return Scalar(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZeroScalar("division by zero scalar")
        g = self.field.degree
        if g == 1:
            return Scalar(self.field, (1 / self.coeffs[0],))
        gcd, u = _poly_xgcd(list(self.coeffs), list(self.field.minpoly))
        if len(gcd) != 1:
            # Reachable only when a reducible minpoly slipped past the
            # square-free and rational-root pre-checks: the quotient ring
            # then has zero divisors, which are not invertible.
            raise DivisionByZeroScalar(
                "scalar is a zero divisor (reducible minimal polynomial)"
            )
        inv = [c / gcd[0] for c in u]
        inv += [_ZERO] * (g - len(inv))
        return Scalar(self.field, tuple(inv[:g]))

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
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Rat:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def is_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].denominator == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- certified evaluation ----------------------------------------------------

    def _enclosure(self, done) -> tuple[Rat, Rat]:
        """First Horner enclosure (lo, hi) of the value with done(lo, hi),
        refining the field's isolator in between."""
        field = self.field
        for _ in range(_MAX_REFINE):
            lo, hi = self._horner_interval(field._iso)
            if done(lo, hi):
                return lo, hi
            field._refine()
        raise SignUndecidable(
            f"interval refinement of {self.to_expr()} failed to converge; "
            "is the minimal polynomial reducible?"
        )

    def _horner_interval(self, theta: tuple[Rat, Rat]) -> tuple[Rat, Rat]:
        lo = hi = self.coeffs[-1]
        tlo, thi = theta
        for c in reversed(self.coeffs[:-1]):
            products = (lo * tlo, lo * thi, hi * tlo, hi * thi)
            lo, hi = min(products) + c, max(products) + c
        return lo, hi

    def to_float(self) -> float:
        """The double nearest to the exact value.  Rounding is monotone, so
        once both ends of an enclosure round to the same double, that double
        is nearest to the value; an irrational value is never a tie."""
        if self.is_rational():
            return float(self.coeffs[0])
        lo, _ = self._enclosure(lambda lo, hi: float(lo) == float(hi))
        return float(lo)

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, certified by interval refinement."""
        if self.is_zero():
            return 0
        if self.is_rational():
            return 1 if self.coeffs[0] > 0 else -1
        lo, _ = self._enclosure(lambda lo, hi: lo > 0 or hi < 0)
        return 1 if lo > 0 else -1

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
        for k, c in enumerate(self.coeffs):
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

    def __str__(self) -> str:
        return self.to_expr()

    def __repr__(self) -> str:
        return f"Scalar({self.to_expr()!r})"


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
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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
        exponent = int(self.expect("int"))
        return base ** (-exponent if negate else exponent)

    def parse_atom(self) -> Scalar:
        kind, value = self.next()
        if kind == "int":
            return self.field.scalar(int(value))
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
    value = parser.parse_expr()
    if parser.peek() != "end":
        raise ScalarSyntaxError(f"trailing input after expression in {text!r}")
    return value
