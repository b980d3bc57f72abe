"""Exact arithmetic in real quadratic fields.

A value is ``(a + b*sqrt(d))/n`` with integers a, b and n > 0 in lowest
terms (gcd(a, b, n) == 1) and a square-free radicand d >= 2; the radicand
is dropped whenever b vanishes, so every value has exactly one
representation (the integral representation of Cohen, *A Course in
Computational Algebraic Number Theory*, 1993, ch. 4).  Signs, comparisons
and floors are decided by integer arithmetic alone (``int_sign`` and
``int_floor``: cross-multiplication and squaring) -- floats never enter
the core.  ``Frame`` holds several values of one field over a shared
denominator, for the array paths.  Values from distinct quadratic fields
refuse to combine rather than coerce.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

__all__ = [
    "FieldMismatchError",
    "ExpressionSyntaxError",
    "Frame",
    "QuadraticNumber",
    "as_quadratic",
    "int_floor",
    "int_sign",
    "parse_quadratic",
    "quadratic_float",
    "quadratic_text",
    "sqrt_int",
    "text_form",
    "text_forms",
]

#: largest radicand that is not a perfect square: splitting off its square
#: part tries divisors up to its square root, at most 10**6 of them here
MAX_RADICAND = 10**12


class FieldMismatchError(ValueError):
    """Two values from distinct quadratic fields were combined."""


class ExpressionSyntaxError(ValueError):
    """Malformed textual expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _squarefree_split(n: int) -> tuple[int, int]:
    """Write n = k*k*m with m square-free; return (k, m)."""
    if n < 1:
        raise ValueError("radicand must be a positive integer")
    r = math.isqrt(n)
    if r * r == n:
        return r, 1
    if n > MAX_RADICAND:
        raise ValueError(f"radicand {n} exceeds the limit of {MAX_RADICAND}")
    k, m, p = 1, 1, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            k *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    return k, m * n


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass int, Fraction or str")
    return Fraction(value)


class QuadraticNumber:
    """An element (a + b*sqrt(d))/n of a real quadratic field (or of Q).

    The integers satisfy n > 0 and gcd(a, b, n) == 1, and d is None exactly
    when b == 0, so every value has one representation.
    """

    __slots__ = ("_a", "_b", "_n", "_d")

    def __init__(self, rational=0, surd=0, radicand: int | None = None):
        r = _as_fraction(rational)
        s = _as_fraction(surd)
        d = None
        if s:
            if radicand is None:
                raise ValueError("surd part given without a radicand")
            k, m = _squarefree_split(operator.index(radicand))
            s *= k
            if m == 1:
                r += s
                s = Fraction(0)
            else:
                d = m
        n = math.lcm(r.denominator, s.denominator)
        a = r.numerator * (n // r.denominator)
        b = s.numerator * (n // s.denominator)
        # n is the lcm of two reduced denominators, so gcd(a, b, n) == 1
        self._a, self._b, self._n, self._d = a, b, n, d

    @staticmethod
    def _make(a: int, b: int, n: int, d: int | None) -> "QuadraticNumber":
        # internal fast path: integers with n != 0 and d square-free (or
        # anything when b is 0); divides out gcd(a, b, n) and the sign of n
        g = math.gcd(a, b, n)
        if n < 0:
            g = -g
        if g != 1:
            a, b, n = a // g, b // g, n // g
        self = object.__new__(QuadraticNumber)
        self._a, self._b, self._n = a, b, n
        self._d = d if b else None
        return self

    # -- field components -------------------------------------------------

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self._a, self._n)

    @property
    def surd_part(self) -> Fraction:
        return Fraction(self._b, self._n)

    @property
    def radicand(self) -> int | None:
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._d is None

    @property
    def rational_value(self) -> Fraction:
        if self._d is not None:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._a, self._n)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, QuadraticNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber._make(other.numerator, 0, other.denominator, None)
        return None

    def _common_radicand(self, other: "QuadraticNumber") -> int | None:
        if self._d is None:
            return other._d
        if other._d is None or other._d == self._d:
            return self._d
        raise FieldMismatchError(
            f"cannot mix sqrt({self._d}) with sqrt({other._d})"
        )

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_radicand(o)
        n, m = self._n, o._n
        return QuadraticNumber._make(
            self._a * m + o._a * n, self._b * m + o._b * n, n * m, d
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_radicand(o)
        n, m = self._n, o._n
        return QuadraticNumber._make(
            self._a * m - o._a * n, self._b * m - o._b * n, n * m, d
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_radicand(o)
        a, b, x, y = self._a, self._b, o._a, o._b
        # b and y are both 0 when d is None
        return QuadraticNumber._make(
            a * x + (b * y * d if d else 0), a * y + b * x, self._n * o._n, d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_radicand(o)
        if not o:
            raise ZeroDivisionError("division by zero")
        a, b, x, y = self._a, self._b, o._a, o._b
        m = o._n
        if not y:
            # a rational divisor x/m
            return QuadraticNumber._make(a * m, b * m, self._n * x, d)
        # multiply through by the conjugate x - y*sqrt(d) of the divisor
        return QuadraticNumber._make(
            (a * x - b * y * d) * m,
            (b * x - a * y) * m,
            self._n * (x * x - y * y * d),
            d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QuadraticNumber._make(-self._a, -self._b, self._n, self._d)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = QuadraticNumber._make(1, 0, 1, None)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate(self) -> "QuadraticNumber":
        """Image under the field automorphism sqrt(d) -> -sqrt(d)."""
        return QuadraticNumber._make(self._a, -self._b, self._n, self._d)

    # -- exact order --------------------------------------------------------

    def sign(self) -> int:
        """Sign in {-1, 0, +1}, decided by comparing integer squares."""
        return int_sign(self._a, self._b, self._d)

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (
            self._a == o._a and self._b == o._b and self._n == o._n and self._d == o._d
        )

    def __hash__(self):
        if self._d is None:
            # equal to the hash of the Fraction (or int) of the same value
            return hash(self._a) if self._n == 1 else hash(Fraction(self._a, self._n))
        return hash((self._a, self._b, self._n, self._d))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticNumber with {type(other)!r}")
        d = self._common_radicand(o)
        # the sign of self - o, scaled by the positive n * o.n
        n, m = self._n, o._n
        return int_sign(self._a * m - o._a * n, self._b * m - o._b * n, d)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- floor ---------------------------------------------------------------

    def floor(self) -> int:
        """Greatest integer <= self, computed exactly."""
        return int_floor(self._a, self._b, self._d, self._n)

    __floor__ = floor

    def __float__(self):
        # display only; never used for decisions
        return quadratic_float(self._a, self._b, self._n, self._d)

    # -- text form -------------------------------------------------------------

    def __str__(self):
        return quadratic_text(self._a, self._b, self._n, self._d)

    def __repr__(self):
        return f"QuadraticNumber({str(self)!r})"


#: ``quadratic_float`` scales numerators past this many bits into the float range
_FLOAT_BITS = 960


def quadratic_float(a: int, b: int, q: int, d: int | None) -> float:
    """The float of (a + b*sqrt(d))/q for integers a, b and q > 0; for display.

    It is a/q + (b/q)*sqrt(d) in floats.  Int true division is correctly
    rounded, so a/q and b/q do not depend on a common factor of a, b and
    q.  When b is not 0 and that sum is not finite, or a/q or b/q passes
    the float range, the rationalised form (a*a - b*b*d)/(q*(a - b*sqrt(d)))
    is taken, on the triple divided by gcd(a, b, q): its integer numerator
    holds the cancellation exactly, and a and b are scaled by 2**-k into
    the float range.  When that is not finite either, the sum's answer
    stands: inf, or the OverflowError of a/q or b/q.
    """
    if not b:
        return a / q
    try:
        value = a / q + b / q * math.sqrt(d)
    except OverflowError:
        value = math.nan
    if math.isfinite(value):
        return value
    g = math.gcd(a, b, q)
    a, b, q = a // g, b // g, q // g
    k = max(0, max(abs(a).bit_length(), abs(b).bit_length()) - _FLOAT_BITS)
    try:
        scaled = a / (1 << k) - b / (1 << k) * math.sqrt(d)
        rationalised = (a * a - b * b * d) / (q << k) / scaled
    except (OverflowError, ZeroDivisionError):
        rationalised = math.nan
    if math.isfinite(rationalised):
        return rationalised
    # the sum's inf, or its OverflowError raised again
    return a / q + b / q * math.sqrt(d)


#: the first form in ``text_forms`` of a numerator b of 0, 1 and -1; any
#: other b starts at 12
_B_FORM = {0: 0, 1: 4, -1: 8}
#: ``text_forms`` by radicand, filled as radicands are met
_TEXT_FORMS: dict = {}


def text_forms(d: int | None) -> tuple[str, ...]:
    """The 16 %-formats of the canonical text of (a + b*sqrt(d))/q, in the
    order of ``text_form``.

    Each takes the reduced triple (a, b, q) as its three arguments.  An
    argument a form does not print is read by ``%.0s``; it is always 0, 1
    or -1.  Form 1 (a and b zero over q != 1) serves no reduced triple,
    whose q is then 1.
    """
    forms = _TEXT_FORMS.get(d)
    if forms is None:
        root = f"sqrt({d})"
        forms = _TEXT_FORMS[d] = (
            "%d%.0s%.0s", "%d%.0s/%d", "%d%.0s%.0s", "%d%.0s/%d",
            f"%.0s%.0s%.0s{root}", f"%.0s%d/%d*{root}",
            f"%d%.0s+{root}%.0s", f"(%d%.0s+{root})/%d",
            f"%.0s%.0s%.0s-{root}", f"%.0s%d/%d*{root}",
            f"%d%.0s-{root}%.0s", f"(%d%.0s-{root})/%d",
            f"%.0s%d*{root}%.0s", f"%.0s%d/%d*{root}",
            f"%d%+d*{root}%.0s", f"(%d%+d*{root})/%d",
        )
    return forms


def text_form(a, b, q):
    """The index in ``text_forms`` of the reduced triple (a, b, q), or of
    each triple of three numpy arrays: 0, 4, 8 or 12 for b of 0, 1, -1 or
    any other, plus 2 for a != 0 and 1 for q != 1.  ``quadratic_text``
    reads the same index of one triple through ``_B_FORM``."""
    return 12 * (b != 0) - 8 * (b == 1) - 4 * (b == -1) + 2 * (a != 0) + (q != 1)


def quadratic_text(a: int, b: int, q: int, d: int | None) -> str:
    """Canonical text of (a + b*sqrt(d))/q for integers a, b and q > 0.

    The triple is first divided by gcd(a, b, q) and written by its form in
    ``text_forms(d)``; d is only read when b is not zero.  The form table
    is the one formatter of exact values: ``str`` of a ``QuadraticNumber``
    calls this, and the CLI's orbit rows, written in bulk straight from
    frame numerators, wrap the same forms.  ``parse_quadratic`` reads the
    text back.
    """
    if q != 1:
        g = math.gcd(a, b, q)
        if g != 1:
            a, b, q = a // g, b // g, q // g
    form = _B_FORM.get(b, 12) + (2 if a else 0) + (q != 1)
    # the table's own lookup, inline: str of every value comes here
    return (_TEXT_FORMS.get(d) or text_forms(d))[form] % (a, b, q)


def int_sign(a: int, b: int, d: int | None) -> int:
    """Sign of a + b*sqrt(d) for integers a, b and a square-free d >= 2.

    d may be anything when b is zero (None or 0 for rational values).  Only
    integer products are formed: when a and b*sqrt(d) pull in opposite
    directions the larger of a*a and b*b*d wins, and the two are never equal.
    """
    if not b:
        return (a > 0) - (a < 0)
    if a >= 0 and b > 0:
        return 1
    if a <= 0 and b < 0:
        return -1
    if a * a > b * b * d:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def int_floor(a: int, b: int, d: int | None, q: int) -> int:
    """Floor of (a + b*sqrt(d))/q for integers a, b, q > 0 and a square-free d >= 2.

    d may be anything when b is zero.  floor(b*sqrt(d)) is isqrt(b*b*d) for
    b > 0 and -isqrt(b*b*d) - 1 for b < 0 (b*sqrt(d) is never an integer),
    and adding an integer to a and flooring by q commute.
    """
    if not b:
        return a // q
    s = math.isqrt(b * b * d)
    return (a + (s if b > 0 else -s - 1)) // q


class Frame:
    """Fixed elements of one quadratic field over a common denominator.

    Element k is ``(rows[k][0] + rows[k][1]*sqrt(d)) / denominator`` with
    integer rows, so an integer combination of the elements has an integer
    numerator pair, and two combinations are equal exactly when their
    numerators are.  This is the numerator form of ``QuadraticNumber``
    with one denominator shared by every element, for the array paths:
    orbit and height scans decide signs and floors of whole numerator
    columns with the kernels of ``_kernels`` and build a value only for a
    point that is read.
    """

    __slots__ = ("rows", "denominator", "radicand")

    def __init__(self, elements):
        values = [as_quadratic(x) for x in elements]
        radicands = {x._d for x in values if x._d is not None}
        if len(radicands) > 1:
            raise FieldMismatchError(
                f"cannot mix {', '.join(f'sqrt({d})' for d in sorted(radicands))}"
            )
        den = math.lcm(*(x._n for x in values))
        self.rows = tuple((x._a * (den // x._n), x._b * (den // x._n)) for x in values)
        self.denominator = den
        self.radicand = radicands.pop() if radicands else 0

    def value(self, numerator: tuple[int, int]) -> QuadraticNumber:
        return QuadraticNumber._make(*numerator, self.denominator, self.radicand)


def sqrt_int(n: int) -> QuadraticNumber:
    """Exact square root of a positive integer."""
    return QuadraticNumber(0, 1, n)


def as_quadratic(value) -> QuadraticNumber:
    """Coerce an int, Fraction, QuadraticNumber or expression string."""
    if isinstance(value, QuadraticNumber):
        return value
    if isinstance(value, str):
        return parse_quadratic(value)
    return QuadraticNumber(_as_fraction(value))


# ---------------------------------------------------------------------------
# parsing
#
#   expr     := sum | '(' sum ')' '/' uint
#   sum      := signed (('+'|'-') unsigned)*
#   signed   := ['-'] unsigned
#   unsigned := rat | [rat '*'] 'sqrt(' uint ')'
#   rat      := int ['/' uint]
#
# Whitespace is ignored everywhere.  Printing always emits a canonical
# member of this grammar, and parse(print(x)) == x.
# ---------------------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.take(token):
            raise ExpressionSyntaxError(f"expected {token!r}", self.pos)

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ExpressionSyntaxError("expected an unsigned integer", start)
        return int(self.text[start:self.pos])

    def rat(self) -> Fraction:
        self.skip_ws()
        neg = self.take("-")
        num = self.uint()
        den = 1
        if self.take("/"):
            at = self.pos
            den = self.uint()
            if den == 0:
                raise ZeroDivisionError(f"zero denominator (at position {at})")
        value = Fraction(num, den)
        return -value if neg else value

    def sqrt_tail(self) -> int:
        # caller consumed 'sqrt('
        at = self.pos
        n = self.uint()
        self.expect(")")
        if n == 0:
            raise ExpressionSyntaxError("radicand must be a positive integer", at)
        if n > MAX_RADICAND:
            raise ExpressionSyntaxError(
                f"radicand exceeds the limit of {MAX_RADICAND}", at
            )
        return n

    def unsigned(self) -> QuadraticNumber:
        if self.take("sqrt("):
            return sqrt_int(self.sqrt_tail())
        coeff = self.rat()
        save = self.pos
        if self.take("*"):
            if self.take("sqrt("):
                return QuadraticNumber(0, coeff, self.sqrt_tail())
            self.pos = save
        return QuadraticNumber(coeff)

    def signed(self) -> QuadraticNumber:
        if self.take("-"):
            # covers '-sqrt(5)' as well as '-1/2*sqrt(5)' and '-3'
            return -self.unsigned()
        return self.unsigned()

    def sum(self) -> QuadraticNumber:
        total = self.signed()
        while True:
            if self.take("+"):
                total = total + self.unsigned()
            elif self.take("-"):
                total = total - self.unsigned()
            else:
                return total

    def expr(self) -> QuadraticNumber:
        if self.take("("):
            inner = self.sum()
            self.expect(")")
            self.expect("/")
            at = self.pos
            den = self.uint()
            if den == 0:
                raise ZeroDivisionError(f"zero denominator (at position {at})")
            return inner / den
        return self.sum()


def parse_quadratic(text: str) -> QuadraticNumber:
    """Parse an exact expression such as ``(-1+sqrt(5))/2`` or ``3/4``."""
    scanner = _Scanner(text)
    value = scanner.expr()
    scanner.skip_ws()
    if scanner.pos != len(text):
        raise ExpressionSyntaxError("trailing characters", scanner.pos)
    return value
