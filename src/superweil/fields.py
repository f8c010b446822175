"""Scalar fields backing all coefficients.

Three instantiations: exact rationals (``RATIONAL``), double-precision reals
(``REAL``), and complex doubles (``COMPLEX``).  Ring/field axioms hold exactly
on the rational field and within the usual rounding on the other two.
Transcendental primitives (exp, log, sin, cos) exist only on the inexact
fields; reciprocals and integer powers work everywhere.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from math import factorial
from numbers import Rational

from .errors import EvaluationError, ParseError

TRANSCENDENTAL_FUNCTIONS = ("exp", "log", "sin", "cos")
ANALYTIC_FUNCTIONS = TRANSCENDENTAL_FUNCTIONS + ("reciprocal",)

# Caps on number text, checked before int() or Fraction() reads it.  A digit
# run holds at most the 4,300 digits Python's int() reads by default, so every
# scalar RATIONAL.to_json writes reads back; the decimal exponent cap lies past
# every double's (1e308, 5e-324).
MAX_DIGITS = 4_300
MAX_DECIMAL_EXPONENT = 1_000
# bits an exact power may reach: about 19,700 decimal digits, over four times
# what to_json writes, and at most a few tenths of a second to build
MAX_POWER_BITS = 1 << 16

# sign, then num/den or a decimal with an optional exponent: Fraction's
# grammar without underscores or non-ASCII digits
_RATIONAL = re.compile(
    r"([-+]?)(?:(\d+)\s*/\s*(\d+)|(?=\.?\d)(\d*)\.?(\d*)(?:[eE]([-+]?\d+))?)", re.ASCII
)


def _shown(text):
    """``text`` for an error message, cut short when long."""
    return repr(text) if len(text) <= 32 else repr(text[:16]) + "..."


def read_rational(text):
    """The exact rational that a number literal writes.

    The literal is an optional sign, then num/den or a decimal with an
    optional exponent, in ASCII.  Each digit run is checked against
    MAX_DIGITS and the exponent against MAX_DECIMAL_EXPONENT before
    Fraction() reads the text; a zero denominator is a ParseError.
    """
    text = text.strip()
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise ParseError(f"bad number literal {_shown(text)}")
    if max(len(g or "") for g in m.groups()) > MAX_DIGITS:
        raise ParseError(f"number literal {_shown(text)} has a run of over {MAX_DIGITS} digits")
    sign, num, den, exp = m.group(1, 2, 3, 6)
    if exp is not None and abs(int(exp)) > MAX_DECIMAL_EXPONENT:
        raise ParseError(
            f"number literal {_shown(text)} has an exponent past +-{MAX_DECIMAL_EXPONENT}"
        )
    if den is None:
        return Fraction(text)
    if not den.strip("0"):
        raise ParseError(f"number literal {_shown(text)} has a zero denominator")
    # Python 3.12 reads spaces around the slash, 3.11 does not
    return Fraction(int(sign + num), int(den))


def read_int(text, what, lo, hi=None):
    """The integer that ``text``, ASCII digits only, writes; it must lie in
    lo..hi, and ``what`` names it in the ParseError when it does not.  With
    ``hi`` None it may have up to MAX_DIGITS digits.  The length is compared
    against ``hi`` before int() reads the text."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{what} must be ASCII digits, not {_shown(text)}")
    digits = text.lstrip("0")
    if len(digits) <= (MAX_DIGITS if hi is None else len(str(hi))):
        value = int(digits or "0")
        if lo <= value and (hi is None or value <= hi):
            return value
    span = f"{lo}..{hi}" if hi is not None else f"{lo} and up, of at most {MAX_DIGITS} digits"
    raise ParseError(f"{what} {_shown(text)} is outside {span}")


def check_power(body, n):
    """Refuse a power with this body before any work: on an exact field, when
    n times the bit size of the body passes MAX_POWER_BITS.  A body of 0 or
    +-1 is cheap at every n and never refused."""
    if isinstance(body, Rational) and n > 1 and body not in (0, 1, -1):
        bits = body.numerator.bit_length() + body.denominator.bit_length()
        if n * bits > MAX_POWER_BITS:
            raise EvaluationError(f"a power of a {bits}-bit scalar passes {MAX_POWER_BITS} bits")


def scalar_pow(x, n):
    """``x**n`` for a scalar, bounded by :func:`check_power`; a float that
    overflows is an EvaluationError."""
    check_power(x, n)
    try:
        return x**n
    except OverflowError as exc:
        raise EvaluationError(f"power of {x!r}: {exc}") from None


class Field:
    """One coefficient field.  Use the module singletons, not the constructor."""

    name: str
    exact: bool
    transcendental: bool
    zero: object  # the field's 0 and 1 as scalars, shared: scalars are immutable
    one: object
    primitives = None  # module with exp, log, sin, cos on the inexact fields

    def __repr__(self):
        return f"<field {self.name}>"

    def coerce(self, value):
        raise NotImplementedError

    def parse(self, text):
        raise NotImplementedError

    def to_json(self, value):
        raise NotImplementedError

    def from_json(self, value):
        # to_json writes no JSON true or false, and a string only on RATIONAL
        if isinstance(value, (bool, str)):
            raise ParseError(f"bad {self.name} scalar {value!r}")
        try:
            value = self.coerce(value)
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"bad {self.name} scalar {value!r}") from None
        return _finite(value)

    def is_zero(self, value):
        return not value

    def norm(self, value):
        """Magnitude as a float, used for tolerance checks and pivoting."""
        return float(abs(value))

    def in_interval(self, value, lo, hi):
        """Open-interval membership; complex values are tested by modulus."""
        v = abs(value) if isinstance(value, complex) else value
        if lo is not None and not v > lo:
            return False
        if hi is not None and not v < hi:
            return False
        return True

    def function_value(self, fn, x):
        """Value of an analytic primitive at a field scalar.  Reciprocals work
        on every field; the transcendentals need an inexact one.  Overflow and
        arguments outside the function's domain are evaluation errors."""
        if fn == "reciprocal":
            if self.is_zero(x):
                raise EvaluationError("reciprocal evaluated at zero")
            return 1 / x
        if self.primitives is None:
            raise EvaluationError(f"{fn} requires an inexact scalar field, not {self.name}")
        try:
            return getattr(self.primitives, fn)(x)
        except (OverflowError, ValueError) as exc:
            raise EvaluationError(f"{fn} of body {x!r}: {exc}") from None


def analytic_derivative(fn, n, x, value):
    """n-th derivative (n >= 0) of an analytic primitive at x, in closed form.

    ``value(f, x)`` is the primitive f at x.  Besides it the formulas use only
    unary minus and an int times an int power, so ``x`` may be a field scalar
    (``value=field.function_value``) or an expression (``value=expr.Apply``).
    """
    if fn not in ANALYTIC_FUNCTIONS:
        raise EvaluationError(f"unknown analytic function {fn!r}")
    if n == 0 or fn == "exp":
        return value(fn, x)
    if fn in ("sin", "cos"):
        # sin^(k) is sin, cos, -sin, -cos for k % 4 = 0..3, and cos^(n) = sin^(n+1)
        k = (n + 1 if fn == "cos" else n) % 4
        v = value("sin" if k % 2 == 0 else "cos", x)
        return -v if k >= 2 else v
    r = value("reciprocal", x)
    if fn == "log":
        return (-1) ** (n - 1) * factorial(n - 1) * r**n
    return (-1) ** n * factorial(n) * r ** (n + 1)


class RationalField(Field):
    name = "rational"
    exact = True
    transcendental = False
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            # exact binary value of the float; decimal strings go via parse()
            return Fraction(_finite(value))
        raise ParseError(f"cannot coerce {value!r} to a rational scalar")

    def parse(self, text):
        return read_rational(text)

    def to_json(self, value):
        try:
            return str(value)
        except ValueError:  # past the digits Python writes an int in
            raise EvaluationError(
                f"a rational result has more than {MAX_DIGITS} digits and cannot be written"
            ) from None

    def from_json(self, value):
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, bool):
            raise ParseError(f"bad rational scalar {value!r}")
        return self.coerce(value)


class RealField(Field):
    name = "real"
    exact = False
    transcendental = True
    zero = 0.0
    one = 1.0
    primitives = math

    def coerce(self, value):
        if isinstance(value, complex):
            raise ParseError("cannot coerce a complex scalar to a real one")
        return float(value)

    def parse(self, text):
        value = read_rational(text)
        try:
            return float(value)
        except OverflowError:
            shown = _shown(text.strip())
            raise ParseError(f"number literal {shown} is too large for a float") from None

    def to_json(self, value):
        return value


class ComplexField(Field):
    name = "complex"
    exact = False
    transcendental = True
    zero = 0j
    one = 1 + 0j
    primitives = cmath

    def coerce(self, value):
        return complex(value)

    def parse(self, text):
        # complex() reads a+bj text and keeps the sign of a zero; it also
        # reads what read_rational refuses, so that text goes to it instead
        text = text.strip()
        if text.isascii() and "_" not in text and len(text) <= MAX_DIGITS:
            try:
                return _finite(complex(text))
            except ValueError:
                pass
        return complex(REAL.parse(text))

    def to_json(self, value):
        return [value.real, value.imag]

    def from_json(self, value):
        if isinstance(value, list):
            if len(value) != 2 or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
            ):
                raise ParseError(f"complex scalar {value!r} is not an [re, im] pair of numbers")
            value = complex(*value)
        return super().from_json(value)


def _finite(value):
    """``value`` itself; a NaN or infinite float or complex scalar is a ParseError."""
    if not cmath.isfinite(value):
        raise ParseError(f"non-finite scalar {value!r}")
    return value


RATIONAL = RationalField()
REAL = RealField()
COMPLEX = ComplexField()

FIELDS = {f.name: f for f in (RATIONAL, REAL, COMPLEX)}


def field_by_name(name):
    try:
        return FIELDS[name]
    except KeyError:
        raise ParseError(f"unknown scalar field {name!r}") from None


def infer_field(values):
    """Pick the smallest field containing the given plain scalars."""
    field = RATIONAL
    for v in values:
        if isinstance(v, complex):
            return COMPLEX
        if isinstance(v, float):
            field = REAL
    return field
