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
from fractions import Fraction
from math import factorial

from .errors import EvaluationError, ParseError

TRANSCENDENTAL_FUNCTIONS = ("exp", "log", "sin", "cos")
ANALYTIC_FUNCTIONS = TRANSCENDENTAL_FUNCTIONS + ("reciprocal",)


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
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}") from exc

    def to_json(self, value):
        return str(value)

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
        try:
            return float(Fraction(text.strip()))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"bad real literal {text!r}") from exc

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
        text = text.strip()
        try:
            return _finite(complex(text))
        except ValueError:
            pass
        try:
            return complex(float(Fraction(text)))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"bad complex literal {text!r}") from exc

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
