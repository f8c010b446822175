"""Field instantiations, expression text in JSON, size caps, cross-algebra errors."""

import cmath
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superweil import (
    AlgebraError,
    EvaluationError,
    ParseError,
    SuperDomain,
    eval_ast,
    eval_classical,
    make_apoint,
    make_grassmann,
    make_truncated,
    section,
)
from superweil import expr as ex
from superweil.expr import parse_expr, to_text
from superweil.fields import (
    COMPLEX,
    RATIONAL,
    REAL,
    Field,
    analytic_derivative,
    field_by_name,
    infer_field,
)


class TestComplexField:
    def test_classical_holomorphic_eval(self):
        U = SuperDomain(1, 0)
        s = section(U, "exp(x1)")
        z = 0.3 + 1.2j
        assert eval_classical(s, (z,), COMPLEX) == pytest.approx(cmath.exp(z))

    def test_jet_evaluation(self):
        a = make_truncated(1, 0, 3, COMPLEX)
        U = SuperDomain(1, 0)
        x = make_apoint(U, a, [a.scalar(1j) + a.gen_even(1)], [])
        v = eval_ast(x, section(U, "exp(x1)"))
        w = cmath.exp(1j)
        assert v.body() == pytest.approx(w)
        from superweil.algebra import Monomial

        assert v.coefficient(Monomial((1,), 0)) == pytest.approx(w)
        assert v.coefficient(Monomial((2,), 0)) == pytest.approx(w / 2)

    def test_box_constrains_modulus(self):
        U = SuperDomain(1, 0, box=((0.0, 2.0),))
        s = section(U, "x1")
        eval_classical(s, (1.0 + 0.5j,), COMPLEX)
        with pytest.raises(Exception):
            eval_classical(s, (3.0 + 0.0j,), COMPLEX)

    def test_log_at_zero_rejected(self):
        U = SuperDomain(1, 0)
        with pytest.raises(EvaluationError):
            eval_classical(section(U, "log(x1)"), (0j,), COMPLEX)

    def test_grassmann_over_complex(self):
        g = make_grassmann(2, COMPLEX)
        v = g.gen_odd(1) * g.gen_odd(2)
        assert (v.scale(1j) * v).is_zero()
        assert g.height() == 2


class TestFieldHelpers:
    def test_lookup(self):
        assert field_by_name("rational") is RATIONAL
        assert field_by_name("real") is REAL
        assert field_by_name("complex") is COMPLEX

    def test_infer(self):
        assert infer_field((F(1), F(2))) is RATIONAL
        assert infer_field((F(1), 2.0)) is REAL
        assert infer_field((1j,)) is COMPLEX

    def test_rational_rejects_transcendental(self):
        with pytest.raises(EvaluationError):
            RATIONAL.function_value("exp", F(1))

    def test_reciprocal_exact_on_rationals(self):
        d = analytic_derivative("reciprocal", 2, F(2), RATIONAL.function_value)
        assert d == F(2, 8) and type(d) is F


class TestZeroTest:
    """The product kernel, element() and scale test a scalar for zero by its
    truth value; that is Field.is_zero, and no field may change it."""

    def test_no_field_overrides_is_zero(self):
        fields, todo = [], [Field]
        while todo:
            fields.append(todo.pop())
            todo.extend(fields[-1].__subclasses__())
        assert {type(f) for f in (RATIONAL, REAL, COMPLEX)} <= set(fields)
        assert all("is_zero" not in vars(cls) for cls in fields[1:])

    @pytest.mark.parametrize("field, zeros, non_zeros", [
        (RATIONAL, [F(0), F(-0, 3)], [F(1), F(-1, 10**30)]),
        (REAL, [0.0, -0.0], [5e-324, -1e-300, math.inf, math.nan]),
        (COMPLEX, [0j, complex(-0.0, -0.0), complex(0.0, -0.0)],
         [5e-324j, complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)]),
    ], ids=["rational", "real", "complex"])
    def test_zero_is_exactly_falsy(self, field, zeros, non_zeros):
        for v in [field.zero, field.coerce(0), field.coerce(-0.0)] + zeros:
            assert not v and field.is_zero(v)
        for v in [field.one] + non_zeros:
            assert v and not field.is_zero(v)


class TestExprJson:
    """Series and workspace JSON store each expression as its text form."""

    @pytest.mark.parametrize(
        "text",
        [
            "x1^2 + theta1*theta2",
            "exp(x1)*sin(x1) - 1/2",
            "inv(1 + x1^2)",
            "-(3/4*x1 + 2)*theta1",
        ],
    )
    def test_round_trip(self, text):
        e = parse_expr(text, 2, 2)
        assert parse_expr(to_text(e)) == e

    def test_float_constant(self):
        e = ex.scalar_mul(0.25, ex.EvenCoord(1))
        assert parse_expr(to_text(e)) == e
        # a float stays a float, so the text parses back to the very node
        assert parse_expr(to_text(e)) is e


# literals the readers refuse on every field: underscores, non-ASCII digits,
# input over the caps, a zero denominator, and text outside the grammar
REFUSED_LITERALS = {
    "underscore": "1_0", "underscore-decimal": "1_000.5", "arabic-indic": "١",
    "arabic-indic-num": "١/2", "arabic-indic-exponent": "2e٣", "digits": "1" * 4301,
    "denominator-digits": "1/" + "1" * 4301, "decimal-digits": "0." + "0" * 4301 + "1",
    "exponent-digits": "1e" + "0" * 4301, "exponent": "1e1001", "exponent-10^7": "1e10000000",
    "zero-denominator": "23/0", "zeros-denominator": "1/00", "empty": "", "slash": "1/",
    "dot": ".", "bare-exponent": "e5", "no-exponent": "1e", "two-signs": "--1",
}


class TestNonFiniteScalars:
    @pytest.mark.parametrize("field, text", [
        ("real", "1e999"), ("real", "-1e999"), ("complex", "nan"), ("complex", "1e999"),
        ("complex", "inf+1j"),
        # complex() reads 1e-1001 as 0j in linear time, as it reads a+bj text
        *(pytest.param(f, t, id=f"{f}-{name}") for f in ("rational", "real", "complex")
          for name, t in REFUSED_LITERALS.items()),
        pytest.param("rational", "1e-1001", id="rational-negative-exponent"),
        pytest.param("real", "1e-1001", id="real-negative-exponent"),
    ])
    def test_parse_rejects(self, field, text):
        with pytest.raises(ParseError):
            field_by_name(field).parse(text)

    @pytest.mark.parametrize("field, value", [
        ("real", float("nan")), ("real", float("-inf")), ("complex", [1.0, float("nan")]),
        ("complex", float("inf")), ("rational", float("nan")), ("rational", float("inf")),
    ])
    def test_from_json_rejects(self, field, value):
        with pytest.raises(ParseError):
            field_by_name(field).from_json(value)

    @pytest.mark.parametrize("field, value", [
        ("real", [1]), ("real", [1.0, 2.0]), ("real", None), ("real", {"re": 1}), ("real", "one"),
        ("complex", [1]), ("complex", [1, 2, 3]), ("complex", ["1", 2]), ("complex", [[1], 0]),
        ("complex", None), ("complex", {"re": 1}),
        ("real", True), ("real", " 2.5 "), ("rational", False), ("rational", True),
        ("complex", True), ("complex", [True, 0]), ("complex", [0.0, False]), ("complex", "1"),
    ])
    def test_from_json_rejects_malformed_scalars(self, field, value):
        with pytest.raises(ParseError):
            field_by_name(field).from_json(value)


class TestLimitsAndMismatches:
    def test_dimension_cap(self):
        with pytest.raises(AlgebraError):
            make_truncated(6, 0, 12)

    def test_dimension_cap_is_checked_before_enumerating(self):
        # 2.7e9 ambient monomials: listing them first would not finish
        with pytest.raises(AlgebraError, match="2684641785"):
            make_truncated(10, 10, 20)

    def test_ambient_closed_form(self):
        from superweil.algebra import _ambient_monomials, ambient_dim

        for k in range(4):
            for l in range(4):
                for s in range(1, 7):
                    assert ambient_dim(k, l, s) == len(_ambient_monomials(k, l, s))

    def test_mul_across_algebras(self):
        a, b = make_grassmann(1), make_grassmann(2)
        with pytest.raises(AlgebraError):
            a.gen_odd(1) * b.gen_odd(1)

    def test_scalar_field_mismatch_in_tensor(self):
        from superweil import tensor

        with pytest.raises(AlgebraError):
            tensor(make_grassmann(1, RATIONAL), make_grassmann(1, REAL))


REAL_LITERALS = ["3", "-3", "+3", "1/3", "-1/3", " 4/6 ", "0.1", ".5", "5.", "-.5", "1e5",
                 "1E-5", "5.e2", "-0.0", "0", "1e308", "5e-324", "2.5e-3"]
LITERAL_CASES = [(f, t) for f in (RATIONAL, REAL, COMPLEX) for t in REAL_LITERALS] + [
    (COMPLEX, t) for t in ("1+2j", "-0.0-0j", "j", "-2.5e-3j")
]


class TestNumberReaders:
    """read_rational and read_int are the one way text becomes a number."""

    @staticmethod
    def reference(field, text):
        """Each field's reading of a literal by Fraction() and complex() alone,
        with no grammar or caps of its own."""
        if field is RATIONAL:
            return F(text.strip())
        if field is REAL:
            return float(F(text.strip()))
        try:
            return complex(text.strip())
        except ValueError:
            return complex(float(F(text.strip())))

    @pytest.mark.parametrize("field, text", LITERAL_CASES, ids=lambda v: getattr(v, "name", v))
    def test_accepted_literal_reads_back_bit_identical(self, field, text):
        want = self.reference(field, text)
        got = field.parse(text)
        assert type(got) is type(want) and repr(got) == repr(want) and got == want

    def test_caps_are_inclusive(self):
        assert RATIONAL.parse("9" * 4300) == 10**4300 - 1
        assert RATIONAL.parse("1e1000") == 10**1000
        assert RATIONAL.parse("1/" + "0" * 4299 + "7") == F(1, 7)
        assert RATIONAL.parse(" -4 / 6 ") == F(-2, 3)  # on every Python, as 3.12's Fraction does
        # every scalar to_json writes reads back
        big = F(10**4300 - 1, 10**4299 + 1)
        assert RATIONAL.parse(RATIONAL.to_json(big)) == big

    def test_read_int(self):
        from superweil.fields import read_int

        assert read_int("0042", "n", 0, 42) == 42
        assert read_int("0" * 5000 + "7", "n", 1, 9) == 7
        assert read_int("9" * 4300, "n", 0) == 10**4300 - 1
        for text, hi in [("43", 42), ("0", None), ("9" * 4301, None), ("1" * 5000, 10),
                         ("١", 9), ("1_0", 99), ("+1", 9), ("", 9), ("1.0", 9)]:
            with pytest.raises(ParseError, match="^size "):
                read_int(text, "size", 1, hi)


class TestPowerBound:
    def test_exact_power_past_the_cap_is_refused_before_work(self):
        from superweil.fields import MAX_POWER_BITS, check_power, scalar_pow

        assert scalar_pow(F(3, 2), 100) == F(3, 2) ** 100
        with pytest.raises(EvaluationError, match="passes"):
            scalar_pow(F(2), MAX_POWER_BITS)
        with pytest.raises(EvaluationError):
            check_power(F(10**400), 10**20)
        for body in (F(0), F(1), F(-1), 0, 1):
            check_power(body, 10**100)
        check_power(1e300, 10**20)  # a float never holds more bits

    def test_float_overflow_is_an_evaluation_error(self):
        from superweil.fields import scalar_pow

        for x in (1e308, 1e308 + 1j):
            with pytest.raises(EvaluationError):
                scalar_pow(x, 3)
        with pytest.raises(EvaluationError):
            ex.int_pow(ex.Const(1e308), 3)
        with pytest.raises(EvaluationError):
            eval_classical(section(SuperDomain(1, 0), "x1^3"), (1e308,))

    def test_element_power_checks_the_body(self):
        a = make_truncated(1, 0, 3)
        t = a.gen_even(1)
        with pytest.raises(EvaluationError):
            (a.scalar(2) + t) ** 10**8
        # a unit or nilpotent body is cheap at every exponent
        n = 10**20
        assert (a.one() + t) ** n == a.one() + t.scale(n) + (t * t).scale(n * (n - 1) // 2)
        assert (t ** n).is_zero() and (a.scalar(-1) ** (n + 1)) == a.scalar(-1)

    def test_rational_past_the_written_digits_is_an_evaluation_error(self):
        with pytest.raises(EvaluationError, match="4300 digits"):
            RATIONAL.to_json(F(10**4300))
        with pytest.raises(EvaluationError):
            RATIONAL.to_json(F(1, 10**4300))


@settings(max_examples=200, deadline=None)
@given(st.fractions(), st.floats(allow_nan=False, allow_infinity=False))
def test_written_scalars_read_back(q, x):
    assert RATIONAL.parse(RATIONAL.to_json(q)) == q
    assert REAL.parse(repr(x)) == x  # equal floats other than zeros are the same bits
