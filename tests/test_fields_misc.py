"""Field instantiations, expression text in JSON, size caps, cross-algebra errors."""

import cmath
from fractions import Fraction as F

import pytest

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
from superweil.fields import COMPLEX, RATIONAL, REAL, analytic_derivative, field_by_name, infer_field


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


class TestNonFiniteScalars:
    @pytest.mark.parametrize("field, text", [
        ("real", "1e999"), ("real", "-1e999"), ("complex", "nan"), ("complex", "1e999"),
        ("complex", "inf+1j"),
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
