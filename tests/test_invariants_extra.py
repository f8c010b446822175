"""Structural invariants beyond the acceptance battery."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superweil import (
    ParseError,
    Section,
    SuperDomain,
    TangentVector,
    eval_ast,
    make_apoint,
    make_grassmann,
    make_truncated,
    quotient,
    section,
    tangent_to_point,
)
from superweil.algebra import EVEN, ODD, Monomial
from superweil.battery import (
    constructor_families,
    rand_element,
    rand_fraction,
    rand_polynomial_expr,
    rand_section,
)
from superweil.cli import parse_element, parse_point_spec
from superweil.expr import parse_expr
from superweil.fields import RATIONAL, REAL
from superweil.serialize import coeff_map_from_json, coeff_map_to_json


class TestTangentComponents:
    def test_even_component_kills_odd_sections(self):
        # the t-coefficient of evaluation acts as an even derivation: zero on
        # odd sections; the z-coefficient is odd: zero on even sections
        rng = random.Random(41)
        U = SuperDomain(2, 2)
        tv = TangentVector(
            U, (F(1), F(-1)), (F(2), F(3)), (F(1), F(2))
        )
        x = tangent_to_point(tv)
        t = Monomial((1,), 0)
        z = Monomial((0,), 1)
        for _ in range(40):
            e = rand_polynomial_expr(rng, 2, 2)
            s = Section(U, e)
            comps_even = eval_ast(x, Section(U, _parity_part(e, 0)))
            comps_odd = eval_ast(x, Section(U, _parity_part(e, 1)))
            assert comps_odd.coefficient(t) == 0
            assert comps_even.coefficient(z) == 0

    def test_derivation_rule_of_t_coefficient(self):
        U = SuperDomain(1, 1)
        tv = TangentVector(U, (F(2),), (F(1),), (F(0),))
        x = tangent_to_point(tv)
        t = Monomial((1,), 0)
        s = section(U, "x1^2")
        w = section(U, "x1^3")
        st_ = Section(U, s.expr * w.expr)
        ds = eval_ast(x, s).coefficient(t)
        dw = eval_ast(x, w).coefficient(t)
        vs = eval_ast(x, s).body()
        vw = eval_ast(x, w).body()
        assert eval_ast(x, st_).coefficient(t) == ds * vw + vs * dw


def _parity_part(e, want):
    from superweil.superfunc import SuperDomain as SD
    from superweil.superfunc import Section as Sec
    from superweil.superfunc import components_to_expr, normalize_components
    from superweil.expr import max_indices

    p, q = max_indices(e)
    comps = normalize_components(Sec(SD(p, q), e))
    kept = {k: v for k, v in comps.items() if len(k) % 2 == want}
    return components_to_expr(kept)


class TestFloatQuotients:
    def test_quotient_over_reals(self):
        ambient = make_truncated(1, 1, 3, REAL)
        quot, proj = quotient(ambient, [ambient.gen_even(1) * ambient.gen_odd(1)])
        assert quot.dim == 4
        assert proj(ambient.gen_even(1) * ambient.gen_odd(1)).is_zero()

    def test_nonmonomial_relation_over_reals(self):
        ambient = make_truncated(1, 2, 4, REAL)
        g = ambient.gen_even(1) ** 2 - (ambient.gen_odd(1) * ambient.gen_odd(2)).scale(0.5)
        quot, _ = quotient(ambient, [g])
        # t^2 and z1z2/2 now coincide in the quotient
        lhs = quot.gen_even(1) ** 2
        rhs = (quot.gen_odd(1) * quot.gen_odd(2)).scale(0.5)
        assert (lhs - rhs).norm() <= 1e-12


class TestQuotientBasisNilpotency:
    def test_squaring_bound_on_quotient(self):
        ambient = make_truncated(2, 1, 4)
        quot, _ = quotient(ambient, [ambient.gen_even(1) * ambient.gen_even(2)])
        bound = math.ceil(math.log2(quot.s)) + 1
        for m in quot.nil_monomials():
            v = quot.element({m: F(1)})
            for _ in range(bound):
                v = v * v
            assert v.is_zero()


class TestParserRobustness:
    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="x12theta+-*^()/ .ez", max_size=24))
    def test_parse_expr_never_crashes_unexpectedly(self, text):
        try:
            parse_expr(text, 2, 2)
        except ParseError:
            pass
        except Exception as exc:  # parity errors are fine; crashes are not
            from superweil.errors import SuperWeilError

            assert isinstance(exc, SuperWeilError), exc

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="tz12+-*^() .", max_size=20))
    def test_parse_element_never_crashes_unexpectedly(self, text):
        g = make_grassmann(2)
        try:
            parse_element(text, g)
        except ParseError:
            pass
        except Exception as exc:
            from superweil.errors import SuperWeilError

            assert isinstance(exc, SuperWeilError), exc

    def test_point_spec_with_nested_parens(self):
        g = make_grassmann(2)
        even, odd = parse_point_spec("x1=(1+z1*z2)*(2), th1=z1, th2=z2", g)
        assert even[0] == g.scalar(2) + (g.gen_odd(1) * g.gen_odd(2)).scale(2)

    def test_point_spec_gap_rejected(self):
        g = make_grassmann(2)
        with pytest.raises(ParseError):
            parse_point_spec("x1=1, th2=z2", g)  # th1 missing

    def test_deep_nesting_is_a_parse_error_in_both_grammars(self):
        deep = "(" * 300 + "1" + ")" * 300
        with pytest.raises(ParseError):
            parse_expr(deep, 1, 0)
        with pytest.raises(ParseError):
            parse_expr("exp(" * 300 + "x1" + ")" * 300, 1, 0)
        with pytest.raises(ParseError):
            parse_element(deep, make_grassmann(2))
        # nesting up to the bound still parses
        ok = "(" * 60 + "1" + ")" * 60
        assert parse_expr(ok, 1, 0) == parse_expr("1", 1, 0)
        assert parse_element(ok, make_grassmann(2)) == make_grassmann(2).one()

    def test_element_literals_are_field_scalars(self):
        a = make_truncated(1, 1, 3)
        assert parse_element("0.1*t1", a) == a.gen_even(1).scale(F(1, 10))
        assert parse_element("z1^2 + 1e1", a) == a.scalar(10)
        with pytest.raises(ParseError):
            parse_element("exp(t1)", a)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_element_json_round_trip_random(data):
    algebra = make_truncated(1, 2, 3)
    fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    coeffs = data.draw(
        st.dictionaries(st.sampled_from(algebra.quotient_basis), fractions, max_size=5)
    )
    v = algebra.element(coeffs)
    assert coeff_map_from_json(algebra, coeff_map_to_json(v)) == v


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_eval_homomorphism_random_grassmann(seed):
    rng = random.Random(seed)
    U = SuperDomain(1, 2)
    g = make_grassmann(3)
    x = make_apoint(
        U,
        g,
        [g.scalar(F(rng.randint(-2, 2)))],
        [g.gen_odd(1).scale(F(rng.randint(-2, 2))), g.gen_odd(2)],
    )
    s = rand_section(rng, U)
    t = rand_section(rng, U)
    from superweil import expr as ex

    assert eval_ast(x, Section(U, ex.Mul(s.expr, t.expr))) == eval_ast(x, s) * eval_ast(x, t)


# -- the battery's draws, pinned to their randint formulation -----------------------


def _randint_fraction(rng, span):
    return F(rng.randint(-span, span), rng.randint(1, 3))


def _randint_element(rng, algebra, parity, max_terms, span):
    candidates = [
        m
        for m in algebra.quotient_basis
        if parity is None
        or (parity == "nil" and not m.is_one())
        or (parity in (EVEN, ODD) and m.parity() == (0 if parity == EVEN else 1))
    ]
    coeffs = {}
    if candidates:
        for _ in range(rng.randint(1, max_terms)):
            m = rng.choice(candidates)
            if algebra.field.exact:
                coeffs[m] = _randint_fraction(rng, span)
            else:
                coeffs[m] = rng.uniform(-2.0, 2.0)
    return algebra.element(coeffs)


@pytest.mark.parametrize("span", [0, 1, 2, 3, 4, 9])
def test_rand_fraction_keeps_the_randint_stream(span):
    new, old = random.Random(span), random.Random(span)
    for _ in range(10_000):
        got, want = rand_fraction(new, span), _randint_fraction(old, span)
        assert got == want and type(got) is F
    assert new.getstate() == old.getstate()


@pytest.mark.parametrize("field, span", [(RATIONAL, 2), (RATIONAL, 3), (RATIONAL, 4), (REAL, 3)],
                         ids=["rational-2", "rational-3", "rational-4", "real"])
def test_rand_element_keeps_the_randint_stream(field, span):
    # an even-only algebra leaves the ODD draw no candidate
    algebras = list(constructor_families(field).values()) + [make_truncated(2, 0, 3, field)]
    new, old = random.Random(span), random.Random(span)
    for i in range(12_000):
        algebra = algebras[i % len(algebras)]
        parity = (None, "nil", EVEN, ODD)[i // len(algebras) % 4]
        args = (algebra, parity, 1 + i % 4, span)
        got, want = rand_element(new, *args), _randint_element(old, *args)
        # the same monomials in the same order, with the same scalars, and
        # a zero draw dropped as element() drops it
        assert list(got.coeffs.items()) == list(want.coeffs.items())
        assert all(type(c) is type(field.one) for c in got.coeffs.values())
    assert new.getstate() == old.getstate()
