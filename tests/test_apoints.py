"""Algebra-valued points: evaluation semantics, functoriality, products."""

import math
import random
from fractions import Fraction as F

import pytest

from superweil import (
    AlgebraError,
    ParityError,
    RegionError,
    Section,
    SuperDomain,
    apply_morphism_to_point,
    base_point,
    compose_domain_morphisms,
    eval_ast,
    eval_classical,
    eval_taylor,
    identity_domain_morphism,
    identity_morphism,
    make_apoint,
    make_domain_morphism,
    make_grassmann,
    make_morphism,
    make_truncated,
    product_domain,
    product_point,
    pushforward_algebra,
    scalar_projection,
    section,
    split_point,
    trivial_point,
)
from superweil import expr as ex
from superweil.battery import rand_point, rand_polynomial_expr, rand_section
from superweil.fields import REAL


def embed_section_left(s, v):
    """View a section on U as a section on U x V."""
    return Section(product_domain(s.domain, v), s.expr)


def embed_section_right(s, u):
    """View a section on V as a section on U x V."""
    even_map = {i: ex.EvenCoord(i + u.p) for i in range(1, s.domain.p + 1)}
    odd_map = {j: ex.OddCoord(j + u.q) for j in range(1, s.domain.q + 1)}
    return Section(product_domain(u, s.domain), ex.substitute(s.expr, even_map, odd_map))


U10 = SuperDomain(1, 0)
U12 = SuperDomain(1, 2)


def cubic_jet_algebra(field=None):
    return make_truncated(1, 0, 3) if field is None else make_truncated(1, 0, 3, field)


class TestMakeAPoint:
    def test_valid_point_and_base(self):
        a = cubic_jet_algebra()
        x = make_apoint(U10, a, [a.scalar(1) + a.gen_even(1)], [])
        assert base_point(x) == (1,)

    def test_parity_violation(self):
        g = make_grassmann(2)
        with pytest.raises(ParityError):
            make_apoint(U12, g, [g.scalar(1)], [g.one(), g.gen_odd(2)])

    def test_scalar_point_is_evaluation(self):
        k = make_truncated(0, 0, 1)
        x = trivial_point(U12, (F(3),), k)
        s = section(U12, "x1^2 + theta1*theta2")
        assert eval_ast(x, s) == k.scalar(9)
        assert eval_ast(x, s).body() == eval_classical(s, (F(3),))

    def test_base_outside_region(self):
        a = cubic_jet_algebra()
        U = SuperDomain(1, 0, box=((F(0), F(1)),))
        with pytest.raises(RegionError):
            make_apoint(U, a, [a.scalar(5)], [])


class TestEvalBothPaths:
    def test_square_at_jet(self):
        a = cubic_jet_algebra()
        x = make_apoint(U10, a, [a.scalar(1) + a.gen_even(1)], [])
        s = section(U10, "x1^2")
        z = a.gen_even(1)
        expected = a.one() + z.scale(2) + z * z
        assert eval_ast(x, s) == expected
        assert eval_taylor(x, s) == expected

    def test_exp_series_at_jet(self):
        a = cubic_jet_algebra(REAL)
        x = make_apoint(U10, a, [a.gen_even(1)], [])
        s = section(U10, "exp(x1)")
        z = a.gen_even(1)
        expected = a.one() + z + (z * z).scale(0.5)
        assert (eval_ast(x, s) - expected).norm() <= 1e-15
        assert (eval_taylor(x, s) - expected).norm() <= 1e-15

    def test_odd_substitution(self):
        g = make_grassmann(2)
        x = make_apoint(U12, g, [g.scalar(0)], [g.gen_odd(1), g.gen_odd(2)])
        s = section(U12, "theta1*theta2")
        expected = g.gen_odd(1) * g.gen_odd(2)
        assert eval_ast(x, s) == expected
        assert eval_taylor(x, s) == expected

    def test_taylor_at_scalar_point_is_classical(self):
        k = make_truncated(0, 0, 1)
        x = trivial_point(U12, (F(2),), k)
        s = section(U12, "x1^2 + theta1*theta2")
        assert eval_taylor(x, s) == k.scalar(eval_classical(s, (F(2),)))

    def test_odd_section_with_zero_odd_values(self):
        g = make_grassmann(2)
        x = make_apoint(U12, g, [g.scalar(1)], [g.zero(), g.zero()])
        s = section(U12, "theta1 + x1*theta2")
        assert eval_taylor(x, s).is_zero()
        assert eval_ast(x, s).is_zero()

    def test_uniqueness_by_coordinates(self):
        rng = random.Random(11)
        g = make_grassmann(3)
        vals = ([g.scalar(2) + (g.gen_odd(1) * g.gen_odd(2)).scale(3)],
                [g.gen_odd(1), g.gen_odd(2) + g.gen_odd(3)])
        x1 = make_apoint(U12, g, *vals)
        x2 = make_apoint(U12, g, *vals)
        for _ in range(25):
            s = Section(U12, rand_polynomial_expr(rng, 1, 2))
            assert eval_ast(x1, s) == eval_ast(x2, s)

    def test_reciprocal_matches_inverse(self):
        a = cubic_jet_algebra()
        x = make_apoint(U10, a, [a.scalar(1) + a.gen_even(1)], [])
        s = section(U10, "inv(x1)")
        assert eval_ast(x, s) * x.even_vals[0] == a.one()

    def test_log_series_at_jet(self):
        a = make_truncated(1, 0, 4, REAL)
        z = a.gen_even(1)
        x = make_apoint(U10, a, [a.scalar(1.0) + z], [])
        got = eval_ast(x, section(U10, "log(x1)"))
        want = z - (z * z).scale(0.5) + (z * z * z).scale(1 / 3)
        assert (got - want).norm() <= 1e-15

    def test_sin_cos_series_at_jet(self):
        a = make_truncated(1, 0, 5, REAL)
        z = a.gen_even(1)
        x = make_apoint(U10, a, [z], [])
        got_sin = eval_ast(x, section(U10, "sin(x1)"))
        want_sin = z - (z ** 3).scale(1 / 6)
        assert (got_sin - want_sin).norm() <= 1e-15
        got_cos = eval_ast(x, section(U10, "cos(x1)"))
        want_cos = a.one() - (z * z).scale(0.5) + (z ** 4).scale(1 / 24)
        assert (got_cos - want_cos).norm() <= 1e-15

    def test_log_negative_body_rejected(self):
        from superweil import EvaluationError

        a = make_truncated(1, 0, 3, REAL)
        x = make_apoint(U10, a, [a.scalar(-1.0) + a.gen_even(1)], [])
        with pytest.raises(EvaluationError):
            eval_ast(x, section(U10, "log(x1)"))


def test_eval_taylor_does_not_route_through_eval_ast(monkeypatch):
    from superweil import apoints

    alg = make_truncated(1, 2, 4, REAL)
    x = make_apoint(U12, alg, [alg.scalar(0.4) + alg.gen_even(1)], [alg.gen_odd(1), alg.gen_odd(2)])
    s = section(U12, "exp(x1 + theta1*theta2)*sin(x1) + theta1*x1^2")
    want = eval_ast(x, s)

    def refuse(*args):
        raise AssertionError("eval_taylor used the tree-walking evaluator")

    monkeypatch.setattr(apoints, "_eval_node", refuse)
    got = eval_taylor(x, s)
    assert (got - want).norm() <= 1e-12 * max(1.0, want.norm())
    with pytest.raises(AssertionError):
        eval_ast(x, s)


def taylor_coefficient(fn, n, b):
    """f^(n)(b) / n! from the textbook series of each analytic function."""
    if fn == "exp":
        return math.exp(b) / math.factorial(n)
    if fn == "log":
        return math.log(b) if n == 0 else (-1) ** (n + 1) / (n * b**n)
    if fn == "inv":
        return (-1) ** n / b ** (n + 1)
    # sin' = cos, cos' = -sin: the derivatives turn through a quarter each time
    turn = (math.sin, math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v))
    return turn[(n + (fn == "cos")) % 4](b) / math.factorial(n)


@pytest.mark.parametrize("shift", ["", " + theta1*theta2"], ids=["even", "odd-pair"])
@pytest.mark.parametrize("fn", ["exp", "log", "sin", "cos", "inv"])
def test_analytic_functions_match_their_textbook_series(fn, shift):
    # fn(x1 + shift) at x1 = b + t1, th1 = z1, th2 = z2: the coefficient of
    # t1^n is f^(n)(b)/n!, and with the odd pair that of t1^n z1z2 is
    # f^(n+1)(b)/n!; the truncation keeps degrees below 10
    b = 0.7
    a = make_truncated(1, 2, 10, REAL)
    x = make_apoint(U12, a, [a.scalar(b) + a.gen_even(1)], [a.gen_odd(1), a.gen_odd(2)])
    s = section(U12, f"{fn}(x1{shift})")
    want = {((n,), 0): taylor_coefficient(fn, n, b) for n in range(10)}
    if shift:
        want.update({((n,), 0b11): (n + 1) * taylor_coefficient(fn, n + 1, b) for n in range(8)})
    for got in (eval_ast(x, s), eval_taylor(x, s)):
        assert set(got.coeffs) == set(want)
        for m, c in got.coeffs.items():
            assert abs(c - want[m]) <= 1e-13 * abs(want[m]), (m, c, want[m])


@pytest.mark.parametrize("shift", ["", " + theta1*theta2"], ids=["even", "odd-pair"])
def test_reciprocal_series_exact_on_rationals(shift):
    b = F(7, 10)
    a = make_truncated(1, 2, 10)
    x = make_apoint(U12, a, [a.scalar(b) + a.gen_even(1)], [a.gen_odd(1), a.gen_odd(2)])
    s = section(U12, f"inv(x1{shift})")
    want = {((n,), 0): (-1) ** n / b ** (n + 1) for n in range(10)}
    if shift:
        want.update({((n,), 0b11): (n + 1) * (-1) ** (n + 1) / b ** (n + 2) for n in range(8)})
    assert eval_ast(x, s).coeffs == want
    assert eval_taylor(x, s).coeffs == want


class TestPushforward:
    def test_projection_gives_base_point(self):
        a = cubic_jet_algebra()
        x = make_apoint(U10, a, [a.scalar(1) + a.gen_even(1)], [])
        pr = scalar_projection(a)
        y = pushforward_algebra(pr, x)
        assert y.even_vals[0] == pr.target.scalar(1)
        assert base_point(y) == base_point(x)

    def test_identity(self):
        a = cubic_jet_algebra()
        x = make_apoint(U10, a, [a.scalar(1) + a.gen_even(1)], [])
        assert pushforward_algebra(identity_morphism(a), x) == x

    def test_truncation_morphism(self):
        a = cubic_jet_algebra()
        b = make_truncated(1, 0, 2)
        rho = make_morphism(a, b, [b.gen_even(1)], [])
        z = a.gen_even(1)
        x = make_apoint(U10, a, [a.scalar(1) + z + z * z], [])
        y = pushforward_algebra(rho, x)
        assert y.even_vals[0] == b.scalar(1) + b.gen_even(1)

    def test_functor_respects_eval(self):
        rng = random.Random(12)
        a = make_truncated(1, 2, 3)
        b = make_truncated(1, 2, 2)
        rho = make_morphism(
            a, b, [b.gen_even(1)], [b.gen_odd(1), b.gen_odd(2) - b.gen_odd(1)]
        )
        for _ in range(20):
            x = rand_point(rng, U12, a)
            s = rand_section(rng, U12)
            assert eval_ast(pushforward_algebra(rho, x), s) == rho(eval_ast(x, s))

    def test_truncation_soundness(self):
        # evaluating at the deeper jet then truncating equals evaluating at
        # the truncated point directly
        rng = random.Random(13)
        deep = make_truncated(1, 2, 4)
        shallow = make_truncated(1, 2, 2)
        rho = make_morphism(
            deep, shallow, [shallow.gen_even(1)], [shallow.gen_odd(1), shallow.gen_odd(2)]
        )
        for _ in range(20):
            x = rand_point(rng, U12, deep)
            s = rand_section(rng, U12)
            assert rho(eval_ast(x, s)) == eval_ast(pushforward_algebra(rho, x), s)


class TestDomainMorphisms:
    def test_substitution_example(self):
        V = SuperDomain(1, 0)
        phi = make_domain_morphism(U12, V, ["x1 + theta1*theta2"])
        g = make_grassmann(2)
        x = make_apoint(U12, g, [g.scalar(2)], [g.gen_odd(1), g.gen_odd(2)])
        y = apply_morphism_to_point(phi, x)
        assert y.even_vals[0] == g.scalar(2) + g.gen_odd(1) * g.gen_odd(2)

    def test_identity_morphism_on_points(self):
        g = make_grassmann(2)
        x = make_apoint(U12, g, [g.scalar(2)], [g.gen_odd(1), g.gen_odd(2)])
        assert apply_morphism_to_point(identity_domain_morphism(U12), x) == x

    def test_naturality_square(self):
        rng = random.Random(14)
        V = SuperDomain(1, 1)
        phi = make_domain_morphism(
            U12, V, ["x1^2 + theta1*theta2", "x1*theta1 + theta2"]
        )
        a = make_truncated(1, 2, 3)
        b = make_truncated(1, 2, 2)
        rho = make_morphism(a, b, [b.gen_even(1)], [b.gen_odd(2), b.gen_odd(1)])
        for _ in range(15):
            x = rand_point(rng, U12, a)
            one_way = pushforward_algebra(rho, apply_morphism_to_point(phi, x))
            other = apply_morphism_to_point(phi, pushforward_algebra(rho, x))
            assert one_way == other

    def test_compose_with_analytic_outer(self):
        V = SuperDomain(1, 0)
        W = SuperDomain(1, 0)
        inner = make_domain_morphism(U12, V, ["x1 + theta1*theta2"])
        outer = make_domain_morphism(V, W, ["exp(x1)"])
        comp = compose_domain_morphisms(outer, inner)
        g = make_grassmann(2, REAL)
        x = make_apoint(U12, g, [g.scalar(0.5)], [g.gen_odd(1), g.gen_odd(2)])
        via_comp = apply_morphism_to_point(comp, x)
        via_steps = apply_morphism_to_point(outer, apply_morphism_to_point(inner, x))
        assert (via_comp.even_vals[0] - via_steps.even_vals[0]).norm() <= 1e-12
        body = via_comp.even_vals[0].body()
        assert body == pytest.approx(math.exp(0.5))

    def test_image_condition_checked_per_point(self):
        V = SuperDomain(1, 0, box=((F(0), F(1)),))
        phi = make_domain_morphism(U12, V, ["x1"])
        g = make_grassmann(2)
        inside = make_apoint(U12, g, [g.scalar(F(1, 2))], [g.zero(), g.zero()])
        outside = make_apoint(U12, g, [g.scalar(4)], [g.zero(), g.zero()])
        apply_morphism_to_point(phi, inside)
        with pytest.raises(RegionError):
            apply_morphism_to_point(phi, outside)

    def test_parity_mismatch_rejected(self):
        V = SuperDomain(0, 1)
        with pytest.raises(ParityError):
            make_domain_morphism(U12, V, ["x1"])


class TestProducts:
    def test_split_round_trip(self):
        g = make_grassmann(2)
        u, v = SuperDomain(1, 1), SuperDomain(1, 1)
        x = make_apoint(u, g, [g.scalar(1)], [g.gen_odd(1)])
        y = make_apoint(v, g, [g.scalar(2)], [g.gen_odd(2)])
        z = product_point(x, y)
        x2, y2 = split_point(z, u, v)
        assert (x2, y2) == (x, y)

    def test_product_over_scalars(self):
        k = make_truncated(0, 0, 1)
        u, v = SuperDomain(1, 0), SuperDomain(1, 0)
        z = product_point(trivial_point(u, (F(1),), k), trivial_point(v, (F(2),), k))
        assert base_point(z) == (1, 2)

    def test_eval_factors_across_blocks(self):
        rng = random.Random(15)
        g = make_grassmann(3)
        u, v = SuperDomain(1, 1), SuperDomain(1, 2)
        for _ in range(20):
            x = rand_point(rng, u, g)
            y = rand_point(rng, v, g)
            z = product_point(x, y)
            s1 = rand_section(rng, u)
            s2 = rand_section(rng, v)
            lifted = Section(
                z.domain,
                embed_section_left(s1, v).expr * embed_section_right(s2, u).expr,
            )
            assert eval_ast(z, lifted) == eval_ast(x, s1) * eval_ast(y, s2)

    def test_algebra_mismatch(self):
        u = SuperDomain(1, 0)
        a, b = make_grassmann(1), make_grassmann(2)
        x = make_apoint(u, a, [a.scalar(1)], [])
        y = make_apoint(u, b, [b.scalar(1)], [])
        with pytest.raises(AlgebraError):
            product_point(x, y)
