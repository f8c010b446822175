"""Tangents, derivations, distributions, transitivity, finite differences."""

import random
from fractions import Fraction as F

import pytest

from superweil import (
    AlgebraError,
    Section,
    SuperDomain,
    TangentVector,
    check_transitivity,
    derivation_apply,
    eval_ast,
    eval_classical,
    finite_difference_tangent,
    functional_through_point,
    make_apoint,
    make_derivation,
    make_distribution,
    make_dual_numbers,
    make_grassmann,
    make_truncated,
    pair_distribution,
    point_to_tangent,
    section,
    tangent_eval,
    tangent_to_point,
    tautological_point,
    taylor_coefficient_map,
    tensor,
)
from superweil.algebra import Monomial
from superweil.battery import rand_point, rand_polynomial_expr, rand_section
from superweil.calculus import factorial_multi
from superweil.fields import REAL
from superweil.superfunc import mixed_partial


class TestTangents:
    def test_mixed_section_extracts_odd_coefficient(self):
        U = SuperDomain(1, 1)
        tv = TangentVector(U, (F(2),), (F(1),), (F(1),))
        x = tangent_to_point(tv)
        v = eval_ast(x, section(U, "x1*theta1"))
        # (2 + e)(eps) = 2 eps since e*eps = 0
        assert v.body() == 0
        assert v.coefficient(Monomial((0,), 1)) == 2
        assert v.coefficient(Monomial((1,), 0)) == 0

    def test_zero_vector_embeds_base(self):
        U = SuperDomain(1, 1)
        tv = TangentVector(U, (F(3),), (F(0),), (F(0),))
        x = tangent_to_point(tv)
        assert x.even_vals[0] == x.algebra.scalar(3)
        assert x.odd_vals[0].is_zero()

    def test_first_derivative(self):
        U = SuperDomain(1, 0)
        value, d, _ = tangent_eval(section(U, "x1^2"), TangentVector(U, (F(3),), (F(1),), ()))
        assert (value, d) == (9, 6)

    def test_round_trips(self):
        U = SuperDomain(2, 1)
        for tv in [
            TangentVector(U, (F(2), F(0)), (F(1), F(5)), (F(1),)),
            TangentVector(U, (F(3), F(1)), (F(0), F(0)), (F(0),)),
        ]:
            assert point_to_tangent(tangent_to_point(tv)) == tv

    def test_wrong_algebra_rejected(self):
        U = SuperDomain(1, 0)
        a = make_truncated(1, 0, 3)
        x = make_apoint(U, a, [a.scalar(1)], [])
        with pytest.raises(AlgebraError):
            point_to_tangent(x)


class TestFiniteDifferences:
    def test_square(self):
        U = SuperDomain(1, 0)
        d = finite_difference_tangent(section(U, "x1^2"), (3.0,), (1.0,), 1e-5)
        assert abs(d - 6.0) <= 1e-8

    def test_constant(self):
        U = SuperDomain(1, 0)
        assert finite_difference_tangent(section(U, "7"), (0.0,), (1.0,), 1e-5) == 0.0

    def test_sin_slope_at_zero(self):
        U = SuperDomain(1, 0)
        d = finite_difference_tangent(section(U, "sin(x1)"), (0.0,), (1.0,), 1e-5)
        assert d == pytest.approx(1.0, rel=1e-9)

    def test_ad_matches_fd(self):
        rng = random.Random(21)
        U = SuperDomain(2, 0)
        for _ in range(25):
            s = rand_section(rng, U, analytic=True)
            base = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            direction = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            _, d_ad, _ = tangent_eval(s, TangentVector(U, base, direction, ()), REAL)
            d_fd = finite_difference_tangent(s, base, direction, 1e-5)
            assert abs(d_ad - d_fd) <= 1e-6 * max(1.0, abs(d_ad), abs(d_fd))

    def test_battery_survives_cancelling_differences(self):
        # case 3 of this seed holds exp(81/2) ~ 3.9e17, where the central
        # difference cancels to 0.0; the battery falls back to the symbolic
        # directional derivative there
        from superweil.battery import suite_tangent_ad

        result = suite_tangent_ad(1065698855)
        assert result.passed, result.detail
        assert result.cases == 200


class TestDerivations:
    def test_formula_on_coordinate_product(self):
        U = SuperDomain(1, 1)
        g = make_grassmann(1)
        x = make_apoint(U, g, [g.scalar(1)], [g.zero()])
        d = make_derivation(x, [g.zero()], [g.gen_odd(1)], "even")
        assert derivation_apply(d, section(U, "x1*theta1")) == g.gen_odd(1)

    def test_zero_derivation(self):
        rng = random.Random(22)
        U = SuperDomain(1, 2)
        a = make_truncated(1, 2, 3)
        x = rand_point(rng, U, a)
        d = make_derivation(x, [a.zero()], [a.zero(), a.zero()], "odd")
        for _ in range(10):
            s = rand_section(rng, U)
            assert derivation_apply(d, s).is_zero()

    def test_leibniz_example(self):
        U = SuperDomain(1, 1)
        g = make_grassmann(2)
        x = make_apoint(U, g, [g.scalar(2)], [g.gen_odd(1)])
        d = make_derivation(x, [g.gen_odd(2)], [g.scalar(3)], "odd")
        s = section(U, "x1*theta1")
        t = section(U, "x1")
        st = section(U, "x1*theta1*x1")
        lhs = derivation_apply(d, st)
        sign = -1  # odd derivation against the odd section s
        rhs = derivation_apply(d, s) * eval_ast(x, t) + (
            eval_ast(x, s) * derivation_apply(d, t)
        ).scale(sign)
        assert lhs == rhs

    def test_coefficient_recovery(self):
        rng = random.Random(23)
        U = SuperDomain(2, 2)
        a = make_truncated(1, 2, 3)
        x = rand_point(rng, U, a)
        f_even = [a.gen_odd(1), a.gen_odd(2)]
        f_odd = [a.scalar(1) + a.gen_even(1), a.gen_even(1)]
        d = make_derivation(x, f_even, f_odd, "odd")
        for i in (1, 2):
            assert derivation_apply(d, section(U, f"x{i}")) == f_even[i - 1]
            assert derivation_apply(d, section(U, f"theta{i}")) == f_odd[i - 1]


class TestDistributions:
    def test_pairing_on_mixed_partial(self):
        U = SuperDomain(1, 1)
        dist = make_distribution(U, (F(0),), 2, {((1,), (1,)): F(1)})
        assert pair_distribution(dist, section(U, "x1*theta1")) == 1

    def test_order_zero_is_evaluation(self):
        U = SuperDomain(1, 1)
        dist = make_distribution(U, (F(2),), 0, {((0,), ()): F(1)})
        s = section(U, "x1^2 + theta1")
        assert pair_distribution(dist, s) == eval_classical(s, (F(2),))

    def test_truncation_annihilates_high_degree(self):
        U = SuperDomain(1, 0)
        for k in range(3):
            dist = make_distribution(
                U, (F(0),), k, {((i,), ()): F(1) for i in range(k + 1)}
            )
            s = section(U, f"x1^{k + 1}")
            assert pair_distribution(dist, s) == 0

    def test_taylor_duality_exact(self):
        rng = random.Random(24)
        U = SuperDomain(2, 2)
        for _ in range(15):
            s = Section(U, rand_polynomial_expr(rng, 2, 2))
            base = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
            order = rng.randint(0, 4)
            derivs = {}
            for (nu, indices), got in taylor_coefficient_map(s, base, order).items():
                partial = Section(U, mixed_partial(derivs, s.expr, nu, indices))
                assert got == eval_classical(partial, base) / factorial_multi(nu)

    def test_tautological_point_shape(self):
        U = SuperDomain(2, 1)
        y = tautological_point(U, (F(1), F(2)), 3)
        assert y.algebra.k == 2 and y.algebra.l == 1 and y.algebra.s == 4
        assert y.base_point() == (1, 2)


class TestFunctionals:
    def test_body_functional_is_classical(self):
        U = SuperDomain(1, 1)
        g = make_grassmann(2)
        x = make_apoint(U, g, [g.scalar(3)], [g.gen_odd(1)])
        omega = {m: F(1) if m.is_one() else F(0) for m in g.quotient_basis}
        s = section(U, "x1^2 + theta1")
        assert functional_through_point(omega, x, s) == eval_classical(s, (F(3),))

    def test_jet_coefficient_is_first_derivative(self):
        U = SuperDomain(1, 0)
        dual = make_dual_numbers()
        x = make_apoint(U, dual, [dual.scalar(3) + dual.gen_even(1)], [])
        omega = {Monomial((1,), 0): F(1)}
        s = section(U, "x1^2")
        assert functional_through_point(omega, x, s) == 6

    def test_zero_functional(self):
        U = SuperDomain(1, 0)
        dual = make_dual_numbers()
        x = make_apoint(U, dual, [dual.scalar(1)], [])
        assert functional_through_point({}, x, section(U, "x1")) == 0

    def test_functional_agrees_with_distribution(self):
        # on the tautological algebra, dual-basis functionals realize the
        # nu!-scaled distribution pairing
        rng = random.Random(25)
        U = SuperDomain(1, 1)
        base = (F(1),)
        order = 3
        y = tautological_point(U, base, order)
        for _ in range(10):
            s = Section(U, rand_polynomial_expr(rng, 1, 1))
            for m in y.algebra.quotient_basis:
                omega = {m: F(1)}
                via_omega = functional_through_point(omega, y, s)
                dist = make_distribution(
                    U, base, order, {(m.nu, m.odd_indices()): F(1)}
                )
                assert pair_distribution(dist, s) == factorial_multi(m.nu) * via_omega

    def test_basis_mismatch(self):
        U = SuperDomain(1, 0)
        dual = make_dual_numbers()
        x = make_apoint(U, dual, [dual.scalar(1)], [])
        with pytest.raises(AlgebraError):
            functional_through_point({Monomial((5,), 0): F(1)}, x, section(U, "x1"))


class TestTransitivity:
    def test_two_jet_expansion(self):
        U = SuperDomain(1, 0)
        a = make_dual_numbers()
        b0 = make_dual_numbers()
        prod, _, _ = tensor(a, b0)
        e, ep = prod.gen_even(1), prod.gen_even(2)
        c, al, be, ga = F(3), F(1), F(2), F(5)
        coord = prod.scalar(c) + e.scale(al) + ep.scale(be) + (e * ep).scale(ga)
        x = make_apoint(U, prod, [coord], [])
        s = section(U, "x1^2")
        direct = eval_ast(x, s)
        expected = (
            prod.scalar(c * c)
            + e.scale(2 * c * al)
            + ep.scale(2 * c * be)
            + (e * ep).scale(2 * c * ga + 2 * al * be)
        )
        assert direct == expected
        assert check_transitivity(s, x, a, b0) == 0

    def test_trivial_outer_factor(self):
        U = SuperDomain(1, 1)
        a = make_grassmann(2)
        b0 = make_truncated(0, 0, 1)
        prod, _, _ = tensor(a, b0)
        x = make_apoint(
            U, prod, [prod.scalar(2)], [prod.gen_odd(1) + prod.gen_odd(2)]
        )
        assert check_transitivity(section(U, "x1*theta1"), x, a, b0) == 0

    def test_exp_mixed_factors(self):
        U = SuperDomain(1, 0)
        a = make_grassmann(2, REAL)
        b0 = make_truncated(1, 0, 2, REAL)
        prod, _, _ = tensor(a, b0)
        coord = prod.gen_odd(1) * prod.gen_odd(2) + prod.gen_even(1)
        x = make_apoint(U, prod, [coord], [])
        assert check_transitivity(section(U, "exp(x1)"), x, a, b0) <= 1e-12

    def test_odd_outer_factor_rejected(self):
        U = SuperDomain(1, 0)
        a = make_dual_numbers()
        b0 = make_grassmann(1)
        prod, _, _ = tensor(a, b0)
        x = make_apoint(U, prod, [prod.scalar(1)], [])
        with pytest.raises(AlgebraError):
            check_transitivity(section(U, "x1"), x, a, b0)

    def test_transitivity_point_constructor(self):
        from superweil import transitivity_point

        U = SuperDomain(1, 1)
        a = make_grassmann(1)
        b0 = make_dual_numbers()
        prod, _, _ = tensor(a, b0)
        x = transitivity_point(
            U, a, b0, [prod.scalar(2) + prod.gen_even(1)], [prod.gen_odd(1)]
        )
        assert x.algebra == prod
        assert x.base_point() == (2,)
        with pytest.raises(AlgebraError):
            transitivity_point(U, b0, a, [prod.scalar(1)], [prod.gen_odd(1)])

    def test_odd_increment_side_regression(self):
        # theta1 -> z1 + z1 u splits as inner z1 plus increment z1 u; the
        # increment must multiply the (odd) inner derivative evaluation from
        # the left: e * y(d1 s) = z1 u z2 = +z1z2 u, not the negated product
        U = SuperDomain(0, 2)
        a = make_grassmann(2)
        b0 = make_truncated(1, 0, 2)
        prod, _, _ = tensor(a, b0)
        z1, z2, u = prod.gen_odd(1), prod.gen_odd(2), prod.gen_even(1)
        x = make_apoint(U, prod, [], [z1 + z1 * u, z2])
        s = section(U, "theta1*theta2")
        assert eval_ast(x, s) == z1 * z2 + z1 * z2 * u
        assert check_transitivity(s, x, a, b0) == 0

    def test_random_battery_exact(self):
        rng = random.Random(26)
        U = SuperDomain(1, 2)
        a = make_grassmann(3)
        b0 = make_truncated(1, 0, 3)
        prod, _, _ = tensor(a, b0)
        for _ in range(40):
            x = rand_point(rng, U, prod)
            s = rand_section(rng, U)
            assert check_transitivity(s, x, a, b0) == 0
