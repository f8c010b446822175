"""Coefficient series: extraction, application, the morphism-origin checker."""

import json
import random
from fractions import Fraction as F

import pytest


from superweil import (
    REAL,
    AlgebraError,
    ParityError,
    SuperDomain,
    TruncatedFormalSeries,
    apply_morphism_to_point,
    apply_series,
    check_comes_from_morphism,
    eval_taylor,
    make_apoint,
    make_domain_morphism,
    make_grassmann,
    make_truncated,
    section,
    series_from_morphism,
)
from superweil import expr as ex
from superweil import superfunc
from superweil.battery import rand_domain_morphism, rand_point
from superweil.expr import parse_expr, poly_dict
from superweil.nattrans import NECESSITY_NOTE
from superweil.serialize import series_to_json

U12 = SuperDomain(1, 2)
V10 = SuperDomain(1, 0)

SAMPLES = [(F(1),), (F(-1),), (F(2),), (F(1, 2),)]


def poly_eq(e, text, p=1):
    got, want = poly_dict(e), poly_dict(parse_expr(text, p, 0))
    assert got is not None and want is not None, "symbolic equality needs polynomials"
    return got == want


class TestSeriesFromMorphism:
    def test_graded_shift_pullback(self):
        phi = make_domain_morphism(U12, V10, ["x1 + theta1*theta2"])
        series = series_from_morphism(phi, 2)
        cmap = series.coeffs[0]
        assert poly_eq(cmap[((0,), ())], "x1")
        assert poly_eq(cmap[((1,), ())], "1")
        assert ((2,), ()) not in cmap
        assert poly_eq(cmap[((0,), (1, 2))], "1")
        assert ((1,), (1, 2)) not in cmap

    def test_identity_morphism(self):
        U = SuperDomain(1, 0)
        series = series_from_morphism(make_domain_morphism(U, U, ["x1"]), 2)
        cmap = series.coeffs[0]
        assert set(cmap) == {((0,), ()), ((1,), ())}
        assert poly_eq(cmap[((0,), ())], "x1")
        assert poly_eq(cmap[((1,), ())], "1")

    def test_exp_pullback_coefficients(self):
        U = SuperDomain(1, 0)
        series = series_from_morphism(make_domain_morphism(U, U, ["exp(x1)"]), 2)
        cmap = series.coeffs[0]
        for n in range(3):
            e = cmap[((n,), ())]
            got = [
                _eval_even(e, v) for v in (0.0, 0.5)
            ]
            import math

            want = [math.exp(v) / math.factorial(n) for v in (0.0, 0.5)]
            assert got == pytest.approx(want, rel=1e-12)

    def test_slot_parity_enforced(self):
        with pytest.raises(ParityError):
            TruncatedFormalSeries(
                (1, 2), (1, 0), 2, ({((0,), (1,)): ex.ONE},)
            )


def _eval_even(e, v):
    from superweil.superfunc import eval_expr_classical
    from superweil.fields import REAL

    return eval_expr_classical(e, (v,), REAL)


class TestApplySeries:
    def test_matches_direct_application(self):
        phi = make_domain_morphism(U12, V10, ["x1 + theta1*theta2"])
        series = series_from_morphism(phi, 2)
        g = make_grassmann(2)
        x = make_apoint(U12, g, [g.scalar(2)], [g.gen_odd(1), g.gen_odd(2)])
        assert apply_series(series, x)[0] == g.scalar(2) + g.gen_odd(1) * g.gen_odd(2)

    def test_scalar_point_reads_base_coefficient(self):
        phi = make_domain_morphism(U12, V10, ["x1^2 + theta1*theta2"])
        series = series_from_morphism(phi, 3)
        k = make_truncated(0, 0, 1)
        x = make_apoint(U12, k, [k.scalar(3)], [k.zero(), k.zero()])
        assert apply_series(series, x)[0] == k.scalar(9)

    def test_round_trip_against_point_application(self):
        rng = random.Random(31)
        source = SuperDomain(2, 2)
        target = SuperDomain(1, 1)
        a = make_truncated(1, 2, 3)
        for _ in range(25):
            phi = rand_domain_morphism(rng, source, target)
            series = series_from_morphism(phi, 4)
            x = rand_point(rng, source, a)
            direct = apply_morphism_to_point(phi, x)
            via_series = apply_series(series, x)
            assert via_series == list(direct.even_vals + direct.odd_vals)

    def test_height_above_truncation_rejected(self):
        phi = make_domain_morphism(U12, V10, ["x1 + theta1*theta2"])
        series = series_from_morphism(phi, 1)
        g = make_grassmann(2)
        x = make_apoint(U12, g, [g.scalar(1)], [g.gen_odd(1), g.gen_odd(2)])
        with pytest.raises(AlgebraError):
            apply_series(series, x)


class TestOneSeriesPath:
    """eval_taylor is the section's series at the base, contracted."""

    U22 = SuperDomain(2, 2)

    def one_pullback(self, s):
        target = SuperDomain(0, 1) if s.parity == ex.ODD else SuperDomain(1, 0)
        return make_domain_morphism(self.U22, target, [s])

    def test_eval_taylor_is_the_applied_series_exactly_on_rationals(self):
        rng = random.Random(9)
        for algebra in (make_truncated(2, 2, 4), make_truncated(1, 2, 5), make_grassmann(3)):
            for target in (SuperDomain(1, 0), SuperDomain(0, 1)):
                for _ in range(8):
                    s = section(self.U22, rand_domain_morphism(rng, self.U22, target).pullbacks[0].expr)
                    x = rand_point(rng, self.U22, algebra)
                    series = series_from_morphism(self.one_pullback(s), algebra.height())
                    assert eval_taylor(x, s) == apply_series(series, x)[0]

    @pytest.mark.parametrize("text", [
        "exp(x1)*sin(x2) + theta1*theta2*log(2+x1^2)",
        "theta1*cos(x1*x2) + theta2*exp(x2)",
        "inv(2+x1)*x2^2 + theta1*theta2*x1^3",
    ])
    def test_eval_taylor_is_the_applied_series_on_reals(self, text):
        rng = random.Random(10)
        s = section(self.U22, text)
        for algebra in (make_truncated(2, 2, 4, REAL), make_truncated(1, 2, 5, REAL)):
            x = rand_point(rng, self.U22, algebra)
            series = series_from_morphism(self.one_pullback(s), algebra.height())
            via_taylor, via_series = eval_taylor(x, s), apply_series(series, x)[0]
            assert not via_taylor.is_zero()
            assert (via_taylor - via_series).norm() <= 1e-12 * via_taylor.norm()

    def test_series_json_bytes(self):
        pulls = ["x1^3 + 2*x1 + theta1*x1^2*theta1", "theta1*exp(x1)"]
        phi = make_domain_morphism(SuperDomain(1, 1), SuperDomain(1, 1), pulls)
        got = json.dumps(series_to_json(series_from_morphism(phi, 3)), sort_keys=True)
        assert got == (
            '{"order": 3, "slots": [[{"J": [], "expr": "x1*x1*x1 + 2*x1", "nu": [0]}, '
            '{"J": [], "expr": "(x1 + x1)*x1 + x1*x1 + 2", "nu": [1]}, '
            '{"J": [], "expr": "(1/2)*(2*x1 + (x1 + x1) + (x1 + x1))", "nu": [2]}, '
            '{"J": [], "expr": "1", "nu": [3]}], '
            '[{"J": [1], "expr": "exp(x1)", "nu": [0]}, {"J": [1], "expr": "exp(x1)", "nu": [1]}, '
            '{"J": [1], "expr": "(1/2)*exp(x1)", "nu": [2]}, '
            '{"J": [1], "expr": "(1/6)*exp(x1)", "nu": [3]}]], '
            '"source": [1, 1], "target": [1, 1]}'
        )

    def test_a_component_with_a_zero_odd_product_is_not_differentiated(self, monkeypatch):
        U = SuperDomain(1, 2)
        s = section(U, "x1^3*theta1*theta2")
        a = make_truncated(1, 2, 4)
        t, z1, z2 = a.gen_even(1), a.gen_odd(1), a.gen_odd(2)

        def no_derivatives(*args):
            raise AssertionError("differentiated a component that contributes nothing")

        monkeypatch.setattr(superfunc, "derive_expr_even", no_derivatives)
        x = make_apoint(U, a, [a.scalar(2) + t], [z1, z1])  # theta1*theta2 -> z1*z1 = 0
        assert eval_taylor(x, s).is_zero()
        y = make_apoint(U, a, [a.scalar(2) + t], [z1, z2])
        with pytest.raises(AssertionError, match="differentiated"):
            eval_taylor(y, s)


class TestChecker:
    def test_morphism_series_pass(self):
        rng = random.Random(32)
        source = SuperDomain(1, 2)
        target = SuperDomain(2, 1)
        for _ in range(10):
            phi = rand_domain_morphism(rng, source, target)
            series = series_from_morphism(phi, 3)
            report = check_comes_from_morphism(series, SAMPLES)
            assert report.passed
            assert report.note == NECESSITY_NOTE

    def test_quadratic_base_with_no_linear_term_fails(self):
        series = TruncatedFormalSeries(
            (1, 0), (1, 0), 2, ({((0,), ()): parse_expr("x1^2", 1, 0)},)
        )
        report = check_comes_from_morphism(series, SAMPLES)
        assert not report.passed
        v = report.violations[0]
        assert (v.slot, v.direction) == (1, 1)

    def test_constant_map_passes(self):
        series = TruncatedFormalSeries(
            (1, 0), (1, 0), 2, ({((0,), ()): ex.Const(F(5))},)
        )
        assert check_comes_from_morphism(series, SAMPLES).passed

    def test_single_coefficient_perturbations_detected(self):
        phi = make_domain_morphism(
            SuperDomain(1, 2), SuperDomain(1, 1), ["x1^2 + x1*theta1*theta2", "x1*theta1"]
        )
        series = series_from_morphism(phi, 3)
        for k, cmap in enumerate(series.coeffs):
            for key in cmap:
                if sum(key[0]) < 1:
                    continue  # an order-0 shift is itself a morphism series
                slots = [dict(c) for c in series.coeffs]
                slots[k][key] = ex.add(slots[k][key], ex.ONE)
                bumped = TruncatedFormalSeries(
                    series.source_dims, series.target_dims, series.order, tuple(slots)
                )
                assert not check_comes_from_morphism(bumped, SAMPLES).passed

    def test_non_evaluable_coefficient_flagged_not_fatal(self):
        series = TruncatedFormalSeries(
            (1, 0),
            (1, 0),
            1,
            ({((0,), ()): parse_expr("x1", 1, 0), ((1,), ()): parse_expr("log(x1)", 1, 0)},),
        )
        report = check_comes_from_morphism(series, [(-1.0,), (1.0,)])
        notes = [v.note for v in report.violations]
        assert any("not evaluable" in n for n in notes)
        assert any("recursion violated" in n for n in notes)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_tolerance_must_be_a_non_negative_number(self, tol):
        # every comparison with NaN is false, so a NaN tolerance passed a
        # series whose x1^2 coefficient is wrong
        series = TruncatedFormalSeries(
            (1, 0), (1, 0), 2, ({((0,), ()): parse_expr("x1^2 + x1", 1, 0),
                                 ((1,), ()): parse_expr("2*x1 + 1", 1, 0),
                                 ((2,), ()): ex.Const(F(5))},)
        )
        assert not check_comes_from_morphism(series, SAMPLES).passed
        with pytest.raises(AlgebraError, match="tolerance"):
            check_comes_from_morphism(series, SAMPLES, tol)

    def test_report_json_shape(self):
        series = TruncatedFormalSeries(
            (1, 0), (1, 0), 2, ({((0,), ()): parse_expr("x1^2", 1, 0)},)
        )
        blob = check_comes_from_morphism(series, SAMPLES).to_json()
        assert blob["passed"] is False
        assert blob["note"] == NECESSITY_NOTE
        assert blob["violations"][0]["slot"] == 1
