"""JSON round trips and the named workspace registry."""

import json
import os
from fractions import Fraction as F

import pytest

from superweil import (
    EvaluationError,
    ParseError,
    SuperDomain,
    TangentVector,
    Workspace,
    make_apoint,
    make_derivation,
    make_distribution,
    make_domain_morphism,
    make_grassmann,
    make_truncated,
    quotient,
    section,
    series_from_morphism,
)
from superweil.fields import COMPLEX, RATIONAL, REAL
from superweil.serialize import (
    algebra_from_json,
    algebra_to_json,
    apoint_from_json,
    apoint_to_json,
    coeff_map_from_json,
    coeff_map_to_json,
    derivation_from_json,
    derivation_to_json,
    distribution_from_json,
    distribution_to_json,
    domain_from_json,
    domain_morphism_from_json,
    domain_morphism_to_json,
    domain_to_json,
    parse_monomial_key,
    section_from_json,
    section_to_json,
    series_from_json,
    series_to_json,
    tangent_from_json,
    tangent_to_json,
)


def quotiented_algebra():
    ambient = make_truncated(1, 2, 3)
    gens = [ambient.gen_even(1) * ambient.gen_odd(1)]
    algebra, _ = quotient(ambient, gens)
    return algebra


class TestAlgebraJson:
    def test_round_trip_preserves_structure(self):
        a = quotiented_algebra()
        again = algebra_from_json(algebra_to_json(a))
        assert again == a

    def test_round_trip_float_field(self):
        a = make_truncated(1, 1, 3, REAL)
        assert algebra_from_json(algebra_to_json(a)) == a

    def test_deterministic_bytes(self):
        one = json.dumps(algebra_to_json(quotiented_algebra()), sort_keys=True)
        two = json.dumps(algebra_to_json(quotiented_algebra()), sort_keys=True)
        assert one == two

    def test_element_round_trip(self):
        a = quotiented_algebra()
        v = a.scalar(F(3, 2)) + a.gen_even(1) + (a.gen_odd(1) * a.gen_odd(2)).scale(F(-1, 3))
        assert coeff_map_from_json(a, coeff_map_to_json(v)) == v

    def test_monomial_key_errors(self):
        a = make_grassmann(2)
        with pytest.raises(ParseError):
            parse_monomial_key(a, "z3")
        with pytest.raises(ParseError):
            parse_monomial_key(a, "z1z1")
        with pytest.raises(ParseError):
            parse_monomial_key(a, "w1")
        with pytest.raises(ParseError, match="truncation degree 3"):
            parse_monomial_key(make_truncated(1, 1, 3), "t1^2z1")
        with pytest.raises(ParseError, match="truncation degree 5"):
            algebra_from_json({"field": "rational", "k": 1, "l": 0, "s": 5, "ideal": [{"t1^5": "1"}]})

    def test_non_canonical_monomial_keys_are_rejected(self):
        # z2*z1 = -z1z2, and t1t1 and t1^2 name one monomial
        with pytest.raises(ParseError, match="not canonical; write 'z1z2'"):
            coeff_map_from_json(make_grassmann(2), {"z2z1": "1"})
        with pytest.raises(ParseError, match="not canonical; write 't1\\^2'"):
            coeff_map_from_json(make_truncated(1, 0, 5), {"t1t1": "1", "t1^2": "2"})
        with pytest.raises(ParseError, match="not canonical"):
            algebra_from_json({"field": "rational", "k": 1, "l": 2, "s": 4,
                               "ideal": [{"z2z1": "1"}]})

    @pytest.mark.parametrize("change, key", [
        ({"k": None}, "'k'"),
        ({"k": "1"}, "'k' must be int"),
        ({"ideal": ["t1^2"]}, "'ideal' entry 0 must be dict"),
    ], ids=["missing-k", "string-k", "string-ideal-entry"])
    def test_malformed_algebra_json_names_the_key(self, change, key):
        obj = {"field": "rational", "k": 1, "l": 0, "s": 3, "ideal": []}
        obj.update(change)
        obj = {k: v for k, v in obj.items() if v is not None}
        with pytest.raises(ParseError, match=key):
            algebra_from_json(obj)

    @pytest.mark.parametrize("field", [REAL, COMPLEX], ids=lambda f: f.name)
    def test_float_round_trip_keeps_the_saved_rows(self, field, tmp_path):
        # re-closing the saved rows under multiplication used to reload this as dim 5
        a = make_truncated(2, 0, 9, field)
        t1, t2 = a.gen_even(1), a.gen_even(2)
        c = [field.coerce(x) for x in (F(1, 3), F(6, 5))]
        q, _ = quotient(a, [t1 ** 3 * c[0] - t1 ** 2 * c[1] - t2 ** 2 * c[0]])
        saved = json.loads(json.dumps(algebra_to_json(q)))
        again = algebra_from_json(saved)
        assert again == q and again.dim == 17
        if field is REAL:
            assert algebra_to_json(again) == saved
        ws = Workspace()
        ws.algebras["q"] = q
        ws.save(tmp_path / "ws.json")
        assert Workspace.load(tmp_path / "ws.json") == ws

    def test_rows_that_only_generate_an_ideal_are_rejected(self):
        obj = {"field": "rational", "k": 1, "l": 0, "s": 5, "ideal": [{"t1^2": "1"}]}
        with pytest.raises(ParseError, match="pivot t1\\^2 times t1 "):
            algebra_from_json(obj)

    @pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
    def test_non_finite_coefficient_is_rejected(self, field):
        obj = {"field": field.name, "k": 1, "l": 0, "s": 4,
               "ideal": [{"t1^2": float("nan")}, {"t1^3": 1.0}]}
        with pytest.raises(ParseError, match="non-finite"):
            algebra_from_json(json.loads(json.dumps(obj)))


class TestValueJson:
    def test_domain_round_trip(self):
        d = SuperDomain(2, 1, box=((F(-1), F(1)), None))
        assert domain_from_json(domain_to_json(d)) == d

    def test_domain_with_predicate_rejected(self):
        d = SuperDomain(1, 0, predicate=lambda p: True)
        with pytest.raises(ParseError):
            domain_to_json(d)

    def test_section_round_trip(self):
        s = section(SuperDomain(1, 2), "exp(x1)*theta1*theta2 - 1/2*x1")
        assert section_from_json(section_to_json(s)) == s

    def test_apoint_round_trip(self):
        g = make_grassmann(2)
        x = make_apoint(
            SuperDomain(1, 2),
            g,
            [g.scalar(2) + (g.gen_odd(1) * g.gen_odd(2)).scale(3)],
            [g.gen_odd(1), g.gen_odd(2)],
        )
        assert apoint_from_json(apoint_to_json(x)) == x

    def test_domain_morphism_round_trip(self):
        phi = make_domain_morphism(
            SuperDomain(1, 2), SuperDomain(1, 1), ["x1 + theta1*theta2", "x1*theta1"]
        )
        assert domain_morphism_from_json(domain_morphism_to_json(phi)) == phi

    def test_tangent_round_trip(self):
        tv = TangentVector(SuperDomain(2, 1), (F(1), F(2)), (F(0), F(3)), (F(1),))
        assert tangent_from_json(tangent_to_json(tv, RATIONAL), RATIONAL) == tv

    def test_derivation_round_trip(self):
        g = make_grassmann(2)
        x = make_apoint(SuperDomain(1, 1), g, [g.scalar(1)], [g.gen_odd(1)])
        d = make_derivation(x, [g.gen_odd(2)], [g.scalar(2)], "odd")
        assert derivation_from_json(derivation_to_json(d)) == d

    def test_distribution_round_trip(self):
        dist = make_distribution(
            SuperDomain(1, 1), (F(0),), 2, {((1,), (1,)): F(2)}
        )
        assert distribution_from_json(distribution_to_json(dist, RATIONAL), RATIONAL) == dist

    def test_series_round_trip(self):
        phi = make_domain_morphism(
            SuperDomain(1, 2), SuperDomain(1, 0), ["x1^2 + x1*theta1*theta2"]
        )
        series = series_from_morphism(phi, 3)
        assert series_from_json(series_to_json(series)) == series


class TestWorkspace:
    def build(self):
        ws = Workspace()
        ws.algebras["G2"] = make_grassmann(2)
        ws.algebras["jet"] = quotiented_algebra()
        ws.domains["U"] = SuperDomain(1, 2)
        ws.sections["f"] = section(ws.domains["U"], "x1 + theta1*theta2")
        ws.points["x"] = make_apoint(
            ws.domains["U"],
            ws.algebras["G2"],
            [ws.algebras["G2"].scalar(2)],
            [ws.algebras["G2"].gen_odd(1), ws.algebras["G2"].gen_odd(2)],
        )
        ws.morphisms["phi"] = make_domain_morphism(
            ws.domains["U"], ws.domains["U"], ["x1", "theta2", "theta1"]
        )
        ws.series["F"] = series_from_morphism(ws.morphisms["phi"], 2)
        return ws

    def test_save_load_identity(self, tmp_path):
        ws = self.build()
        path = tmp_path / "ws.json"
        ws.save(path)
        again = Workspace.load(path)
        assert again == ws

    def test_schema_field(self, tmp_path):
        ws = self.build()
        blob = ws.to_json()
        assert blob["schema"] == 1

    def test_unresolved_reference_rejected(self):
        ws = Workspace()
        g = make_grassmann(2)
        ws.domains["U"] = SuperDomain(1, 2)
        ws.points["x"] = make_apoint(
            ws.domains["U"], g, [g.scalar(1)], [g.zero(), g.zero()]
        )
        with pytest.raises(ParseError):
            ws.to_json()

    def test_bad_schema_rejected(self):
        with pytest.raises(ParseError):
            Workspace.from_json({"schema": 99})

    def test_fraction_box_ends_save_as_floats(self, tmp_path):
        ws = Workspace()
        ws.domains["U"] = SuperDomain(2, 0, box=((F(-1), F(1, 2)), (None, F(3))))
        assert domain_to_json(ws.domains["U"])["box"] == [[-1.0, 0.5], [None, 3.0]]
        path = tmp_path / "ws.json"
        ws.save(path)
        assert Workspace.load(path) == ws

    @pytest.mark.parametrize(
        "box, written",
        [(((F(1, 3), F(1)),), [["1/3", 1.0]]), (((F(10**400), None),), [[str(10**400), None]])],
    )
    def test_inexact_fraction_box_ends_round_trip(self, box, written, tmp_path):
        ws = Workspace()
        ws.domains["U"] = SuperDomain(1, 0, box=box)
        assert domain_to_json(ws.domains["U"])["box"] == written
        path = tmp_path / "ws.json"
        ws.save(path)
        assert Workspace.load(path) == ws

    def test_box_end_past_the_written_digits_is_refused(self, tmp_path):
        ws = Workspace()
        ws.domains["U"] = SuperDomain(1, 0, box=((F(1, 3**10000), F(1)),))
        with pytest.raises(EvaluationError, match="4300 digits"):
            ws.save(tmp_path / "ws.json")
        assert not (tmp_path / "ws.json").exists()

    @pytest.mark.parametrize("end", ["1//3", "one", "1/0", ""])
    def test_malformed_box_end_string(self, end):
        with pytest.raises(ParseError, match="box"):
            domain_from_json({"p": 1, "q": 0, "box": [[end, None]]})

    def test_failed_save_leaves_the_file_as_it_was(self, tmp_path, monkeypatch):
        path = tmp_path / "ws.json"
        self.build().save(path)
        before = path.read_bytes()
        unsavable = Workspace()
        unsavable.domains["U"] = SuperDomain(1, 0, predicate=lambda p: True)
        with pytest.raises(ParseError):
            unsavable.save(path)
        assert path.read_bytes() == before

        def refuse(src, dst):
            raise OSError("no space left on device")

        # a write that fails after the text is complete leaves no temporary file
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            self.build().save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ws.json"]
