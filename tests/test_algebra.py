"""Algebra construction, normal-form arithmetic, morphisms, tensor and join."""

import functools
import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superweil import (
    COMPLEX,
    RATIONAL,
    REAL,
    AlgebraError,
    ParityError,
    compose_morphisms,
    identity_morphism,
    join,
    make_dual_numbers,
    make_grassmann,
    make_morphism,
    make_super_dual_numbers,
    make_truncated,
    quotient,
    scalar_projection,
    tensor,
)
from superweil import algebra as algebra_module
from superweil.algebra import (
    Monomial,
    SuperWeilAlgebra,
    _Unit,
    _ambient,
    _ambient_monomials,
    _monomials_of_degree,
    merge_sign,
)
from superweil.battery import constructor_families
from superweil.cli import parse_algebra_spec
from superweil.linalg import rref_desc
from superweil.serialize import algebra_from_json

def names(algebra):
    return [algebra.monomial_name(m) for m in algebra.quotient_basis]


def mul_monomials(a, b):
    """(sign, product) in the free supercommutative algebra; (0, None) if a z
    repeats: the reference that the packed monomial codes must agree with."""
    if a.odd & b.odd:
        return 0, None
    nu = tuple(x + y for x, y in zip(a.nu, b.nu))
    return merge_sign(a.odd, b.odd), Monomial(nu, a.odd | b.odd)


class TestConstructors:
    def test_truncated_univariate(self):
        a = make_truncated(1, 0, 3)
        assert a.dim == 3
        assert names(a) == ["1", "t1", "t1^2"]

    def test_truncated_pure_odd(self):
        a = make_truncated(0, 2, 3)
        assert a.dim == 4
        assert set(names(a)) == {"1", "z1", "z2", "z1z2"}

    def test_truncated_mixed(self):
        a = make_truncated(1, 1, 2)
        assert a.dim == 3
        assert set(names(a)) == {"1", "t1", "z1"}

    def test_truncated_bad_order(self):
        # an int past 4,300 digits has no decimal text, so the message gives none
        for s in (0, -(10**5000)):
            with pytest.raises(AlgebraError, match="invalid truncation order"):
                make_truncated(1, 0, s)

    def test_grassmann_trivial(self):
        a = make_grassmann(0)
        assert a.dim == 1
        assert a.height() == 0
        assert a.width() == 0

    def test_grassmann_anticommutes(self):
        a = make_grassmann(2)
        th1, th2 = a.gen_odd(1), a.gen_odd(2)
        assert th2 * th1 == -(th1 * th2)
        assert a.dim == 4

    def test_grassmann3_height_by_brute_force(self):
        a = make_grassmann(3)
        th = [a.gen_odd(j) for j in (1, 2, 3)]
        total = th[0] + th[1] + th[2]
        assert (total * total * total).is_zero()
        assert not (th[0] * th[1] * th[2]).is_zero()
        nil = [a.element({m: F(1)}) for m in a.nil_monomials()]
        triple = [u * v * w for u in nil for v in nil for w in nil]
        assert any(not t.is_zero() for t in triple)
        quadruple = [u * v * w * y for u in nil for v in nil for w in nil for y in nil]
        assert all(t.is_zero() for t in quadruple)
        assert a.height() == 3

    def test_super_dual_numbers(self):
        a = make_super_dual_numbers()
        x, th = a.gen_even(1), a.gen_odd(1)
        assert (x * th).is_zero()
        assert (x * x).is_zero()
        assert (th * th).is_zero()
        e = a.one() + x
        assert e * e == a.one() + x.scale(2)
        assert a.height() == 1
        assert a.width() == 2


class TestAmbientCache:
    def test_one_shape_shares_one_enumeration(self):
        a = make_truncated(2, 1, 4, RATIONAL)
        b = make_truncated(2, 1, 4, REAL)
        assert a.ambient_basis is b.ambient_basis
        assert list(a.ambient_basis) == _ambient_monomials(2, 1, 4)
        q, _ = quotient(a, [a.gen_even(1) ** 2])
        assert q.ambient_basis is a.ambient_basis

    def test_over_cap_shape_is_not_enumerated(self):
        before = _ambient.cache_info()
        with pytest.raises(AlgebraError, match="ambient cap"):
            make_truncated(4, 0, 40)
        assert _ambient.cache_info() == before

    @pytest.mark.parametrize("build", [
        lambda: make_grassmann(100_000_000),
        lambda: make_truncated(0, 1_000_000, 1_000_001),
        lambda: make_truncated(3_000_000, 0, 3_000_000),
        lambda: make_truncated(100_000, 0, 100_000),
        lambda: algebra_from_json({"field": "rational", "k": 100_000, "l": 0, "s": 100_000, "ideal": []}),
        lambda: make_truncated(1, 10**20, 1),
        lambda: make_truncated(10**20, 0, 1),
    ], ids=["grassmann", "odd", "even", "long-count", "json", "odd-at-s1", "even-at-s1"])
    def test_huge_shapes_are_refused_at_once(self, build):
        # their exact binomials took longer than 30 s, and the count of the
        # fourth had too many digits to format into the message
        with pytest.raises(AlgebraError, match="ambient cap"):
            build()

    def test_racing_threads_build_equal_bases(self):
        shapes = [(1, 1, 5), (2, 0, 6), (0, 3, 4), (3, 1, 3)]
        built = [None] * 8

        def build(slot):
            built[slot] = [make_truncated(*shape).ambient_basis for shape in shapes]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _ambient.cache_clear()
            threads = [threading.Thread(target=build, args=(i,)) for i in range(len(built))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for shape, *bases in zip(shapes, *built):
            basis, index, codes, by_code = _ambient(*shape)
            assert all(b == basis for b in bases)
            assert list(basis) == _ambient_monomials(*shape)
            assert [index[m] for m in basis] == list(range(len(basis)))
            assert {c | o: m for m, (c, o, _) in codes.items()} == by_code

    @pytest.mark.parametrize("shape", [(1, 0, 1), (1, 0, 10), (0, 4, 5), (3, 3, 4), (2, 1, 6)])
    def test_codes_add_below_the_truncation(self, shape):
        basis, _, codes, by_code = _ambient(*shape)
        s = shape[2]
        assert len(by_code) == len(basis)
        for m in basis:
            code, odd, degree = codes[m]
            assert (odd, degree) == (m.odd, m.degree())
            assert by_code[code | odd] is m
        for m1 in basis:
            for m2 in basis:
                sign, prod = mul_monomials(m1, m2)
                if prod is None or prod.degree() >= s:
                    continue
                (c1, o1, _), (c2, o2, _) = codes[m1], codes[m2]
                assert c1 + c2 == codes[prod][0]
                assert by_code[c1 + c2 | o1 | o2] == prod


class TestQuotient:
    def test_kill_mixed_monomial(self):
        ambient = make_truncated(1, 1, 3)
        quot, proj = quotient(ambient, [ambient.gen_even(1) * ambient.gen_odd(1)])
        assert quot.dim == 4
        assert set(names(quot)) == {"1", "t1", "t1^2", "z1"}
        assert proj(ambient.gen_even(1) * ambient.gen_odd(1)).is_zero()

    def test_empty_generators_identity(self):
        ambient = make_truncated(1, 1, 3)
        quot, _ = quotient(ambient, [])
        assert quot == ambient

    def test_dual_numbers_as_quotient(self):
        # same algebra as make_dual_numbers() up to the ambient presentation
        ambient = make_truncated(1, 0, 3)
        quot, _ = quotient(ambient, [ambient.gen_even(1) ** 2])
        assert names(quot) == ["1", "t1"]
        assert (quot.gen_even(1) ** 2).is_zero()
        assert quot.height() == 1

    def test_rejects_mixed_parity_generator(self):
        ambient = make_truncated(1, 1, 3)
        with pytest.raises(ParityError):
            quotient(ambient, [ambient.gen_even(1) + ambient.gen_odd(1)])

    def test_rejects_unit_generator(self):
        ambient = make_truncated(1, 0, 3)
        with pytest.raises(AlgebraError):
            quotient(ambient, [ambient.one() + ambient.gen_even(1)])

    def test_rank_plus_dim(self):
        ambient = make_truncated(2, 1, 3)
        gens = [ambient.gen_even(1) * ambient.gen_even(2), ambient.gen_odd(1)]
        quot, _ = quotient(ambient, gens)
        assert quot.dim + len(quot.ideal_rows) == ambient.dim


class TestElements:
    def test_body_soul_parity(self):
        a = make_grassmann(2)
        v = a.scalar(3) + (a.gen_odd(1) * a.gen_odd(2)).scale(2)
        assert v.body() == 3
        assert v.soul() == (a.gen_odd(1) * a.gen_odd(2)).scale(2)
        assert (v.soul() * v.soul()).is_zero()
        assert v.parity() == "even"
        assert (a.gen_odd(1) + a.gen_odd(1) * a.gen_odd(2)).parity() == "mixed"
        assert a.zero().parity() == "zero"

    def test_mul_truncates(self):
        a = make_truncated(1, 0, 3)
        t = a.gen_even(1)
        e = a.one() + t
        assert e * e == a.one() + t.scale(2) + t * t

    @pytest.mark.parametrize("field", [REAL, COMPLEX], ids=lambda f: f.name)
    def test_scale_drops_an_underflowed_coefficient(self, field):
        a = make_truncated(1, 0, 3, field)
        tiny = (a.one() + a.gen_even(1)).scale(1e-200).scale(1e-200)
        assert tiny.is_zero()
        assert tiny == a.zero()
        assert repr(tiny) == "0"

    def test_grassmann_square_cancels(self):
        a = make_grassmann(2)
        v = a.gen_odd(1) + a.gen_odd(2)
        assert (v * v).is_zero()

    def test_invert_truncated(self):
        a = make_truncated(1, 0, 3)
        t = a.gen_even(1)
        inv = (a.one() + t).inverse()
        assert inv == a.one() - t + t * t
        assert inv * (a.one() + t) == a.one()

    def test_invert_scalar(self):
        a = make_grassmann(1)
        assert a.scalar(2).inverse() == a.scalar(F(1, 2))

    def test_invert_zero_body_rejected(self):
        a = make_grassmann(1)
        with pytest.raises(ParityError):
            a.gen_odd(1).inverse()
        with pytest.raises(AlgebraError):
            (a.gen_odd(1) * a.zero() + a.zero()).inverse()

    def test_basis_monomials_nilpotent_by_squaring(self):
        a = make_truncated(2, 1, 4)
        bound = math.ceil(math.log2(a.s)) + 1
        for m in a.nil_monomials():
            v = a.element({m: F(1)})
            for _ in range(bound):
                v = v * v
            assert v.is_zero()


def brute_power_dims(algebra):
    """Dims of nil, nil^2, ...: nil^(r+1) is spanned by the products of a
    nil^r basis with every nil basis monomial.  On inexact fields a product
    below 1e-9 of its left factor is float residue and is dropped."""
    field = algebra.field
    nil = [algebra.element({m: field.one}) for m in algebra.nil_monomials()]
    level, dims = nil, []
    while level:
        assert len(dims) < algebra.s, "nil^s must vanish"
        dims.append(len(level))
        rows = {}
        for u in level:
            for v in nil:
                w = u * v
                if not w.is_zero() and (field.exact or w.norm() > 1e-9 * u.norm()):
                    key = tuple(sorted((algebra.basis_index[m], c) for m, c in w.coeffs.items()))
                    rows[key] = None
        reduced, _ = rref_desc([dict(r) for r in rows], field)
        level = [
            algebra.element({algebra.quotient_basis[j]: c for j, c in sorted(r.items())})
            for r in reduced
        ]
    return dims


def _monomial_quotient(field):
    a = make_truncated(1, 1, 3, field)
    return quotient(a, [a.gen_even(1) * a.gen_odd(1)])[0]


def _nonmonomial_quotient(field):
    # the shape of the benchmark's quotient workload
    a = make_truncated(3, 2, 5, field)
    t1, t2, t3 = (a.gen_even(i) for i in (1, 2, 3))
    z1, z2 = a.gen_odd(1), a.gen_odd(2)
    c = [field.coerce(F(n, d)) for n, d in ((3, 7), (-5, 3), (2, 9), (7, 4))]
    return quotient(a, [t1 * t2 * c[0] + t3 ** 2 * c[1], t1 * z1 * c[2] + t2 * z2 * c[3]])[0]


def _residue_quotient(field):
    # on REAL the products spanning nil^5 = 0 are float residue of about 4e-16
    a = make_truncated(2, 1, 5, field)
    t1, t2 = a.gen_even(1), a.gen_even(2)
    g = t1 ** 2 * field.coerce(2) - t2 ** 3 * field.coerce(F(1, 3)) + t1 * t2 * field.coerce(F(5, 7))
    return quotient(a, [g])[0]


def _deep_residue_quotient(field):
    # height 4 in a degree-8 truncation: float residue would fill nil^5..nil^7
    a = make_truncated(2, 1, 8, field)
    t1, t2 = a.gen_even(1), a.gen_even(2)
    c = [field.coerce(x) for x in (F(-1, 3), F(1), F(-7, 3), F(5, 3))]
    gens = [t1 ** 2 * c[0] - t2 ** 3 * c[1] + t1 * t2 * c[2], t1 * t2 ** 2 * c[3] + t2 ** 3]
    return quotient(a, gens)[0]


def _join(field):
    b = make_truncated(2, 1, 5, field)
    u1, u2 = b.gen_even(1), b.gen_even(2)
    q1 = quotient(b, [u1 ** 2 * field.coerce(F(2, 3)) + u2 ** 3 * field.coerce(F(-1, 5))])[0]
    q2 = quotient(b, [u1 * u2 * field.coerce(F(4, 3)) + u2 ** 2 * field.coerce(F(3, 2))])[0]
    return join(q1, q2)[0]


FAMILIES = {
    "truncated": lambda field: make_truncated(2, 1, 5, field),
    "grassmann": lambda field: make_grassmann(3, field),
    "dual": make_dual_numbers,
    "super-dual": make_super_dual_numbers,
    "quotient-monomial": _monomial_quotient,
    "quotient-nonmonomial": _nonmonomial_quotient,
    "quotient-residue": _residue_quotient,
    "quotient-deep-residue": _deep_residue_quotient,
    "tensor": lambda field: tensor(make_truncated(2, 1, 3, field), make_truncated(1, 1, 3, field))[0],
    "join": _join,
}


class TestHeightWidth:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_grassmann_height_width(self, q):
        a = make_grassmann(q)
        assert a.height() == q
        assert a.width() == q

    def test_super_dual(self):
        a = make_super_dual_numbers()
        assert (a.height(), a.width()) == (1, 2)

    def test_scalars(self):
        a = make_truncated(0, 0, 1)
        assert (a.height(), a.width()) == (0, 0)

    @pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_height_width_by_brute_force(self, family, field):
        a = FAMILIES[family](field)
        dims = brute_power_dims(a) + [0, 0]
        assert a.height() == dims.index(0)
        assert a.width() == dims[0] - dims[1]

    def test_real_quotient_with_float_residue(self):
        a = FAMILIES["quotient-residue"](REAL)
        assert (a.dim, a.height(), a.width()) == (16, 4, 3)
        g = a.one() + a.gen_even(1)
        assert (g * g.inverse() - a.one()).norm() < 1e-9


# -- graded heights are degree counts; brute force is their reference -----------


def _homogeneous_generator(algebra, rng):
    """A zero-body element whose terms share one degree and one parity."""
    field = algebra.field
    pools = {}
    for m in algebra.quotient_basis:
        if not m.is_one():
            pools.setdefault((m.degree(), m.parity()), []).append(m)
    terms = pools[rng.choice(sorted(pools))]
    return algebra.element({m: field.coerce(F(rng.randint(-5, 5) or 1, rng.randint(1, 4)))
                            for m in rng.sample(terms, min(len(terms), rng.randint(1, 3)))})


def _graded_algebras(field):
    yield from constructor_families(field).values()
    # the benchmark's tensors
    for a, b in (((2, 1, 3), (1, 1, 3)), ((2, 2, 3), (1, 1, 4))):
        yield tensor(make_truncated(*a, field), make_truncated(*b, field))[0]
    for seed in range(12):
        rng = random.Random(seed)
        ambient = make_truncated(rng.randint(1, 3), rng.randint(0, 2), rng.randint(2, 6), field)
        q1 = quotient(ambient, [_homogeneous_generator(ambient, rng) for _ in range(2)])[0]
        q2 = quotient(ambient, [_homogeneous_generator(ambient, rng)])[0]
        yield from (q1, q2, join(q1, q2)[0])


@pytest.fixture
def rref_calls(monkeypatch):
    """The row reductions that ``algebra`` runs once the fixture is set up."""
    calls = []

    def recorded(rows, field):
        calls.append(rows)
        return rref_desc(rows, field)

    monkeypatch.setattr(algebra_module, "rref_desc", recorded)
    return calls


@pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
def test_graded_power_dims_are_degree_counts(field, rref_calls):
    algebras = list(_graded_algebras(field))
    rref_calls.clear()
    for a in algebras:
        got = a._power_dims
        assert rref_calls == [], a
        assert got == tuple(brute_power_dims(a)), a


def test_non_graded_cli_quotient_takes_the_product_path():
    a = parse_algebra_spec("quot:trunc:2,2,4;t1^2-t2*z1*z2;t1*t2")
    assert a._power_dims == (15, 11, 5)
    assert (a.height(), a.width()) == (3, 4)


def test_non_graded_real_quotient_takes_the_product_path():
    q = _ill_conditioned_quotient(REAL)[1]
    assert q._power_dims == (16, 14, 12, 10, 8, 6, 4, 2)


class TestTensor:
    def test_dual_tensor_dual(self):
        t, _, _ = tensor(make_dual_numbers(), make_dual_numbers())
        assert t.dim == 4
        assert set(names(t)) == {"1", "t1", "t2", "t1t2"}

    def test_inclusions_anticommute(self):
        lam = make_grassmann(1)
        t, i1, i2 = tensor(lam, lam)
        a = i1(lam.gen_odd(1))
        b = i2(lam.gen_odd(1))
        assert a * b == -(b * a)
        assert not (a * b).is_zero()

    def test_unit_law(self):
        a = make_truncated(1, 1, 3)
        k = make_truncated(0, 0, 1)
        t, i_a, _ = tensor(a, k)
        assert t == a
        assert i_a(a.gen_even(1)) == a.gen_even(1)

    def test_dimension_product(self):
        a = make_truncated(1, 1, 3)
        b = make_grassmann(2)
        t, _, _ = tensor(a, b)
        assert t.dim == a.dim * b.dim


class TestMorphisms:
    def test_projection_to_scalars(self):
        a = make_grassmann(2)
        pr = scalar_projection(a)
        v = a.scalar(3) + (a.gen_odd(1) * a.gen_odd(2)).scale(2)
        assert pr(v) == pr.target.scalar(3)

    def test_swap_introduces_sign(self):
        a = make_grassmann(2)
        swap = make_morphism(a, a, [], [a.gen_odd(2), a.gen_odd(1)])
        assert swap(a.gen_odd(1) * a.gen_odd(2)) == -(a.gen_odd(1) * a.gen_odd(2))

    def test_identity(self):
        a = make_truncated(1, 1, 3)
        ident = identity_morphism(a)
        for m in a.quotient_basis:
            v = a.element({m: F(1)})
            assert ident(v) == v

    def test_relation_violation_rejected(self):
        dual = make_dual_numbers()
        cubic = make_truncated(1, 0, 4)
        with pytest.raises(AlgebraError):
            make_morphism(dual, cubic, [cubic.gen_even(1)], [])

    @pytest.mark.parametrize("field", [RATIONAL, REAL], ids=lambda f: f.name)
    def test_ideal_relation_violation_names_its_pivot(self, field):
        a = make_truncated(2, 0, 3, field)
        t1, t2 = a.gen_even(1), a.gen_even(2)
        q, _ = quotient(a, [t1 * t2 - t1 ** 2])
        with pytest.raises(AlgebraError, match="source relation: the row with pivot t1\\^2$"):
            make_morphism(q, a, [t1, t2], [])

    def test_nonzero_body_rejected(self):
        dual = make_dual_numbers()
        with pytest.raises(AlgebraError):
            make_morphism(dual, dual, [dual.one()], [])

    def test_parity_mismatch_rejected(self):
        sd = make_super_dual_numbers()
        with pytest.raises(ParityError):
            make_morphism(sd, sd, [sd.gen_odd(1)], [sd.gen_odd(1)])

    def test_multiplicativity_and_base_preservation(self):
        source = make_truncated(1, 2, 3)
        target = make_truncated(1, 2, 3)
        rho = make_morphism(
            source,
            target,
            [target.gen_even(1) + (target.gen_odd(1) * target.gen_odd(2)).scale(3)],
            [target.gen_odd(2), target.gen_odd(1) - target.gen_odd(2)],
        )
        xs = [
            source.one() + source.gen_even(1),
            source.gen_odd(1) * source.gen_odd(2) + source.gen_even(1),
            source.gen_odd(2),
        ]
        for a in xs:
            for b in xs:
                assert rho(a * b) == rho(a) * rho(b)
                assert rho(a + b) == rho(a) + rho(b)
            assert rho(a).body() == a.body()

    def test_compose_associative(self):
        a = make_truncated(0, 2, 3)
        swap = make_morphism(a, a, [], [a.gen_odd(2), a.gen_odd(1)])
        scale = make_morphism(a, a, [], [a.gen_odd(1).scale(2), a.gen_odd(2)])
        left = compose_morphisms(swap, compose_morphisms(scale, swap))
        right = compose_morphisms(compose_morphisms(swap, scale), swap)
        for m in a.quotient_basis:
            v = a.element({m: F(1)})
            assert left(v) == right(v)


def _c(field, text):
    return field.coerce(F(text))


def _ill_conditioned_quotient(field):
    """(ambient, quotient, projection) for a quotient whose normal-form
    coefficients reach about 2.7e7."""
    a = make_truncated(2, 0, 9, field)
    t1, t2 = a.gen_even(1), a.gen_even(2)
    return a, *quotient(a, [t1 ** 2 * _c(field, "2/9") + t2 ** 3 * _c(field, "9/8") - t1 * t2 * 2])


def _nested_mixed(field):
    a = make_truncated(2, 2, 5, field)
    t1, t2, z1, z2 = a.gen_even(1), a.gen_even(2), a.gen_odd(1), a.gen_odd(2)
    g1 = t2 ** 3 * _c(field, "-9/2") + t1 * t2 ** 2 + t1 * t2 ** 3 * _c(field, "4/9")
    g2 = (
        t1 * z1 * z2 * _c(field, "7/5") - t1 ** 2 * t2 * _c(field, "9/2") + t2 ** 3 * _c(field, "9/2")
    )
    return quotient(a, [g1, g2])[0], quotient(a, [g1])[0], 36


def _nested_even(field):
    a = make_truncated(2, 0, 9, field)
    t1, t2 = a.gen_even(1), a.gen_even(2)
    g1 = t1 * t2 * _c(field, "-4/9") + t2 ** 2 * _c(field, "3/4") + t1 ** 3 * t2 * _c(field, "2")
    g2 = t2 ** 6 * _c(field, "-3")
    return quotient(a, [g1, g2])[0], quotient(a, [g1])[0], 17


# pairs (q, q2) with q2's ideal inside q's, and the RATIONAL dimension of q2
NESTED_JOINS = {"mixed-2-2-5": _nested_mixed, "even-2-0-9": _nested_even}


class TestJoin:
    def test_join_self(self):
        ambient = make_truncated(1, 0, 3)
        a, _ = quotient(ambient, [ambient.gen_even(1) ** 2])
        j, p1, p2 = join(a, a)
        assert j == a
        for m in j.quotient_basis:
            v = j.element({m: F(1)})
            assert p1(v) == p2(v)

    def test_join_nested_truncations(self):
        ambient = make_truncated(1, 0, 3)
        dual, _ = quotient(ambient, [ambient.gen_even(1) ** 2])
        j, p1, p2 = join(dual, ambient)
        assert j == ambient
        assert j.dim == 3

    def test_join_complementary_lines(self):
        ambient = make_truncated(1, 1, 2)
        a1, _ = quotient(ambient, [ambient.gen_even(1)])
        a2, _ = quotient(ambient, [ambient.gen_odd(1)])
        j, p1, p2 = join(a1, a2)
        assert j == ambient
        assert j.dim == 3
        assert p1(j.gen_odd(1)) == a1.gen_odd(1)
        assert p2(j.gen_even(1)) == a2.gen_even(1)

    @pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
    @pytest.mark.parametrize("case", sorted(NESTED_JOINS))
    def test_join_of_nested_quotients(self, case, field):
        # q2's ideal lies inside q's, so the join is q2 itself
        q, q2, dim = NESTED_JOINS[case](field)
        j, _, _ = join(q, q2)
        assert q2.dim == dim
        assert j.dim == dim
        assert len(j.ideal_rows) == len(q2.ideal_rows)

    @pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
    def test_join_builds_float_projections(self, field):
        b = make_truncated(2, 1, 7, field)
        u1, u2 = b.gen_even(1), b.gen_even(2)
        q1 = quotient(b, [u1 ** 2 * _c(field, "7/3") + u2 ** 3 * _c(field, "7/9")])[0]
        q2 = quotient(b, [u1 * u2 * _c(field, "-3/7") - u2 ** 2])[0]
        j, p1, p2 = join(q1, q2)
        assert j.dim == 40
        assert p1(j.gen_even(1)) == q1.gen_even(1)
        assert p2(j.gen_even(2)) == q2.gen_even(2)

    def test_join_needs_common_presentation(self):
        with pytest.raises(AlgebraError):
            join(make_truncated(1, 0, 2), make_truncated(1, 0, 3))


@pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
def test_float_quotient_builds_its_projection(field):
    # normal-form coefficients grow large here; a REAL check of the projection
    # against the truncation relations used to reject it
    a, q, proj = _ill_conditioned_quotient(field)
    t1, t2 = a.gen_even(1), a.gen_even(2)
    assert (q.dim, q.height()) == (17, 8)
    assert proj(t1 * t2) == q.gen_even(1) * q.gen_even(2)


@pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
def test_hand_built_maps_into_a_float_quotient(field):
    # normal-form coefficients reach about 2.7e7 here, whose float error an
    # absolute tolerance mistook for a violation
    a, q, proj = _ill_conditioned_quotient(field)
    u1, u2 = q.gen_even(1), q.gen_even(2)
    assert make_morphism(a, q, [u1, u2], []).even_images == proj.even_images
    make_morphism(q, q, [u1, u2], [])
    for wrong in ([u1, u2 * 2], [u2, u1]):
        with pytest.raises(AlgebraError, match="source relation"):
            make_morphism(q, q, wrong, [])
    cubic = make_truncated(1, 0, 4, field)
    with pytest.raises(AlgebraError, match="truncation relation t1\\^2"):
        make_morphism(make_dual_numbers(field), cubic, [cubic.gen_even(1)], [])


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=lambda f: f.name)
@pytest.mark.parametrize("eps", [1e-6, 1e-3])
def test_nearly_right_maps_of_a_float_quotient_are_rejected(field, eps):
    # a tolerance of the worst structure constant times the worst relation
    # coefficient (both about 2.7e7 here) accepts both perturbations; a bound
    # from each relation's own products, taken on magnitudes, does not
    a, q, _ = _ill_conditioned_quotient(field)
    u1, u2 = q.gen_even(1), q.gen_even(2)
    with pytest.raises(AlgebraError, match="source relation"):
        make_morphism(q, q, [u1.scale(1 + eps), u2], [])
    # any images satisfy the truncated source's relations: nil^9 = 0 in q
    make_morphism(a, q, [u1.scale(1 + eps), u2], [])


# -- the canonical maps against the homomorphism laws ----------------------------


@functools.cache
def _canonical_maps(field):
    a = make_truncated(2, 1, 4, field)
    t1, t2, z1 = a.gen_even(1), a.gen_even(2), a.gen_odd(1)
    gens = [t1 ** 2 * _c(field, "2/3") - t2 ** 2 * _c(field, "5/7") + t1 * t2, t1 * z1 + t2 * z1 * 3]
    q, proj = quotient(a, gens)
    q2, _ = quotient(a, [t1 * t2 * _c(field, "4/3") + t2 ** 2])
    sd = make_super_dual_numbers(field)
    qsd, incl_a, incl_b = tensor(q, sd)
    j, join_1, join_2 = join(q, q2)
    # each map with the source and target it must have
    return {
        "quotient": (proj, a, q),
        "tensor-a": (incl_a, q, qsd),
        "tensor-b": (incl_b, sd, qsd),
        "join-1": (join_1, j, q),
        "join-2": (join_2, j, q2),
        "identity": (identity_morphism(q), q, q),
        "scalar": (scalar_projection(q), q, make_truncated(0, 0, 1, field)),
    }


def _random_element(algebra, rng):
    field = algebra.field
    return algebra.element(
        {m: field.coerce(F(rng.randint(-5, 5), rng.randint(1, 4))) for m in algebra.quotient_basis}
    )


@pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
@pytest.mark.parametrize("name", ["quotient", "tensor-a", "tensor-b", "join-1", "join-2",
                                  "identity", "scalar"])
def test_canonical_maps_are_homomorphisms(name, field):
    rho, source, target = _canonical_maps(field)[name]
    assert (rho.source, rho.target) == (source, target)

    def close(x, y):
        if field.exact:
            return x == y
        return (x - y).norm() <= 1e-9 * max(1.0, x.norm(), y.norm())

    rng = random.Random(5)
    assert rho(source.one()) == target.one()
    for _ in range(6):
        a, b = _random_element(source, rng), _random_element(source, rng)
        assert close(rho(a * b), rho(a) * rho(b))
        assert close(rho(a + b), rho(a) + rho(b))
        for part, want in ((a.even_part(), "even"), (a.odd_part(), "odd")):
            assert rho(part).parity() in (want, "zero")
    assert make_morphism(source, target, rho.even_images, rho.odd_images) == rho


# -- randomized laws ------------------------------------------------------------

ALGEBRAS = {
    "truncated": make_truncated(2, 1, 3),
    "grassmann": make_grassmann(3),
    "superdual": make_super_dual_numbers(),
}


def element_strategy(algebra):
    fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    monomials = st.sampled_from(algebra.quotient_basis)
    return st.dictionaries(monomials, fractions, max_size=4).map(algebra.element)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(ALGEBRAS)))
def test_ring_axioms(data, which):
    algebra = ALGEBRAS[which]
    elems = element_strategy(algebra)
    a, b, c = data.draw(elems), data.draw(elems), data.draw(elems)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * algebra.one() == a


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(ALGEBRAS)))
def test_supercommutativity_and_nilpotency(data, which):
    algebra = ALGEBRAS[which]
    elems = element_strategy(algebra)
    a = data.draw(elems)
    b = data.draw(elems)
    for ah in (a.even_part(), a.odd_part()):
        for bh in (b.even_part(), b.odd_part()):
            sign = -1 if ah.parity() == "odd" and bh.parity() == "odd" else 1
            assert ah * bh == (bh * ah).scale(sign)
    assert (a.soul() ** (algebra.height() + 1)).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(sorted(ALGEBRAS)))
def test_scalar_plus_nil_decomposition(data, which):
    algebra = ALGEBRAS[which]
    a = data.draw(element_strategy(algebra))
    assert algebra.scalar(a.body()) + a.soul() == a
    pr = scalar_projection(algebra)
    assert pr(a) == pr.target.scalar(a.body())


# -- the product table against a reference product ---------------------------------


def _reference_product(a, b):
    """a * b summed term pair by term pair from mul_monomials and the normal
    form, in the kernel's (m1, m2) order, with no table."""
    algebra, field = a.algebra, a.algebra.field
    out = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            sign, prod = mul_monomials(m1, m2)
            if prod is None:
                continue
            for m, c in algebra._normal_form(prod).items():
                v = out.get(m, field.zero) + c1 * c2 * (c if sign == 1 else -c)
                if field.is_zero(v):
                    out.pop(m, None)
                else:
                    out[m] = v
    return out


@functools.cache
def _product_families(field):
    a = make_truncated(2, 1, 5, field)
    t1, t2, z1 = a.gen_even(1), a.gen_even(2), a.gen_odd(1)
    q1 = quotient(a, [t1 * t2 * _c(field, "3/4") + t2 ** 2,
                      t1 * z1 - t2 * z1 * _c(field, "2/5")])[0]
    q2 = quotient(a, [t1 ** 2 * _c(field, "-7/3") + t1 * t2])[0]
    return {
        "truncated": make_truncated(2, 2, 4, field),
        "grassmann": make_grassmann(4, field),
        "superdual": make_super_dual_numbers(field),
        "monomial-quotient": quotient(a, [t1 ** 2, t2 * z1])[0],
        "quotient": q1,
        "tensor": tensor(q2, make_super_dual_numbers(field))[0],
        "join": join(q1, q2)[0],
    }


@pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
@pytest.mark.parametrize("family", ["truncated", "grassmann", "superdual", "monomial-quotient",
                                    "quotient", "tensor", "join"])
def test_products_match_the_reference_product(family, field):
    algebra = _product_families(field)[family]
    basis = algebra.quotient_basis
    rng = random.Random(family)
    zero_pairs = 0
    for _ in range(40):
        a, b = (
            algebra.element({m: field.coerce(F(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
                             for m in rng.sample(basis, min(rng.randint(1, 6), len(basis)))})
            for _ in range(2)
        )
        zero_pairs += sum(algebra._product_entry(m1, m2) == ()
                          for m1 in a.coeffs for m2 in b.coeffs)
        want, got = _reference_product(a, b), (a * b).coeffs
        assert got == want
        if field is REAL:
            # the same floats in the same order, so the same repr and the
            # same later sums
            assert list(got.items()) == list(want.items())
    assert zero_pairs
    if not field.exact:
        # term products that underflow to zero leave no zero coefficient
        tiny = algebra.element({m: field.coerce(1e-200) for m in basis[:3]})
        assert (tiny * tiny).coeffs == _reference_product(tiny, tiny) == {}


def _reference_entry(algebra, m1, m2):
    """The product-table entry of m1 * m2 from mul_monomials and the normal form."""
    sign, prod = mul_monomials(m1, m2)
    nf = {} if prod is None else algebra._normal_form(prod)
    if not nf:
        return ()
    if prod in algebra.basis_index:
        return _Unit(((prod, sign),))
    return tuple((m, c if sign == 1 else -c) for m, c in nf.items())


@pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
@pytest.mark.parametrize("family", ["trunc-1-0-1", "trunc-1-0-10", "grassmann", "trunc-3-3-4",
                                    "quotient", "tensor"])
def test_every_product_entry_matches_the_reference(family, field):
    builds = {
        "trunc-1-0-1": lambda: make_truncated(1, 0, 1, field),  # s = 1
        "trunc-1-0-10": lambda: make_truncated(1, 0, 10, field),  # the widest code field
        "grassmann": lambda: make_grassmann(4, field),  # k = 0
        "trunc-3-3-4": lambda: make_truncated(3, 3, 4, field),
        "quotient": lambda: _product_families(field)["quotient"],  # non-monomial
        "tensor": lambda: _product_families(field)["tensor"],  # with a quotient factor
    }
    algebra = builds[family]()
    # every ambient pair, pivots included: serialize._check_spans_ideal and
    # _image_magnitudes ask for those too
    basis = algebra.ambient_basis
    for m1 in basis:
        for m2 in basis:
            got, want = algebra._product_entry(m1, m2), _reference_entry(algebra, m1, m2)
            assert got == want and got.__class__ is want.__class__, (m1, m2)


def test_the_product_table_fills_one_entry_per_new_pair():
    a = make_truncated(2, 1, 4)
    t1, z1 = a.gen_even(1), a.gen_odd(1)
    tz = t1 * z1
    assert (tz * z1).is_zero()
    (m_t,), (m_z,), (m_tz,) = t1.coeffs, z1.coeffs, tz.coeffs
    # one entry per pair multiplied, none filled ahead of use
    assert a._products == {m_t: {m_z: ((m_tz, 1),)}, m_tz: {m_z: ()}}


# -- quotient spans its ideal from the products that survive truncation -------------


def _whole_basis_quotient(ambient, gens):
    """The reference: every generator times every quotient basis monomial."""
    field = ambient.field
    rows = [dict(r) for r in ambient.ideal_rows]
    for g in gens:
        for m in ambient.quotient_basis:
            prod = g * ambient.element({m: field.one})
            rows.append({ambient._ambient_index[n]: c for n, c in prod.coeffs.items()})
    return SuperWeilAlgebra(field, ambient.k, ambient.l, ambient.s, rows)


def _random_generator(algebra, rng, parity):
    """A zero-body element of one parity with terms of several degrees."""
    field = algebra.field
    terms = [m for m in algebra.quotient_basis if not m.is_one() and m.parity() == parity]
    return algebra.element({m: field.coerce(F(rng.randint(-5, 5) or 1, rng.randint(1, 4)))
                            for m in rng.sample(terms, min(len(terms), rng.randint(1, 4)))})


@pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
@pytest.mark.parametrize("seed", range(8))
def test_quotient_matches_the_whole_basis_span(seed, field):
    rng = random.Random(seed)
    ambient = make_truncated(rng.randint(1, 3), rng.randint(0, 2), rng.randint(3, 6), field)
    if seed % 2:
        # a quotient ambient: its own rows join the span
        ambient = quotient(ambient, [_random_generator(ambient, rng, 0)])[0]
    parities = [0, 0] + [1] * (ambient.l > 0)
    gens = [_random_generator(ambient, rng, p) for p in parities]
    want = _whole_basis_quotient(ambient, gens)
    got = quotient(ambient, gens)[0]
    assert got.pivot_cols == want.pivot_cols
    assert got.ideal_rows == want.ideal_rows
    if not field.exact:
        assert repr(got.ideal_rows) == repr(want.ideal_rows)


def test_quotient_multiplies_by_no_monomial_past_the_truncation():
    a = make_truncated(3, 0, 6)
    t1 = a.gen_even(1)
    quotient(a, [t1 ** 3])
    # t1^3 * m has degree >= 6 once deg(m) >= 3: only the 10 monomials of
    # degree <= 2 in three generators are multiplied
    row = a._products[Monomial((3, 0, 0), 0)]
    assert len(row) == 10
    assert all(m.degree() < 3 for m in row)


# -- tensor products against the quotient by both factors' relations ------------


def _non_graded_quotient(field):
    a = make_truncated(2, 1, 8, field)
    t1, t2 = a.gen_even(1), a.gen_even(2)
    g = t2 ** 2 * _c(field, "-4/3") - t1 * t2 * _c(field, "7/9") - t2 ** 3 * _c(field, "3/5")
    return quotient(a, [g])[0]


def tensor_by_generators(a, b):
    """The tensor product as the quotient of the joint ambient by both
    factors' ideal rows and truncation monomials, embedded with a's
    generators first: the reference for ``tensor``."""
    k, l, s = a.k + b.k, a.l + b.l, a.s + b.s - 1
    ambient = make_truncated(k, l, s, a.field)
    gens = []
    for src, before, odd_shift in ((a, 0, 0), (b, a.k, a.l)):
        def embed(m):
            return Monomial((0,) * before + m.nu + (0,) * (k - before - src.k), m.odd << odd_shift)

        for row in src.ideal_rows:
            gens.append(ambient.element({embed(src.ambient_basis[i]): c for i, c in row}))
        for m in _monomials_of_degree(src.k, src.l, src.s):
            if m.degree() < s:  # else structurally zero in the joint ambient
                gens.append(ambient.element({embed(m): a.field.one}))
    return quotient(ambient, gens)[0]


_families = functools.cache(constructor_families)


def _family(name, field):
    return _families(field)[name]


TENSOR_FACTORS = {
    **{name: functools.partial(_family, name) for name in _families(RATIONAL)},
    "grassmann-2": functools.partial(make_grassmann, 2),
    "scalars": functools.partial(make_truncated, 0, 0, 1),
}


def _nested_factor(field):
    # a tensor of a non-graded quotient, small enough for the reference
    cli_quotient = parse_algebra_spec("quot:trunc:2,2,4;t1^2-t2*z1*z2;t1*t2", field)
    return tensor(cli_quotient, make_dual_numbers(field))[0]


TENSOR_PAIRS = {
    **{f"{x}*{y}": (TENSOR_FACTORS[x], TENSOR_FACTORS[y]) for x in TENSOR_FACTORS for y in TENSOR_FACTORS},
    "non-graded*trunc": (_non_graded_quotient, functools.partial(make_truncated, 1, 0, 3)),
    "trunc*non-graded": (functools.partial(make_truncated, 1, 0, 3), _non_graded_quotient),
    "nested": (_nested_factor, TENSOR_FACTORS["grassmann-2"]),
}


def _tensor_pair(name, field):
    return tuple(make(field) for make in TENSOR_PAIRS[name])


def _tensor_of_pair(name, field):
    return tensor(*_tensor_pair(name, field))[0]


@pytest.mark.parametrize("pair", list(TENSOR_PAIRS))
def test_tensor_matches_the_generator_construction(pair):
    a, b = _tensor_pair(pair, RATIONAL)
    assert tensor(a, b)[0].signature() == tensor_by_generators(a, b).signature()


@pytest.mark.parametrize("field", [RATIONAL, REAL, COMPLEX], ids=lambda f: f.name)
def test_tensor_runs_no_elimination(field, rref_calls):
    # the one non-empty reduction gets one row per joint monomial outside
    # basis_a x basis_b, already reduced, and hands it back as it came
    for pair in TENSOR_PAIRS:
        a, b = _tensor_pair(pair, field)
        rref_calls.clear()
        t = tensor(a, b)[0]
        want = [dict(r) for r in t.ideal_rows]
        assert len(want) == len(t.ambient_basis) - a.dim * b.dim, pair
        got = [sorted(rows, key=max, reverse=True) for rows in rref_calls if rows]
        assert got == ([want] if want else []), pair


# -- every field builds the algebra that RATIONAL builds ----------------------------


def _real_join(field):
    # RATIONAL: dim 44; a rank rule judged against the pivot row gave REAL a
    # residue pivot and dim 45
    a = make_truncated(2, 2, 7, field)
    t1, t2 = a.gen_even(1), a.gen_even(2)
    q1 = quotient(a, [t1 * t2 * _c(field, "1/2"), t2 ** 2 * _c(field, "-5/9") + t1 * t2 * _c(field, "2/5")])[0]
    q2 = quotient(a, [t1 * _c(field, "5") - t2 * _c(field, "1/3") - t1 * t2 * _c(field, "4/7")])[0]
    return join(q1, q2)[0]


def _real_tensor(field):
    # RATIONAL: dim 84; residue once left REAL at dim 58 with empty ideal rows
    return tensor(_non_graded_quotient(field), make_truncated(1, 0, 3, field))[0]


def _seeded_member(seed, field):
    """A quotient, join, tensor or nested quotient (by ``seed % 4``) whose
    shapes and rational coefficients depend on ``seed`` alone; generators
    are drawn on truncated ambients, which every field shares.  From seed 24
    on they have no linear terms, which would collapse most of the ambient."""
    rng = random.Random(seed)
    kind = seed % 4

    def generator(algebra, parity):
        g = _random_generator(algebra, rng, parity)
        return g if seed < 24 else algebra.element({m: c for m, c in g.coeffs.items() if m.degree() > 1})

    if kind == 2:
        a = make_truncated(rng.randint(1, 2), rng.randint(0, 1), rng.randint(3, 6), field)
        b = make_truncated(1, rng.randint(0, 1), rng.randint(2, 3), field)
        return tensor(quotient(a, [generator(a, 0)])[0], b)[0]
    a = make_truncated(rng.randint(1, 3), rng.randint(0, 2), rng.randint(3, 7), field)
    gens = [generator(a, p) for p in [0, 0] + [1] * (a.l > 0)]
    if kind == 0:
        return quotient(a, gens)[0]
    if kind == 1:
        return join(quotient(a, gens[:1])[0], quotient(a, gens[1:])[0])[0]
    q, proj = quotient(a, gens[:1])
    return quotient(q, [proj(g) for g in gens[1:]])[0]


CROSS_FIELD = {
    "real-join": _real_join,
    "ill-conditioned-quotient": lambda field: _ill_conditioned_quotient(field)[1],
    "real-tensor": _real_tensor,
    # at dim 168 on RATIONAL; eliminating the generators left REAL at dim 156
    "nested-real-tensor": lambda field: tensor(_real_tensor(field), make_grassmann(1, field))[0],
    **{f"seed-{seed}": functools.partial(_seeded_member, seed) for seed in range(48)},
    **{f"tensor-{pair}": functools.partial(_tensor_of_pair, pair) for pair in TENSOR_PAIRS},
}


@pytest.mark.parametrize("member", list(CROSS_FIELD))
def test_every_field_agrees_with_rational(member):
    # float coefficients stay within 1e-12 relative of the exact ones
    want = CROSS_FIELD[member](RATIONAL)
    for field in (REAL, COMPLEX):
        got = CROSS_FIELD[member](field)
        assert got.pivot_cols == want.pivot_cols, field
        assert (got.dim, got._power_dims) == (want.dim, want._power_dims), field
        for row, exact in zip(got.ideal_rows, want.ideal_rows):
            assert [i for i, _ in row] == [i for i, _ in exact], field
            for (_, c), (_, e) in zip(row, exact):
                assert abs(c - float(e)) <= 1e-12 * abs(float(e)), field
        # each pivot is stored as exactly one, with no -0.0 imaginary part
        for row, col in zip(got.ideal_rows, got.pivot_cols):
            pivot = complex(dict(row)[col])
            assert pivot == 1 and math.copysign(1.0, pivot.imag) == 1.0, field
