"""Randomized property battery behind the ``selftest`` command.

Every suite is a pure function of a seed so the battery is reproducible; the
CLI turns the results into a pass/fail table.  Counts are desk scale and can
be scaled up or down; the test suite pins its own counts independently.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import expr as ex
from .algebra import (
    EVEN,
    ODD,
    AlgebraElement,
    compose_morphisms,
    identity_morphism,
    join,
    make_grassmann,
    make_morphism,
    make_super_dual_numbers,
    make_truncated,
    quotient,
    tensor,
)
from .apoints import (
    eval_ast,
    eval_taylor,
    make_apoint,
    make_domain_morphism,
    pushforward_algebra,
)
from .calculus import (
    TangentVector,
    check_transitivity,
    derivation_apply,
    finite_difference_tangent,
    make_derivation,
    make_distribution,
    pair_distribution,
    tangent_eval,
    taylor_coefficient_map,
)
from .fields import RATIONAL, REAL
from .nattrans import TruncatedFormalSeries, check_comes_from_morphism, series_from_morphism
from .superfunc import (
    Section,
    SuperDomain,
    components_to_expr,
    d_even,
    eval_classical,
    normalize_components,
    taylor_terms,
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""


# -- random generators ------------------------------------------------------------


# The draws below pick from precomputed tuples and ranges with rng.choice,
# which makes the same _randbelow(n) calls as the rng.randint they replace:
# the random stream, and so every suite's cases, stay as they were.


@lru_cache(maxsize=16)
def _fraction_rows(span):
    """Fraction(n, d) for n in -span..span (one row each) and d in 1..3."""
    return tuple(tuple(Fraction(n, d) for d in (1, 2, 3)) for n in range(-span, span + 1))


def rand_fraction(rng, span=4):
    return rng.choice(rng.choice(_fraction_rows(span)))


def rand_element(rng, algebra, parity=None, max_terms=3, span=3):
    """Random element; optionally restricted to one parity or to nilpotents."""
    candidates = algebra._bases_by_parity.get(parity, ())
    coeffs = {}
    if candidates:
        field = algebra.field
        for _ in range(rng.choice(range(1, max_terms + 1))):
            m = rng.choice(candidates)
            if field.exact:
                coeffs[m] = rand_fraction(rng, span)
            else:
                coeffs[m] = field.coerce(rng.uniform(-2.0, 2.0))
    # a repeated monomial keeps its first slot, so zeros go only at the end
    return AlgebraElement(algebra, {m: c for m, c in coeffs.items() if c})


def constructor_families(field=RATIONAL):
    """Representative algebras, one per constructor, small enough for batteries."""
    trunc = make_truncated(2, 1, 3, field)
    grass = make_grassmann(3, field)
    sdual = make_super_dual_numbers(field)
    amb = make_truncated(1, 1, 3, field)
    quot, _ = quotient(amb, [amb.gen_even(1) * amb.gen_odd(1)])
    tens, _, _ = tensor(make_truncated(1, 0, 2, field), make_grassmann(1, field))
    amb2 = make_truncated(1, 0, 3, field)
    a1, _ = quotient(amb2, [amb2.gen_even(1) ** 2])
    joined, _, _ = join(a1, amb2)
    return {
        "truncated": trunc,
        "grassmann": grass,
        "super_dual": sdual,
        "quotient": quot,
        "tensor": tens,
        "join": joined,
    }


def rand_polynomial_expr(rng, p, q, depth=3):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.45 and p:
            return ex.EvenCoord(rng.randint(1, p))
        if roll < 0.7 and q:
            return ex.OddCoord(rng.randint(1, q))
        return ex.Const(rand_fraction(rng, 3))
    roll = rng.random()
    a = rand_polynomial_expr(rng, p, q, depth - 1)
    if roll < 0.40:
        return ex.add(a, rand_polynomial_expr(rng, p, q, depth - 1))
    if roll < 0.75:
        return ex.mul(a, rand_polynomial_expr(rng, p, q, depth - 1))
    if roll < 0.85:
        return ex.neg(a)
    if a.parity == ex.EVEN:
        return ex.int_pow(a, rng.randint(0, 2))
    return ex.scalar_mul(rand_fraction(rng, 2), a)


def rand_analytic_expr(rng, p, q, depth=3):
    """Polynomial skeleton with exp/sin/cos wrapped around even subtrees."""
    e = rand_polynomial_expr(rng, p, q, depth)
    for _ in range(rng.randint(1, 2)):
        inner = rand_polynomial_expr(rng, p, 0, 2)
        if inner.parity != ex.EVEN:
            continue
        fn = rng.choice(("exp", "sin", "cos"))
        e = ex.add(e, ex.Apply(fn, ex.scalar_mul(Fraction(1, 2), inner)))
    return e


def rand_section(rng, domain, analytic=False, depth=3):
    maker = rand_analytic_expr if analytic else rand_polynomial_expr
    return Section(domain, maker(rng, domain.p, domain.q, depth))


def rand_point(rng, domain, algebra, span=2):
    field = algebra.field
    even_vals = []
    for _ in range(domain.p):
        if field.exact:
            base = Fraction(rng.randint(-span, span))
        else:
            base = rng.uniform(-1.5, 1.5)
        even_vals.append(
            algebra.scalar(base) + rand_element(rng, algebra, "nil").even_part()
        )
    odd_vals = [rand_element(rng, algebra, ODD) for _ in range(domain.q)]
    return make_apoint(domain, algebra, even_vals, odd_vals)


def rand_domain_morphism(rng, source, target, depth=2):
    pulls = []
    for k in range(target.p + target.q):
        want_odd = k >= target.p
        for _ in range(40):
            e = rand_polynomial_expr(rng, source.p, source.q, depth)
            if want_odd and e.parity == ex.ODD:
                break
            if not want_odd and e.parity == ex.EVEN:
                break
        else:
            e = ex.OddCoord(1) if want_odd else ex.EvenCoord(1)
        pulls.append(e)
    return make_domain_morphism(source, target, pulls)


def rand_algebra_morphism(rng, source, target):
    """Random structure-respecting map into a same-or-deeper truncation."""
    even_images = [
        rand_element(rng, target, "nil", max_terms=2).even_part()
        for _ in range(source.k)
    ]
    odd_images = [
        rand_element(rng, target, ODD, max_terms=2) for _ in range(source.l)
    ]
    return make_morphism(source, target, even_images, odd_images)


# -- suites --------------------------------------------------------------------------


def suite_algebra_laws(seed, n_per_family=1000):
    rng = random.Random(seed)
    families = constructor_families()
    cases = 0
    for name, algebra in families.items():
        for _ in range(n_per_family):
            a = rand_element(rng, algebra)
            b = rand_element(rng, algebra)
            c = rand_element(rng, algebra)
            if (a * b) * c != a * (b * c):
                return SuiteResult("algebra-laws", False, cases, f"associativity in {name}")
            if a * (b + c) != a * b + a * c:
                return SuiteResult("algebra-laws", False, cases, f"distributivity in {name}")
            if a * algebra.one() != a:
                return SuiteResult("algebra-laws", False, cases, f"unit law in {name}")
            ah = rand_element(rng, algebra, rng.choice((EVEN, ODD)))
            bh = rand_element(rng, algebra, rng.choice((EVEN, ODD)))
            sign = -1 if ah.parity() == ODD and bh.parity() == ODD else 1
            if ah * bh != (bh * ah).scale(sign):
                return SuiteResult("algebra-laws", False, cases, f"supercommutativity in {name}")
            cases += 1
        h = algebra.height()
        for _ in range(max(n_per_family // 6, 1)):
            a = rand_element(rng, algebra)
            if not (a.soul() ** (h + 1)).is_zero():
                return SuiteResult("algebra-laws", False, cases, f"nilpotency in {name}")
            cases += 1
    return SuiteResult("algebra-laws", True, cases)


def suite_structure_roundtrip(seed, n=20):
    rng = random.Random(seed)
    cases = 0
    for _ in range(n):
        k = rng.randint(0, 2)
        l = rng.randint(0, 2)
        s = rng.randint(2, 4)
        ambient = make_truncated(k, l, s)
        monos = [m for m in ambient.quotient_basis if not m.is_one()]
        gens = []
        for m in rng.sample(monos, min(len(monos), rng.randint(0, 2))):
            gens.append(ambient.element({m: Fraction(1)}))
        quot, proj = quotient(ambient, gens)
        if quot.dim + len(quot.ideal_rows) != ambient.dim:
            return SuiteResult("structure-roundtrip", False, cases, "rank + dim mismatch")
        one = quot.one()
        if one.body() != 1 or not one.soul().is_zero():
            return SuiteResult("structure-roundtrip", False, cases, "unit decomposition")
        for _ in range(5):
            a = rand_element(rng, quot)
            b = rand_element(rng, quot, "nil")
            if not (a - a.soul() - quot.scalar(a.body())).is_zero():
                return SuiteResult("structure-roundtrip", False, cases, "body+soul != a")
            if (a * b).body() != 0:
                return SuiteResult(
                    "structure-roundtrip", False, cases, "nil not an ideal"
                )
        cases += 1
    return SuiteResult("structure-roundtrip", True, cases)


def _eval_battery_case(rng, analytic):
    field = REAL if analytic else RATIONAL
    p = rng.randint(1, 2)
    q = rng.randint(0, 2)
    domain = SuperDomain(p, q)
    choices = [
        make_truncated(1, q, 3, field),
        make_grassmann(max(q, 1) + 1, field),
        make_truncated(2, q, 3, field),
    ]
    algebra = rng.choice(choices)
    if algebra.l < q:
        algebra = make_truncated(algebra.k, q, algebra.s, field)
    x = rand_point(rng, domain, algebra)
    s = rand_section(rng, domain, analytic)
    t = rand_section(rng, domain, analytic)
    return x, s, t


def suite_homomorphism(seed, n=500):
    rng = random.Random(seed)
    cases = 0
    for i in range(n):
        analytic = i >= n // 2
        x, s, t = _eval_battery_case(rng, analytic)
        vs = eval_ast(x, s)
        vt = eval_ast(x, t)
        prod = eval_ast(x, Section(s.domain, ex.Mul(s.expr, t.expr)))
        total = eval_ast(x, Section(s.domain, ex.Add(s.expr, t.expr)))
        if analytic:
            scale = max(1.0, vs.norm(), vt.norm())
            ok = (prod - vs * vt).norm() <= 1e-9 * scale
            ok = ok and (total - (vs + vt)).norm() <= 1e-9 * scale
        else:
            ok = prod == vs * vt and total == vs + vt
        if not ok:
            return SuiteResult("apoint-homomorphism", False, cases, f"case {i}")
        cases += 1
    return SuiteResult("apoint-homomorphism", True, cases)


def suite_dual_path(seed, n=500):
    rng = random.Random(seed)
    cases = 0
    for i in range(n):
        analytic = i >= n // 2
        x, s, _ = _eval_battery_case(rng, analytic)
        via_ast = eval_ast(x, s)
        via_taylor = eval_taylor(x, s)
        if analytic:
            ok = (via_ast - via_taylor).norm() <= 1e-9 * max(1.0, via_ast.norm())
        else:
            ok = via_ast == via_taylor
        if not ok:
            return SuiteResult("dual-path-oracle", False, cases, f"case {i}")
        cases += 1
    return SuiteResult("dual-path-oracle", True, cases)


def suite_tangent_ad(seed, n=200, h=1e-5, rel_tol=1e-6):
    rng = random.Random(seed)
    cases = 0
    for i in range(n):
        p = rng.randint(1, 2)
        q = rng.randint(0, 1)
        domain = SuperDomain(p, q)
        s = rand_section(rng, domain, analytic=True)
        base = tuple(rng.uniform(-1.0, 1.0) for _ in range(p))
        direction = tuple(rng.uniform(-1.0, 1.0) for _ in range(p))
        tv = TangentVector(domain, base, direction, (0.0,) * q)
        value, d_ad, _ = tangent_eval(s, tv, REAL)
        d_ref = finite_difference_tangent(s, base, direction, h)
        if sys.float_info.epsilon * abs(value) / h > rel_tol * max(1.0, abs(d_ad), abs(d_ref)):
            # rounding in f(base +- h*v) alone exceeds the tolerance, so the
            # central difference says nothing: use the symbolic derivative
            d_ref = sum(
                v * eval_classical(d_even(s, k), base) for k, v in enumerate(direction, start=1)
            )
        if abs(d_ad - d_ref) > rel_tol * max(1.0, abs(d_ad), abs(d_ref)):
            return SuiteResult("tangent-ad-vs-fd", False, cases, f"case {i}: {d_ad} vs {d_ref}")
        cases += 1
    return SuiteResult("tangent-ad-vs-fd", True, cases)


def suite_derivations(seed, n=200):
    rng = random.Random(seed)
    cases = 0
    for i in range(n):
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        domain = SuperDomain(p, q)
        algebra = make_truncated(1, q, 3)
        x = rand_point(rng, domain, algebra)
        par = rng.choice((EVEN, ODD))
        f_even = [
            rand_element(rng, algebra, EVEN if par == EVEN else ODD)
            for _ in range(p)
        ]
        f_odd = [
            rand_element(rng, algebra, ODD if par == EVEN else EVEN)
            for _ in range(q)
        ]
        d = make_derivation(x, f_even, f_odd, par)
        # coefficient recovery on coordinate sections
        for i_c in range(1, p + 1):
            got = derivation_apply(d, Section(domain, ex.EvenCoord(i_c)))
            if got != d.f_even[i_c - 1]:
                return SuiteResult("derivations", False, cases, "f_i recovery")
        for j_c in range(1, q + 1):
            got = derivation_apply(d, Section(domain, ex.OddCoord(j_c)))
            if got != d.f_odd[j_c - 1]:
                return SuiteResult("derivations", False, cases, "F_j recovery")
        s = rand_section(rng, domain)
        t = rand_section(rng, domain)
        s_par = s.expr.parity
        if s_par not in (EVEN, ODD):
            s = Section(domain, normalize_parity(rng, s.expr))
            s_par = s.expr.parity
        st = Section(domain, ex.Mul(s.expr, t.expr))
        lhs = derivation_apply(d, st)
        sign = -1 if (par == ODD and s_par == ODD) else 1
        rhs = derivation_apply(d, s) * eval_ast(x, t) + (
            eval_ast(x, s) * derivation_apply(d, t)
        ).scale(sign)
        if lhs != rhs:
            return SuiteResult("derivations", False, cases, f"Leibniz case {i}")
        cases += 1
    return SuiteResult("derivations", True, cases)


def normalize_parity(rng, e):
    """Project a mixed expression onto one random homogeneous part."""
    comps = normalize_components(Section(SuperDomain(*ex.max_indices(e)), e))
    want = rng.choice((0, 1))
    kept = {
        indices: coef for indices, coef in comps.items() if len(indices) % 2 == want
    }
    if not kept:
        kept = comps
    return components_to_expr(kept)


def suite_distributions(seed, n=60, max_order=4):
    rng = random.Random(seed)
    cases = 0
    for i in range(n):
        p = rng.randint(1, 2)
        q = rng.randint(0, 2)
        domain = SuperDomain(p, q)
        order = rng.randint(0, max_order)
        base = tuple(Fraction(rng.randint(-2, 2)) for _ in range(p))
        s = rand_section(rng, domain, analytic=False)
        coeffs = taylor_coefficient_map(s, base, order)
        terms = taylor_terms(s.expr, {nu for nu, _ in coeffs}, {js for _, js in coeffs})
        for (nu, indices), got in coeffs.items():
            d, n = terms.get((nu, indices), (ex.ZERO, 1))
            want = eval_classical(Section(domain, d), base) / n
            if got != want:
                return SuiteResult(
                    "distributions", False, cases, f"Taylor duality at {nu},{indices}"
                )
        # annihilation of (order+1)-fold products of vanishing sections
        vanish = ex.EvenCoord(1) - ex.Const(base[0])
        power = ex.ONE
        for _ in range(order + 1):
            power = ex.Mul(power, vanish)
        dist_coeffs = {}
        for (nu, indices) in list(coeffs)[: min(3, len(coeffs))]:
            dist_coeffs[(nu, indices)] = rand_fraction(rng, 2)
        dist = make_distribution(domain, base, order, dist_coeffs)
        if pair_distribution(dist, Section(domain, power)) != 0:
            return SuiteResult("distributions", False, cases, "m^{k+1} not annihilated")
        cases += 1
    return SuiteResult("distributions", True, cases)


def suite_transitivity(seed, n=100):
    rng = random.Random(seed)
    cases = 0
    for i in range(n):
        analytic = i >= n // 2
        field = REAL if analytic else RATIONAL
        p = rng.randint(1, 2)
        q = rng.randint(0, 2)
        domain = SuperDomain(p, q)
        a = rng.choice(
            [
                make_truncated(1, q, 3, field),
                make_grassmann(q + 1, field) if q else make_truncated(1, 0, 2, field),
            ]
        )
        if a.l < q:
            a = make_truncated(a.k, q, a.s, field)
        b0 = rng.choice(
            [make_truncated(1, 0, 2, field), make_truncated(1, 0, 3, field)]
        )
        prod, _, _ = tensor(a, b0)
        x = rand_point(rng, domain, prod)
        s = rand_section(rng, domain, analytic)
        residual = check_transitivity(s, x, a, b0)
        tol = 1e-9 if analytic else 0.0
        if residual > tol:
            return SuiteResult("transitivity", False, cases, f"case {i}: residual {residual}")
        cases += 1
    return SuiteResult("transitivity", True, cases)


def suite_nat_checker(seed, n=50, order=3):
    rng = random.Random(seed)
    cases = 0
    values = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)]
    for i in range(n):
        p, q = rng.randint(1, 2), rng.randint(0, 2)
        m, nmo = rng.randint(1, 2), rng.randint(0, min(q, 1))
        sample_points = [
            tuple(rng.sample(values, p)) for _ in range(4)
        ]
        source = SuperDomain(p, q)
        target = SuperDomain(m, nmo)
        phi = rand_domain_morphism(rng, source, target)
        series = series_from_morphism(phi, order)
        report = check_comes_from_morphism(series, sample_points)
        if not report.passed:
            return SuiteResult("nat-checker", False, cases, f"false reject at case {i}")
        perturbed = _perturb_one_coefficient(rng, series)
        if perturbed is not None:
            report2 = check_comes_from_morphism(perturbed, sample_points)
            if report2.passed:
                return SuiteResult(
                    "nat-checker", False, cases, f"missed perturbation at case {i}"
                )
        cases += 1
    # the constant-pushforward shape: nonconstant base coefficient, zero others
    slots = [{((0,), ()): ex.int_pow(ex.EvenCoord(1), 2)}]
    fixture = TruncatedFormalSeries((1, 0), (1, 0), order, tuple(slots))
    report = check_comes_from_morphism(fixture, [(v,) for v in values])
    if report.passed:
        return SuiteResult("nat-checker", False, cases, "constant-pushforward accepted")
    return SuiteResult("nat-checker", True, cases + 1)


def _perturb_one_coefficient(rng, series):
    """Bump one coefficient with |nu| >= 1 by +1 (order-0 bumps stay morphisms)."""
    options = [
        (k, key)
        for k, cmap in enumerate(series.coeffs)
        for key in cmap
        if sum(key[0]) >= 1
    ]
    if not options:
        return None
    k, key = rng.choice(options)
    slots = [dict(cmap) for cmap in series.coeffs]
    slots[k][key] = ex.add(slots[k][key], ex.ONE)
    return TruncatedFormalSeries(
        series.source_dims, series.target_dims, series.order, tuple(slots)
    )


def suite_functoriality(seed, n=100):
    rng = random.Random(seed)
    cases = 0
    domain = SuperDomain(1, 2)
    a = make_truncated(1, 2, 3)
    b = make_truncated(1, 2, 3)
    c = make_truncated(1, 2, 2)
    for i in range(n):
        rho = rand_algebra_morphism(rng, a, b)
        sigma = rand_algebra_morphism(rng, b, c)
        x = rand_point(rng, domain, a)
        one_step = pushforward_algebra(
            sigma, pushforward_algebra(rho, x)
        )
        direct = pushforward_algebra(compose_morphisms(sigma, rho), x)
        if one_step != direct:
            return SuiteResult("functoriality", False, cases, f"composition case {i}")
        ident = pushforward_algebra(identity_morphism(a), x)
        if ident != x:
            return SuiteResult("functoriality", False, cases, "identity law")
        if one_step.base_point() != x.base_point():
            return SuiteResult("functoriality", False, cases, "base point moved")
        cases += 1
    return SuiteResult("functoriality", True, cases)


ALL_SUITES = (
    suite_algebra_laws,
    suite_structure_roundtrip,
    suite_homomorphism,
    suite_dual_path,
    suite_tangent_ad,
    suite_derivations,
    suite_distributions,
    suite_transitivity,
    suite_nat_checker,
    suite_functoriality,
)

DEFAULT_COUNTS = {
    "suite_algebra_laws": 1000,
    "suite_structure_roundtrip": 20,
    "suite_homomorphism": 500,
    "suite_dual_path": 500,
    "suite_tangent_ad": 200,
    "suite_derivations": 200,
    "suite_distributions": 60,
    "suite_transitivity": 100,
    "suite_nat_checker": 50,
    "suite_functoriality": 100,
}


def _run_one(args):
    fn_name, seed, count = args
    fn = globals()[fn_name]
    return fn(seed, count) if count is not None else fn(seed)


def run_all(seed=0, scale=1.0, jobs=1):
    """Run every suite; returns the list of SuiteResult, reproducible by seed."""
    tasks = []
    for idx, fn in enumerate(ALL_SUITES):
        count = DEFAULT_COUNTS.get(fn.__name__)
        if count is not None:
            count = max(int(count * scale), 4)
        tasks.append((fn.__name__, seed + idx * 7919, count))
    jobs = min(jobs, len(tasks), os.cpu_count() or 1)  # no idle or oversubscribed workers
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            return pool.map(_run_one, tasks)
    return [_run_one(t) for t in tasks]
