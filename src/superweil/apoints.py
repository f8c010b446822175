"""Points of a superdomain with coordinates in a super Weil algebra.

A point assigns an even algebra element to every even coordinate and an odd
element to every odd coordinate, with the tuple of bodies inside the region.
Evaluation of a section at such a point is a superalgebra morphism; two
independent implementations are provided:

* :func:`eval_ast` walks the expression tree inside the algebra, lifting
  analytic nodes through truncated Taylor series on their nilpotent part;
* :func:`eval_taylor` expands the section into components, differentiates
  them symbolically to all contributing orders, evaluates at the base point
  and contracts with soul powers and odd values.

Their agreement is the central cross-check of the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from . import expr as ex
from .algebra import EVEN, ODD, ZERO, AlgebraMorphism, SuperWeilAlgebra, as_element
from .errors import AlgebraError, ParityError, RegionError
from .fields import analytic_derivative
from .superfunc import (
    Section,
    SuperDomain,
    eval_expr_classical,
    indices_to_mask,
    normalize_components,
    section,
    taylor_terms,
)


@dataclass(frozen=True)
class APoint:
    domain: SuperDomain
    algebra: SuperWeilAlgebra
    even_vals: tuple
    odd_vals: tuple

    def base_point(self):
        return tuple(v.body() for v in self.even_vals)

    def souls(self):
        return tuple(v.soul() for v in self.even_vals)


def make_apoint(domain, algebra, even_vals, odd_vals):
    """The unique point with the given coordinate images (validated)."""
    if len(even_vals) != domain.p or len(odd_vals) != domain.q:
        raise AlgebraError(
            f"need {domain.p} even and {domain.q} odd values, got "
            f"{len(even_vals)}|{len(odd_vals)}"
        )
    even_vals = tuple(as_element(algebra, v) for v in even_vals)
    odd_vals = tuple(as_element(algebra, v) for v in odd_vals)
    for v in even_vals:
        if v.parity() not in (EVEN, ZERO):
            raise ParityError("even coordinate value must be an even element")
    for v in odd_vals:
        if v.parity() not in (ODD, ZERO):
            raise ParityError("odd coordinate value must be an odd element")
    base = tuple(v.body() for v in even_vals)
    domain.require_contains(base, algebra.field)
    return APoint(domain, algebra, even_vals, odd_vals)


def base_point(x: APoint):
    return x.base_point()


def trivial_point(domain, base, algebra):
    """The point with scalar coordinates (all souls and odd values zero)."""
    return make_apoint(
        domain,
        algebra,
        [algebra.scalar(b) for b in base],
        [algebra.zero()] * domain.q,
    )


# -- tree-walking evaluation ----------------------------------------------------


def analytic_lift(fn, a):
    """f(body + soul) = sum f^(n)(body)/n! soul^n, truncated by nilpotency:
    soul^s = 0 in a degree-s truncation."""
    algebra = a.algebra
    field = algebra.field
    if a.parity() not in (EVEN, ZERO):
        raise ParityError(f"{fn} needs an even algebra element")
    body = a.body()
    soul = a.soul()
    out = algebra.scalar(analytic_derivative(fn, 0, body, field.function_value))
    power = algebra.one()
    for n in range(1, algebra.s):
        power = power * soul
        if power.is_zero():
            break
        coef = analytic_derivative(fn, n, body, field.function_value) / field.coerce(factorial(n))
        out = out + power.scale(coef)
    return out


def eval_ast(x: APoint, s: Section):
    """Evaluate a section by substituting coordinates and reducing in the algebra."""
    if not x.domain.same_dims(s.domain):
        raise RegionError("section and point live on different domains")
    return _eval_node(s.expr, x)


def _eval_node(e, x):
    def visit(n, *v):
        if isinstance(n, ex.Const):
            return x.algebra.scalar(n.value)
        if isinstance(n, ex.EvenCoord):
            return x.even_vals[n.i - 1]
        if isinstance(n, ex.OddCoord):
            return x.odd_vals[n.j - 1]
        if isinstance(n, ex.Add):
            return v[0] + v[1]
        if isinstance(n, ex.Mul):
            return v[0] * v[1]
        if isinstance(n, ex.Neg):
            return -v[0]
        if isinstance(n, ex.ScalarMul):
            return v[0].scale(n.c)
        if isinstance(n, ex.IntPow):
            return v[0] ** n.n
        if isinstance(n, ex.Apply):
            if n.fn == "reciprocal":
                return v[0].inverse()
            return analytic_lift(n.fn, v[0])
        raise ex.unknown_node(n)

    return ex.fold(e, visit)


# -- formal Taylor evaluation -----------------------------------------------------


def soul_power_table(x: APoint):
    """Nonzero products soul^nu, indexed by the even multi-exponent nu."""
    algebra = x.algebra
    souls = x.souls()
    p = len(souls)
    table = {(0,) * p: algebra.one()}
    frontier = dict(table)
    while frontier:
        new_frontier = {}
        for nu, value in frontier.items():
            for i in range(p):
                if any(nu[j] for j in range(i)):
                    continue  # grow exponents leftmost-first, once per nu
                bumped = tuple(v + 1 if j == i else v for j, v in enumerate(nu))
                if bumped in table:
                    continue
                prod = souls[i] * value
                if not prod.is_zero():
                    new_frontier[bumped] = prod
        table.update(new_frontier)
        frontier = new_frontier
    return table


def odd_value_products(x: APoint):
    """Nonzero ascending products of odd coordinate values, keyed by index mask."""
    algebra = x.algebra
    out = {0: algebra.one()}
    for j, val in enumerate(x.odd_vals, start=1):
        bit = 1 << (j - 1)
        for mask, prod in list(out.items()):
            newprod = prod * val
            if not newprod.is_zero():
                out[mask | bit] = newprod
    return out


def eval_taylor(x: APoint, s: Section):
    """The section's Taylor series at the base point, contracted.

    x(s) = sum over nu, J of (1/nu!) (d^nu s_J)(base) * soul^nu * theta^J,
    with s_J the even components of s and theta^J the ascending product of
    the odd coordinate values.  Finite because souls and odd values are
    nilpotent.  Must agree with :func:`eval_ast`.
    """
    if not x.domain.same_dims(s.domain):
        raise RegionError("section and point live on different domains")
    x.domain.require_contains(x.base_point(), x.algebra.field)
    souls = soul_power_table(x)
    odds = odd_value_products(x)
    nus = sorted(souls, key=sum)
    terms = {
        (nu, indices): term
        for indices, comp in normalize_components(s).items()
        if indices_to_mask(indices) in odds
        for (nu, _), term in taylor_terms(comp, nus).items()
    }
    # the term map keeps every evaluated root alive, so one memo serves it
    return contract_terms(x, terms, souls, odds, {})


def contract_terms(x: APoint, terms, souls, odds, values):
    """sum of (t(base) / n) * soul^nu * theta^J over a {(nu, J): (Expr t, int n)}
    term map, given x's soul and odd tables and a classical-value memo; a term
    whose soul power or odd product vanishes is not evaluated."""
    field = x.algebra.field
    base = x.base_point()
    out = x.algebra.zero()
    for (nu, indices), (e, n) in terms.items():
        sp = souls.get(nu)
        op = odds.get(indices_to_mask(indices))
        if sp is None or op is None:
            continue
        value = eval_expr_classical(e, base, field, values)
        if not field.is_zero(value):
            out = out + (sp * op).scale(value / field.coerce(n))
    return out


# -- the functor on algebra morphisms ----------------------------------------------


def pushforward_algebra(rho: AlgebraMorphism, x: APoint):
    """Map a point through an algebra morphism coordinate-wise."""
    if x.algebra != rho.source:
        raise AlgebraError("point algebra does not match the morphism source")
    return make_apoint(
        x.domain,
        rho.target,
        [rho(v) for v in x.even_vals],
        [rho(v) for v in x.odd_vals],
    )


# -- superdomain morphisms ----------------------------------------------------------


@dataclass(frozen=True)
class DomainMorphism:
    """A map of superdomains given by the pullbacks of target coordinates."""

    source: SuperDomain
    target: SuperDomain
    pullbacks: tuple  # m even sections then n odd sections, all on source


def make_domain_morphism(source, target, pullbacks):
    pulls = []
    for k, pb in enumerate(pullbacks):
        if not isinstance(pb, Section):
            pb = section(source, pb)
        if not pb.domain.same_dims(source):
            raise RegionError("pullback section lives on the wrong domain")
        want = EVEN if k < target.p else ODD
        if pb.parity != want and not ex.is_zero_const(pb.expr):
            raise ParityError(
                f"pullback {k + 1} must be {want}, got {pb.parity}"
            )
        pulls.append(pb)
    if len(pulls) != target.p + target.q:
        raise AlgebraError(
            f"need {target.p}+{target.q} pullbacks, got {len(pulls)}"
        )
    return DomainMorphism(source, target, tuple(pulls))


def identity_domain_morphism(domain):
    pulls = [ex.EvenCoord(i) for i in range(1, domain.p + 1)]
    pulls += [ex.OddCoord(j) for j in range(1, domain.q + 1)]
    return make_domain_morphism(domain, domain, pulls)


def apply_morphism_to_point(phi: DomainMorphism, x: APoint):
    """Image point: evaluate every pullback at x; the image base must land in
    the target region (checked here, per evaluated point)."""
    if not x.domain.same_dims(phi.source):
        raise RegionError("point is not on the morphism's source domain")
    values = [eval_ast(x, pb) for pb in phi.pullbacks]
    m = phi.target.p
    try:
        return make_apoint(phi.target, x.algebra, values[:m], values[m:])
    except RegionError as exc:
        raise RegionError(f"image condition violated: {exc}") from exc


def compose_domain_morphisms(outer: DomainMorphism, inner: DomainMorphism):
    """outer ∘ inner by symbolic substitution (apply ``inner`` first)."""
    if not inner.target.same_dims(outer.source):
        raise RegionError("morphisms are not composable")
    even_map = {i + 1: inner.pullbacks[i].expr for i in range(outer.source.p)}
    odd_map = {
        j + 1: inner.pullbacks[outer.source.p + j].expr for j in range(outer.source.q)
    }
    pulls = [
        ex.substitute(pb.expr, even_map, odd_map) for pb in outer.pullbacks
    ]
    return make_domain_morphism(inner.source, outer.target, pulls)


# -- products -------------------------------------------------------------------------


def product_domain(u: SuperDomain, v: SuperDomain):
    box = None
    if u.box is not None or v.box is not None:
        left = u.box if u.box is not None else (None,) * u.p
        right = v.box if v.box is not None else (None,) * v.p
        box = tuple(left) + tuple(right)
    predicate = None
    if u.predicate is not None or v.predicate is not None:
        pu, pv, cut = u.predicate, v.predicate, u.p

        def predicate(pt):
            if pu is not None and not pu(pt[:cut]):
                return False
            return pv is None or pv(pt[cut:])

    return SuperDomain(u.p + v.p, u.q + v.q, box, predicate)


def product_point(x: APoint, y: APoint):
    """Concatenate coordinates; evaluation factors across the two blocks."""
    if x.algebra != y.algebra:
        raise AlgebraError("product points need a common algebra")
    return make_apoint(
        product_domain(x.domain, y.domain),
        x.algebra,
        x.even_vals + y.even_vals,
        x.odd_vals + y.odd_vals,
    )


def split_point(z: APoint, u: SuperDomain, v: SuperDomain):
    """Inverse of :func:`product_point` for the given factor domains."""
    if z.domain.p != u.p + v.p or z.domain.q != u.q + v.q:
        raise RegionError("point dimensions do not split as requested")
    x = make_apoint(u, z.algebra, z.even_vals[: u.p], z.odd_vals[: u.q])
    y = make_apoint(v, z.algebra, z.even_vals[u.p :], z.odd_vals[u.q :])
    return x, y
