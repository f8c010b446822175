"""Differential calculus through algebra-valued points.

Tangent vectors ride on the three-dimensional algebra K[t,z]/<t^2, tz, z^2>
(one even and one odd direction, products of directions vanish); derivations
at a point pair coefficient lists with super partial derivatives; point
supported distributions pair Taylor coefficients extracted at the tautological
point over a degree-truncated polynomial algebra.  The transitivity check
re-associates a tensor point into an inner evaluation followed by an outer
nilpotent Taylor expansion and compares with the direct evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    EVEN,
    ODD,
    ZERO,
    AlgebraElement,
    Monomial,
    SuperWeilAlgebra,
    as_element,
    make_super_dual_numbers,
    make_truncated,
    tensor,
)
from .apoints import APoint, eval_ast, make_apoint, odd_value_products, soul_power_table
from .errors import AlgebraError, ParityError, RegionError
from .fields import RATIONAL, Field, infer_field
from .superfunc import (
    Section,
    SuperDomain,
    derive_expr_even,
    derive_expr_odd,
    eval_classical,
    factorial_multi,
    indices_to_mask,
    mask_to_indices,
    taylor_terms,
)


@dataclass(frozen=True)
class TangentVector:
    """A base point with p even and q odd direction components."""

    domain: SuperDomain
    base: tuple
    v_even: tuple
    v_odd: tuple

    def __post_init__(self):
        if len(self.base) != self.domain.p:
            raise RegionError("base point has the wrong number of coordinates")
        if len(self.v_even) != self.domain.p or len(self.v_odd) != self.domain.q:
            raise RegionError("direction components do not match the domain")
        self.domain.require_contains(self.base)


def tangent_algebra(field: Field = RATIONAL):
    return make_super_dual_numbers(field)


def tangent_to_point(tv: TangentVector, field: Field = None) -> APoint:
    """x_i -> base_i + v_i t and theta_j -> w_j z over K[t,z]/<t^2,tz,z^2>."""
    if field is None:
        field = infer_field(tuple(tv.base) + tuple(tv.v_even) + tuple(tv.v_odd))
    algebra = tangent_algebra(field)
    t = algebra.gen_even(1)
    z = algebra.gen_odd(1)
    even_vals = [algebra.scalar(b) + t.scale(v) for b, v in zip(tv.base, tv.v_even)]
    odd_vals = [z.scale(w) for w in tv.v_odd]
    return make_apoint(tv.domain, algebra, even_vals, odd_vals)


def point_to_tangent(x: APoint) -> TangentVector:
    """Inverse of :func:`tangent_to_point`; requires exactly the tangent algebra."""
    expected = tangent_algebra(x.algebra.field)
    if x.algebra != expected:
        raise AlgebraError("point is not over the super-dual-number algebra")
    t = Monomial((1,), 0)
    z = Monomial((0,), 1)
    return TangentVector(
        x.domain,
        tuple(v.body() for v in x.even_vals),
        tuple(v.coefficient(t) for v in x.even_vals),
        tuple(v.coefficient(z) for v in x.odd_vals),
    )


def tangent_eval(s: Section, tv: TangentVector, field: Field = None):
    """(value, even directional derivative, odd directional derivative)."""
    x = tangent_to_point(tv, field)
    v = eval_ast(x, s)
    return (
        v.body(),
        v.coefficient(Monomial((1,), 0)),
        v.coefficient(Monomial((0,), 1)),
    )


def finite_difference_tangent(s: Section, base, direction, h):
    """Central difference of the body component; the oracle for tangent AD."""
    if len(direction) != s.domain.p:
        raise RegionError("direction must have one component per even coordinate")
    plus = tuple(b + h * d for b, d in zip(base, direction))
    minus = tuple(b - h * d for b, d in zip(base, direction))
    fp = eval_classical(s, plus)
    fm = eval_classical(s, minus)
    return (fp - fm) / (2 * h)


# -- derivations -----------------------------------------------------------------


@dataclass(frozen=True)
class Derivation:
    """Coefficients (f_i, F_j) of a derivation over the evaluation at a point.

    An even derivation has even f_i and odd F_j; an odd one the opposite.
    """

    at: APoint
    f_even: tuple
    f_odd: tuple
    parity: str

    def __post_init__(self):
        if len(self.f_even) != self.at.domain.p or len(self.f_odd) != self.at.domain.q:
            raise AlgebraError("coefficient counts do not match the domain")
        if self.parity not in (EVEN, ODD):
            raise ParityError("derivation parity must be 'even' or 'odd'")
        want_f = EVEN if self.parity == EVEN else ODD
        want_g = ODD if self.parity == EVEN else EVEN
        for c in self.f_even:
            if c.parity() not in (want_f, ZERO):
                raise ParityError(f"{self.parity} derivation needs {want_f} f_i")
        for c in self.f_odd:
            if c.parity() not in (want_g, ZERO):
                raise ParityError(f"{self.parity} derivation needs {want_g} F_j")


def make_derivation(at: APoint, f_even, f_odd, parity):
    f_even = tuple(as_element(at.algebra, c) for c in f_even)
    f_odd = tuple(as_element(at.algebra, c) for c in f_odd)
    return Derivation(at, f_even, f_odd, parity)


def derivation_apply(d: Derivation, s: Section):
    """sum_i f_i x(ds/dx_i) + sum_j F_j x(ds/dtheta_j)."""
    if not d.at.domain.same_dims(s.domain):
        raise RegionError("section is not on the derivation's domain")
    x = d.at
    out = x.algebra.zero()
    for i, coef in enumerate(d.f_even, start=1):
        if coef.is_zero():
            continue
        out = out + coef * eval_ast(x, Section(s.domain, derive_expr_even(s.expr, i)))
    for j, coef in enumerate(d.f_odd, start=1):
        if coef.is_zero():
            continue
        out = out + coef * eval_ast(x, Section(s.domain, derive_expr_odd(s.expr, j)))
    return out


# -- point supported distributions --------------------------------------------------


@dataclass(frozen=True)
class Distribution:
    """Finite combination sum a_{nu,J} ev_base d^nu/dx^nu d^J/dtheta^J.

    Coefficient keys are (nu tuple, ascending J tuple) with |nu|+|J| <= order.
    The odd block d^J applies left derivatives in ascending index order (first
    index innermost), matching the coefficient extraction at the tautological
    point.
    """

    domain: SuperDomain
    base: tuple
    order: int
    coeffs: tuple  # tuple of ((nu, J), scalar) pairs, canonically sorted


def make_distribution(domain, base, order, coeffs):
    if order < 0:
        raise AlgebraError("distribution order must be >= 0")
    domain.require_contains(base)
    items = []
    for (nu, indices), a in dict(coeffs).items():
        nu = tuple(nu)
        indices = tuple(indices)
        if len(nu) != domain.p:
            raise AlgebraError("multi-exponent length must equal the even dimension")
        if any(v < 0 for v in nu):
            raise AlgebraError("multi-exponent entries must be >= 0")
        if list(indices) != sorted(set(indices)) or any(
            not 1 <= j <= domain.q for j in indices
        ):
            raise AlgebraError("odd index tuples must be ascending and in range")
        if sum(nu) + len(indices) > order:
            raise AlgebraError("coefficient exceeds the distribution order")
        items.append(((nu, indices), a))
    return Distribution(domain, tuple(base), order, tuple(sorted(items)))


def tautological_point(domain, base, order, field: Field = RATIONAL) -> APoint:
    """(base_i + t_i, z_j) over the degree-(order+1) truncated algebra.

    Evaluating a section there lays out its scaled Taylor coefficients: the
    coefficient of t^nu z^J is (1/nu!) d^nu d^J s at the base.
    """
    algebra = make_truncated(domain.p, domain.q, order + 1, field)
    even = [algebra.scalar(b) + algebra.gen_even(i + 1) for i, b in enumerate(base)]
    odd = [algebra.gen_odd(j + 1) for j in range(domain.q)]
    return make_apoint(domain, algebra, even, odd)


def taylor_coefficient_map(s: Section, base, order, field: Field = RATIONAL):
    """{(nu, J): coefficient} of the tautological evaluation up to the order."""
    y = tautological_point(s.domain, base, order, field)
    value = eval_ast(y, s)
    out = {}
    for m, c in value.coeffs.items():
        out[(m.nu, m.odd_indices())] = c
    return out


def pair_distribution(dist: Distribution, s: Section, field: Field = None):
    """Apply the distribution to a section: sum a_{nu,J} nu! * taylor coeff."""
    if not dist.domain.same_dims(s.domain):
        raise RegionError("section is not on the distribution's domain")
    if field is None:
        field = infer_field(dist.base)
    coeffs = taylor_coefficient_map(s, dist.base, dist.order, field)
    total = field.zero
    for (nu, indices), a in dist.coeffs:
        c = coeffs.get((nu, indices))
        if c is None:
            continue
        total = total + field.coerce(a) * field.coerce(factorial_multi(nu)) * c
    return total


def functional_through_point(omega, x: APoint, s: Section):
    """omega(x(s)) for a linear functional over the algebra's quotient basis."""
    algebra = x.algebra
    field = algebra.field
    if isinstance(omega, dict):
        weights = omega
    else:
        if len(omega) != algebra.dim:
            raise AlgebraError("functional length does not match the algebra dimension")
        weights = dict(zip(algebra.quotient_basis, omega))
    for m in weights:
        if m not in algebra.basis_index:
            raise AlgebraError("functional refers to a monomial outside the basis")
    value = eval_ast(x, s)
    total = field.zero
    for m, w in weights.items():
        total = total + field.coerce(w) * value.coefficient(m)
    return total


# -- transitivity ----------------------------------------------------------------------


def transitivity_point(domain, a, b0, even_vals, odd_vals):
    """A point over the tensor of a super Weil algebra with a purely even one."""
    if b0.l != 0 or not b0.is_purely_even():
        raise AlgebraError("the outer factor must be a purely even algebra")
    prod, _, _ = tensor(a, b0)
    return make_apoint(domain, prod, even_vals, odd_vals)


def _split_tensor_elements(values, a: SuperWeilAlgebra):
    """Split each v in A ⊗ B0 into its pure-A part and its part with B0
    exponents; returns the two tuples."""
    pure, carrying = [], []
    for v in values:
        inner, outer = {}, {}
        for m, c in v.coeffs.items():
            (outer if any(m.nu[a.k :]) else inner)[m] = c
        pure.append(AlgebraElement(v.algebra, inner))
        carrying.append(AlgebraElement(v.algebra, outer))
    return tuple(pure), tuple(carrying)


def check_transitivity(s: Section, x: APoint, a: SuperWeilAlgebra, b0: SuperWeilAlgebra):
    """Residual between direct evaluation and the re-associated two-stage one.

    Direct: evaluate s at the tensor point.  Two-stage: split every
    coordinate into its inner part (no outer exponents) and the rest, view the
    inner parts as a point y, then Taylor-expand in the outer-carrying
    increments:  sum (1/nu!) y(d^nu d^J s) * d^nu * e^J.  Zero exactly on
    exact scalars, tiny on floats.
    """
    if b0.l != 0:
        raise AlgebraError("the outer factor must be a purely even algebra")
    prod, _, _ = tensor(a, b0)
    if x.algebra != prod:
        raise AlgebraError("point is not over the tensor of the given factors")
    field = prod.field
    direct = eval_ast(x, s)

    inner_even, delta_even = _split_tensor_elements(x.even_vals, a)
    inner_odd, delta_odd = _split_tensor_elements(x.odd_vals, a)
    y = make_apoint(x.domain, prod, inner_even, inner_odd)

    delta_point = APoint(x.domain, prod, delta_even, delta_odd)
    soul_powers = soul_power_table(delta_point)  # delta_even are nilpotent and even
    odd_products = odd_value_products(delta_point)
    js = sorted(map(mask_to_indices, odd_products), key=lambda c: (len(c), c))
    staged = prod.zero()
    for (nu, indices), (d, n) in taylor_terms(s.expr, sorted(soul_powers, key=sum), js).items():
        inner_value = eval_ast(y, Section(s.domain, d))
        if inner_value.is_zero():
            continue
        # odd increments multiply from the left: expanding theta_j -> w+e
        # factors the evaluation as (w+e) * eval(rest), so e^J precedes
        # the evaluated derivative (the even block commutes)
        odd_prod = odd_products[indices_to_mask(indices)]
        term = odd_prod * inner_value * soul_powers[nu]
        staged = staged + term.scale(field.coerce(1) / field.coerce(n))
    return (direct - staged).norm()
