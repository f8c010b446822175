"""Superdomains and their symbolic sections.

A section is an expression tree in p even and q odd coordinates over an open
region of K^p.  The operations here are purely symbolic: super partial
derivatives (odd derivatives act from the left), the component normal form
s = sum_J s_J theta^J with even-only component functions, and classical
evaluation (all odd coordinates to zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import factorial

from . import expr as ex
from .algebra import merge_sign
from .errors import ParityError, RegionError
from .fields import Field, analytic_derivative, infer_field, scalar_pow


@dataclass(frozen=True)
class SuperDomain:
    """p|q coordinates over an open box in K^p, optionally cut by a predicate.

    Box entries are (lo, hi) pairs with lo < hi, or None for an unbounded
    axis; on the complex field the box constrains coordinate moduli.  The
    predicate receives the p-tuple of body values and must be cheap; it is
    consulted at evaluation time only.
    """

    p: int
    q: int
    box: tuple = None
    predicate: object = dataclass_field(default=None, compare=False)

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise RegionError("dimensions must be non-negative")
        if self.box is not None:
            if len(self.box) != self.p:
                raise RegionError("box must have one interval per even coordinate")
            for interval in self.box:
                if interval is None:
                    continue
                lo, hi = interval
                if lo is not None and hi is not None and not lo < hi:
                    raise RegionError(f"empty interval {interval} in region box")

    def contains(self, point, scalar_field: Field = None):
        if len(point) != self.p:
            return False
        if scalar_field is None:
            scalar_field = infer_field(point)
        if self.box is not None:
            for v, interval in zip(point, self.box):
                if interval is None:
                    continue
                lo, hi = interval
                if not scalar_field.in_interval(v, lo, hi):
                    return False
        if self.predicate is not None and not self.predicate(tuple(point)):
            return False
        return True

    def require_contains(self, point, scalar_field: Field = None):
        if not self.contains(point, scalar_field):
            raise RegionError(f"base point {tuple(point)} is outside the region")

    def same_dims(self, other):
        return self.p == other.p and self.q == other.q


@dataclass(frozen=True)
class Section:
    """A symbolic superfunction attached to a domain."""

    domain: SuperDomain
    expr: ex.Expr

    def __post_init__(self):
        p, q = ex.max_indices(self.expr)
        if p > self.domain.p or q > self.domain.q:
            raise RegionError(
                f"expression uses coordinates up to {p}|{q} but the domain is "
                f"{self.domain.p}|{self.domain.q}"
            )

    @property
    def parity(self):
        return self.expr.parity


def section(domain, text_or_expr):
    """Build a section from grammar text or an existing expression."""
    if isinstance(text_or_expr, str):
        return Section(domain, ex.parse_expr(text_or_expr, domain.p, domain.q))
    return Section(domain, text_or_expr)


# -- differentiation -------------------------------------------------------------


def derive_expr_even(e, i, memo=None):
    """Partial derivative along x_i, chain rule through analytic nodes.

    Each distinct inner node is derived once.  ``memo`` maps
    ``(id(node), i)`` to ``(node, derivative)``; pass one dict to several
    calls to share the derivatives across them (holding the node keeps its
    id from being reused while the entry lives).  Nodes are hash-consed, so
    a tower of derivatives built through one memo derives each distinct
    structure once.
    """
    return _derive_even(e, i, {} if memo is None else memo)


def _derive_even(n, i, memo):
    # leaves are cheap and skip the memo, as in expr.fold
    if isinstance(n, ex.EvenCoord):
        return ex.ONE if n.i == i else ex.ZERO
    if isinstance(n, (ex.OddCoord, ex.Const)):
        return ex.ZERO
    key = (id(n), i)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(n, ex.Add):
        d = ex.add(_derive_even(n.a, i, memo), _derive_even(n.b, i, memo))
    elif isinstance(n, ex.Mul):
        da, db = _derive_even(n.a, i, memo), _derive_even(n.b, i, memo)
        d = ex.add(ex.mul(da, n.b), ex.mul(n.a, db))
    elif isinstance(n, ex.Neg):
        d = ex.neg(_derive_even(n.a, i, memo))
    elif isinstance(n, ex.ScalarMul):
        d = ex.scalar_mul(n.c, _derive_even(n.a, i, memo))
    elif isinstance(n, ex.IntPow):
        d = ex.scalar_mul(n.n, ex.mul(ex.int_pow(n.a, n.n - 1), _derive_even(n.a, i, memo)))
    elif isinstance(n, ex.Apply):
        d = ex.mul(analytic_derivative(n.fn, 1, n.a, ex.Apply), _derive_even(n.a, i, memo))
    else:
        raise ex.unknown_node(n)
    memo[key] = (n, d)
    return d


def derive_expr_odd(e, j):
    """Left derivative along theta_j, via the component normal form."""
    comps = _components(e)
    bit = 1 << (j - 1)
    out = ex.ZERO
    for mask, coef in comps.items():
        if not mask & bit:
            continue
        position = bin(mask & (bit - 1)).count("1")  # thetas before j in ascending J
        term = ex.scalar_mul(Fraction((-1) ** position), coef)
        out = ex.add(out, _attach_odds(term, mask & ~bit))
    return out


def super_derive(s: Section, var):
    """Super partial derivative of a section along a coordinate node."""
    if isinstance(var, ex.EvenCoord):
        if not 1 <= var.i <= s.domain.p:
            raise RegionError(f"even coordinate x{var.i} not on the domain")
        return Section(s.domain, derive_expr_even(s.expr, var.i))
    if isinstance(var, ex.OddCoord):
        if not 1 <= var.j <= s.domain.q:
            raise RegionError(f"odd coordinate theta{var.j} not on the domain")
        return Section(s.domain, derive_expr_odd(s.expr, var.j))
    raise ParityError("derivative variable must be an EvenCoord or OddCoord")


# the key of mixed_partial's derivative memo in its cache, beside the (nu, J) keys
_DERIVE_MEMO = "derive"


def mixed_partial(cache, e, nu, indices=()):
    """d^nu (d^J e) for tuples nu and ascending J, memoized in ``cache``.

    One cache serves one expression ``e``.  Odd derivatives apply first, in
    ascending order; then each even step peels the first nonzero entry of nu,
    so every entry is one derivative of an entry already in the cache.  The
    cache also holds the node memo its even steps share (see
    :func:`derive_expr_even`).
    """
    key = (nu, indices)
    out = cache.get(key)
    if out is None:
        if any(nu):
            i = next(idx for idx, v in enumerate(nu) if v)
            parent = nu[:i] + (nu[i] - 1,) + nu[i + 1 :]
            memo = cache.setdefault(_DERIVE_MEMO, {})
            out = derive_expr_even(mixed_partial(cache, e, parent, indices), i + 1, memo)
        elif indices:
            out = derive_expr_odd(mixed_partial(cache, e, nu, indices[:-1]), indices[-1])
        else:
            out = e
        cache[key] = out
    return out


def taylor_terms(e, nus, js=((),)):
    """{(nu, J): (d^nu d^J e, nu!)}, J outer and nu inner, with one
    :func:`mixed_partial` cache for all terms; syntactic zeros are left out."""
    cache, out = {}, {}
    for indices in js:
        for nu in nus:
            d = mixed_partial(cache, e, nu, indices)
            if not ex.is_zero_const(d):
                out[(nu, indices)] = (d, factorial_multi(nu))
    return out


def factorial_multi(nu):
    out = 1
    for v in nu:
        out *= factorial(v)
    return out


def d_even(s, i):
    return super_derive(s, ex.EvenCoord(i))


def d_odd(s, j):
    return super_derive(s, ex.OddCoord(j))


# -- component normal form ---------------------------------------------------------


def _attach_odds(coef, mask):
    out = coef
    for j in mask_to_indices(mask):
        out = ex.mul(out, ex.OddCoord(j))
    return out


def _components(e):
    """{odd mask: even-only Expr}; products push thetas right with merge signs."""

    def visit(n, *comps):
        if isinstance(n, ex.OddCoord):
            return {1 << (n.j - 1): ex.ONE}
        if isinstance(n, (ex.EvenCoord, ex.Const)):
            return {0: n} if not ex.is_zero_const(n) else {}
        if isinstance(n, ex.Add):
            out = dict(comps[0])
            for mask, coef in comps[1].items():
                out[mask] = ex.add(out[mask], coef) if mask in out else coef
            return out
        if isinstance(n, ex.Neg):
            return {m: ex.neg(c) for m, c in comps[0].items()}
        if isinstance(n, ex.ScalarMul):
            return {m: ex.scalar_mul(n.c, c) for m, c in comps[0].items()}
        if isinstance(n, ex.Mul):
            return _mul_components(*comps)
        if isinstance(n, ex.IntPow):
            out = {0: ex.ONE}
            for _ in range(n.n):
                out = _mul_components(out, comps[0])
            return out
        if not isinstance(n, ex.Apply):
            raise ex.unknown_node(n)
        base = comps[0].get(0, ex.ZERO)
        nil = {m: c for m, c in comps[0].items() if m}
        # f(base + n) with n nilpotent: truncated Taylor series in n; every
        # term of n holds >= 2 odd coordinates, so n^(floor(q/2)+1) = 0
        out = {0: ex.Apply(n.fn, base)}
        power = {0: ex.ONE}
        k = 1
        inv_fact = Fraction(1)
        while True:
            power = _mul_components(power, nil)
            if not power:
                return out
            inv_fact /= k
            deriv = analytic_derivative(n.fn, k, base, ex.Apply)
            for mask, coef in power.items():
                term = ex.scalar_mul(inv_fact, ex.mul(deriv, coef))
                out[mask] = ex.add(out[mask], term) if mask in out else term
            k += 1

    return ex.fold(e, visit)


def _mul_components(ca, cb):
    out = {}
    for ma, fa in ca.items():
        for mb, fb in cb.items():
            if ma & mb:
                continue
            sign = merge_sign(ma, mb)
            term = ex.mul(fa, fb)
            if sign < 0:
                term = ex.neg(term)
            mask = ma | mb
            out[mask] = ex.add(out[mask], term) if mask in out else term
    return out


def mask_to_indices(mask):
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def indices_to_mask(indices):
    mask = 0
    for j in indices:
        mask |= 1 << (j - 1)
    return mask


def normalize_components(s: Section):
    """Map from ascending odd index tuples J to even-only component expressions.

    Reconstructing sum_J s_J theta^J gives a section semantically equal to s;
    syntactically-zero components are dropped.
    """
    out = {}
    for mask, coef in _components(s.expr).items():
        if not ex.is_zero_const(coef):
            out[mask_to_indices(mask)] = coef
    return out


def components_to_expr(components):
    """Rebuild sum_J s_J theta^J from a component map keyed by index tuples."""
    out = ex.ZERO
    for indices, coef in sorted(components.items()):
        out = ex.add(out, _attach_odds(coef, indices_to_mask(indices)))
    return out


# -- classical evaluation -----------------------------------------------------------


def eval_expr_classical(e, point, scalar_field, memo=None):
    """Evaluate with all odd coordinates at zero (the body of the section).

    ``memo`` is :func:`expr.fold`'s: pass one dict to evaluations at the same
    point and field to evaluate each distinct node once across them, while
    the caller keeps every evaluated expression alive.
    """

    def visit(n, *v):
        if isinstance(n, ex.Const):
            return scalar_field.coerce(n.value)
        if isinstance(n, ex.EvenCoord):
            return scalar_field.coerce(point[n.i - 1])
        if isinstance(n, ex.OddCoord):
            return scalar_field.zero
        if isinstance(n, ex.Add):
            return v[0] + v[1]
        if isinstance(n, ex.Mul):
            return v[0] * v[1]
        if isinstance(n, ex.Neg):
            return -v[0]
        if isinstance(n, ex.ScalarMul):
            return scalar_field.coerce(n.c) * v[0]
        if isinstance(n, ex.IntPow):
            return scalar_pow(v[0], n.n)
        if isinstance(n, ex.Apply):
            return scalar_field.function_value(n.fn, v[0])
        raise ex.unknown_node(n)

    return ex.fold(e, visit, memo)


def eval_classical(s: Section, point, scalar_field: Field = None):
    """Value of the empty-odd component at a region point."""
    if scalar_field is None:
        scalar_field = infer_field(point)
    point = tuple(scalar_field.coerce(v) for v in point)
    s.domain.require_contains(point, scalar_field)
    return eval_expr_classical(s.expr, point, scalar_field)
