"""Truncated coefficient series for families of point maps.

A series stores, for every target slot, coefficient functions f^k_{nu,J} of
the even source variables, kept up to a truncation order N in |nu|.  Those
coming from an actual superdomain morphism have Taylor-coupled coefficients:
d_i f_{nu,J} = (nu_i + 1) f_{nu+delta_i,J}.  The checker evaluates that
recursion at sample points; a clean report is necessary but not sufficient
evidence of a morphism origin (finitely many points, finite order), which the
report states explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .algebra import exponents_up_to
from .apoints import APoint, DomainMorphism, contract_terms, odd_value_products, soul_power_table
from .errors import AlgebraError, EvaluationError, ParityError, RegionError
from .fields import Field, infer_field
from .superfunc import (
    derive_expr_even,
    eval_expr_classical,
    normalize_components,
    taylor_terms,
)

NECESSITY_NOTE = (
    "a passing report is necessary but not sufficient: the recursion was "
    "checked at finitely many sample points up to a finite order"
)


@dataclass(frozen=True)
class TruncatedFormalSeries:
    """Coefficient family for a map of point sets between two superdomains.

    ``coeffs[k]`` maps (nu, J) to an even expression in the p source
    variables; slot k < m is even (|J| even), slot k >= m odd (|J| odd).
    """

    source_dims: tuple  # (p, q)
    target_dims: tuple  # (m, n)
    order: int
    coeffs: tuple  # one {(nu, J): Expr} per target slot

    def __post_init__(self):
        p, q = self.source_dims
        m, n = self.target_dims
        if len(self.coeffs) != m + n:
            raise AlgebraError(f"need {m + n} coefficient maps, got {len(self.coeffs)}")
        for k, cmap in enumerate(self.coeffs):
            for (nu, indices) in cmap:
                if len(nu) != p or sum(nu) > self.order:
                    raise AlgebraError(
                        f"slot {k + 1}: multi-exponent {nu} outside the truncation"
                    )
                if any(not 1 <= j <= q for j in indices) or list(indices) != sorted(
                    set(indices)
                ):
                    raise AlgebraError(f"slot {k + 1}: bad odd index tuple {indices}")
                want = 0 if k < m else 1
                if len(indices) % 2 != want:
                    raise ParityError(
                        f"slot {k + 1} is {'even' if want == 0 else 'odd'} but "
                        f"holds a |J|={len(indices)} coefficient"
                    )
            for e in cmap.values():
                ep, eq = ex.max_indices(e)
                if eq or ep > p:
                    raise AlgebraError(
                        "coefficient expressions must use even source variables only"
                    )

    def coefficient(self, k, nu, indices):
        """f^k_{nu,J} (1-based slot), zero expression when absent."""
        return self.coeffs[k - 1].get((tuple(nu), tuple(indices)), ex.ZERO)


def series_from_morphism(phi: DomainMorphism, order: int) -> TruncatedFormalSeries:
    """Taylor coefficients (1/nu!) d^nu s_{k,J} of each pullback component."""
    p, q = phi.source.p, phi.source.q
    m, n = phi.target.p, phi.target.q
    nus = tuple(exponents_up_to(p, order))
    slots = tuple(
        {
            (nu, indices): ex.scalar_mul(Fraction(1, fact), d)
            for indices, comp in normalize_components(pb).items()
            for (nu, _), (d, fact) in taylor_terms(comp, nus).items()
        }
        for pb in phi.pullbacks
    )
    return TruncatedFormalSeries((p, q), (m, n), order, slots)


def apply_series(series: TruncatedFormalSeries, x: APoint):
    """Evaluate the series at a point: sum f_{nu,J}(base) soul^nu theta^J per slot.

    The algebra height must not exceed the truncation order, otherwise dropped
    coefficients would corrupt the result.
    """
    p, q = series.source_dims
    if x.domain.p != p or x.domain.q != q:
        raise RegionError("point dimensions do not match the series source")
    if x.algebra.height() > series.order:
        raise AlgebraError(
            f"algebra height {x.algebra.height()} exceeds the truncation order "
            f"{series.order}"
        )
    souls = soul_power_table(x)
    odds = odd_value_products(x)
    # the series keeps every evaluated root alive, so one memo serves it
    values = {}
    return [
        contract_terms(x, {key: (e, 1) for key, e in cmap.items()}, souls, odds, values)
        for cmap in series.coeffs
    ]


@dataclass(frozen=True)
class Violation:
    slot: int
    direction: int
    nu: tuple
    indices: tuple
    point: tuple
    residual: object
    note: str = ""

    def to_json(self):
        return {
            "slot": self.slot,
            "direction": self.direction,
            "nu": list(self.nu),
            "J": list(self.indices),
            "point": [str(v) if isinstance(v, Fraction) else v for v in self.point],
            "residual": None
            if self.residual is None
            else (str(self.residual) if isinstance(self.residual, Fraction) else self.residual),
            "note": self.note,
        }


@dataclass(frozen=True)
class CheckReport:
    order: int
    checked: int
    violations: tuple
    note: str = NECESSITY_NOTE

    @property
    def passed(self):
        return not self.violations

    def to_json(self):
        return {
            "passed": self.passed,
            "order": self.order,
            "checked": self.checked,
            "violations": [v.to_json() for v in self.violations],
            "note": self.note,
        }


def check_comes_from_morphism(
    series: TruncatedFormalSeries, sample_points, tol=0.0, scalar_field: Field = None
) -> CheckReport:
    """Test d_i f_{nu,J} = (nu_i+1) f_{nu+delta_i,J} at the sample points.

    Every (slot, i, nu, J) with |nu| < order where either side is present is
    evaluated at each point; non-evaluable coefficients are flagged rather
    than fatal.  A residual of norm above ``tol``, a non-negative number, is
    a violation.  An empty violation list is consistency evidence only (see
    the report note).
    """
    if not tol >= 0:  # a NaN tolerance would pass every residual
        raise AlgebraError(f"tolerance {tol!r} is not a non-negative number")
    if scalar_field is None:
        scalar_field = infer_field([v for pt in sample_points for v in pt])
    p, q = series.source_dims
    for point in sample_points:
        if len(point) != p:
            raise AlgebraError(
                f"sample point {tuple(point)} does not have {p} coordinates"
            )
    violations = []
    checked = 0
    for k, cmap in enumerate(series.coeffs, start=1):
        keys = set(cmap)
        targets = set()
        for (nu, indices) in keys:
            for i in range(p):
                if sum(nu) < series.order:
                    targets.add((nu, indices, i + 1))
                if nu[i] > 0:
                    lowered = tuple(v - 1 if idx == i else v for idx, v in enumerate(nu))
                    targets.add((lowered, indices, i + 1))
        for nu, indices, i in sorted(targets):
            f = series.coefficient(k, nu, indices)
            bumped = tuple(v + 1 if idx == i - 1 else v for idx, v in enumerate(nu))
            g = series.coefficient(k, bumped, indices)
            lhs_expr = derive_expr_even(f, i)
            scale = nu[i - 1] + 1
            for point in sample_points:
                pt = tuple(scalar_field.coerce(v) for v in point)
                checked += 1
                try:
                    lhs = eval_expr_classical(lhs_expr, pt, scalar_field)
                    rhs = scalar_field.coerce(scale) * eval_expr_classical(
                        g, pt, scalar_field
                    )
                except EvaluationError as exc:
                    violations.append(
                        Violation(k, i, nu, indices, point, None, f"not evaluable: {exc}")
                    )
                    continue
                residual = lhs - rhs
                if scalar_field.norm(residual) > tol:
                    violations.append(
                        Violation(k, i, nu, indices, point, residual, "recursion violated")
                    )
    return CheckReport(series.order, checked, tuple(violations))
