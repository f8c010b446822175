"""Which package calls the traced run wraps, and the work each one counts.

Layers are the package modules.  Span names are ``<module>.<what>``; the
battery and CLI layers are timed by the workload code itself, which calls
their entry points directly.
"""

from __future__ import annotations

import os
import sys

PACKAGE = "superweil"
BENCH_MODULES = ("workloads",)


def _count_build(tr, args, kwargs, result):
    algebra = args[0]
    ambient = len(algebra.ambient_basis)
    tr.count("algebra.build_calls")
    tr.count("algebra.ambient_monomials", ambient)
    rows = args[5] if len(args) > 5 else kwargs.get("ideal_rows", ())
    pivots = args[6] if len(args) > 6 else kwargs.get("_pivots")
    if pivots is None:
        tr.count("algebra.ideal_cells", len(rows) * ambient)


def _count_mul(tr, args, kwargs, result):
    left, right = args
    coeffs = getattr(right, "coeffs", None)
    if coeffs is not None:
        tr.count("algebra.mul_calls")
        tr.count("algebra.mul_term_pairs", len(left.coeffs) * len(coeffs))


def _count_parse(tr, args, kwargs, result):
    tr.count("expr.parse_calls")
    tr.count("expr.parse_chars", len(args[0]))


def _count_derive(tr, args, kwargs, result):
    from superweil.expr import to_text

    expr = getattr(result, "expr", result)
    tr.count("superfunc.derive_text_chars", len(to_text(expr)))


def _counter(calls_key):
    def hook(tr, args, kwargs, result):
        tr.count(calls_key)
        tr.count("apoints.out_terms", len(result.coeffs))

    return hook


def _count_save(tr, args, kwargs, result):
    tr.count("serialize.bytes", os.path.getsize(args[1]))


def install(tr):
    """Wrap the package's layer entry points; ``tr.unpatch()`` undoes it."""
    from superweil import algebra, apoints, calculus, expr, nattrans, serialize, superfunc

    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == PACKAGE or name.startswith(PACKAGE + ".") or name in BENCH_MODULES)
    ]

    def fn(target, name, **opts):
        tr.patch_function(target, name, modules, **opts)

    tr.patch_method(algebra.SuperWeilAlgebra, "__init__", "algebra.build", hook=_count_build)
    for ctor in (
        algebra.make_truncated,
        algebra.make_grassmann,
        algebra.make_dual_numbers,
        algebra.make_super_dual_numbers,
        algebra.quotient,
        algebra.tensor,
        algebra.join,
    ):
        fn(ctor, "algebra.build")
    tr.patch_method(algebra.SuperWeilAlgebra, "height", "algebra.height")
    tr.patch_method(algebra.SuperWeilAlgebra, "width", "algebra.height")
    tr.patch_method(algebra.AlgebraElement, "inverse", "algebra.inverse")
    tr.patch_method(algebra.AlgebraElement, "__mul__", "algebra.mul", hook=_count_mul)

    fn(expr.parse_expr, "expr.parse", hook=_count_parse)

    fn(superfunc.normalize_components, "superfunc.components")
    for derive in (superfunc.derive_expr_even, superfunc.derive_expr_odd, superfunc.super_derive):
        fn(derive, "superfunc.derive", guard=True, hook=_count_derive, hook_span=True)
    for classical in (superfunc.eval_expr_classical, superfunc.eval_classical):
        fn(classical, "superfunc.classical", guard=True)

    fn(apoints.make_apoint, "apoints.make_apoint")
    fn(apoints.eval_ast, "apoints.eval_ast", hook=_counter("apoints.eval_ast_calls"))
    fn(
        apoints.eval_taylor,
        "apoints.eval_taylor",
        hook=_counter("apoints.eval_taylor_calls"),
    )
    fn(calculus.check_transitivity, "calculus.transitivity")
    fn(nattrans.series_from_morphism, "nattrans.series")

    tr.patch_method(serialize.Workspace, "save", "serialize.save", hook=_count_save)
    tr.patch_method(serialize.Workspace, "load", "serialize.load")
