"""Command-line front end.

Subcommands: ``algebra`` (describe an algebra), ``eval`` (evaluate a section
at a point), ``tangent`` (first derivatives through the tangent algebra),
``dist`` (distribution pairing), ``check-nat`` (series recursion checker),
``check-trans`` (transitivity residual), ``selftest`` (property battery).
Results print as JSON on stdout; exit code 0 on success, 1 on domain errors,
2 on usage errors.  The property-test seed comes from --seed or the
SUPERWEIL_SEED environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import battery
from . import expr as ex
from .algebra import (
    make_dual_numbers,
    make_grassmann,
    make_super_dual_numbers,
    make_truncated,
    quotient,
    tensor,
)
from .apoints import eval_ast, make_apoint
from .calculus import (
    TangentVector,
    check_transitivity,
    make_distribution,
    pair_distribution,
    tangent_eval,
)
from .errors import ParseError, SuperWeilError
from .fields import RATIONAL, field_by_name, read_int, read_rational
from .nattrans import check_comes_from_morphism
from .serialize import (
    Workspace,
    _lookup,
    _typed_list,
    algebra_to_json,
    coeff_map_to_json,
    read_json,
    series_from_json,
)
from .superfunc import SuperDomain, section


def parse_algebra_spec(spec, field=RATIONAL, workspace=None):
    """Mini-language: grassmann:q | trunc:k,l,s | dual | superdual |
    quot:<ambient>;<gen>;... | tensor:<a>,<b> | @name (workspace lookup)."""
    algebra, rest = _consume_spec(spec.strip(), field, workspace)
    if rest.strip():
        raise ParseError(f"trailing algebra spec input {rest!r}")
    return algebra


def _consume_spec(spec, field, workspace):
    spec = spec.lstrip()
    if spec.startswith("@"):
        m = re.match(r"@([A-Za-z_][\w.-]*)", spec)
        if not m:
            raise ParseError(f"bad workspace reference in {spec!r}")
        name = m.group(1)
        if workspace is None or name not in workspace.algebras:
            raise ParseError(f"algebra @{name} is not in the workspace")
        return workspace.algebras[name], spec[m.end() :]
    if spec.startswith("superdual"):
        return make_super_dual_numbers(field), spec[len("superdual") :]
    if spec.startswith("dual"):
        return make_dual_numbers(field), spec[len("dual") :]
    if spec.startswith("grassmann:"):
        m = re.match(r"grassmann:(\d+)", spec)
        if not m:
            raise ParseError("grassmann spec needs grassmann:q")
        return make_grassmann(read_int(m.group(1), "grassmann q", 0), field), spec[m.end() :]
    if spec.startswith("trunc:"):
        m = re.match(r"trunc:(\d+),(\d+),(\d+)", spec)
        if not m:
            raise ParseError("trunc spec needs trunc:k,l,s")
        k, l, s = (read_int(v, f"trunc {name}", 0) for v, name in zip(m.groups(), "kls"))
        return make_truncated(k, l, s, field), spec[m.end() :]
    if spec.startswith("quot:"):
        ambient, rest = _consume_spec(spec[len("quot:") :], field, workspace)
        gens = []
        while rest.startswith(";"):
            text, rest = _consume_until(rest[1:], ";,")
            if text.strip():
                gens.append(parse_element(text, ambient))
        result, _ = quotient(ambient, gens)
        return result, rest
    if spec.startswith("tensor:"):
        a, rest = _consume_spec(spec[len("tensor:") :], field, workspace)
        if not rest.startswith(","):
            raise ParseError("tensor spec needs tensor:<a>,<b>")
        b, rest = _consume_spec(rest[1:], field, workspace)
        result, _, _ = tensor(a, b)
        return result, rest
    raise ParseError(f"unknown algebra spec {spec!r}")


def _consume_until(text, stops):
    """Take characters up to a top-level stop character (parens respected)."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in stops and depth == 0:
            return text[:i], text[i:]
    return text, ""


class _ElementSemantics:
    """Leaves of an element text: numbers in the algebra's field and the
    generators t<i>, z<j>; no functions."""

    functions = {}

    def __init__(self, algebra):
        self.algebra = algebra

    def number(self, text):
        return self.algebra.scalar(self.algebra.field.parse(text))

    def name(self, text):
        m = re.fullmatch(r"([tz])(\d+)", text)
        if not m:
            raise ParseError(f"unknown element name {text!r}")
        a = self.algebra
        even = m.group(1) == "t"
        idx = read_int(m.group(2), f"generator {m.group(1)}", 1, a.k if even else a.l)
        return a.gen_even(idx) if even else a.gen_odd(idx)


def parse_element(text, algebra):
    """Arithmetic over the algebra generators t1..tk, z1..zl and numbers."""
    return ex.parse(text, _ElementSemantics(algebra))


_ASSIGN = re.compile(r"\s*(x|th)(\d+)\s*=\s*")


def parse_point_spec(text, algebra):
    """Assignments "x1=..., th1=..." with element expressions on the right."""
    assignments = []
    rest = text
    while rest:
        m = _ASSIGN.match(rest)
        if not m:
            raise ParseError(f"bad point assignment near {rest[:16]!r}")
        value, rest = _consume_until(rest[m.end() :], ",")
        assignments.append((m.group(1), m.group(2), value))
        rest = rest[1:]
    even = {}
    odd = {}
    for kind, idx, value in assignments:
        # the indices cover 1..p and 1..q, so none passes the count
        slot = read_int(idx, f"point index of {kind}", 1, len(assignments))
        (even if kind == "x" else odd)[slot] = parse_element(value, algebra)
    p = max(even, default=0)
    q = max(odd, default=0)
    if sorted(even) != list(range(1, p + 1)) or sorted(odd) != list(range(1, q + 1)):
        raise ParseError("point assignments must cover x1..xp and th1..thq")
    even_vals = [even[i] for i in range(1, p + 1)]
    odd_vals = [odd[j] for j in range(1, q + 1)]
    return even_vals, odd_vals


def parse_scalar_tuple(text, field):
    text = text.strip()
    if not text:
        return ()
    return tuple(field.parse(v) for v in text.split(","))


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")


# -- subcommand handlers -------------------------------------------------------


def cmd_algebra(args):
    field = field_by_name(args.field)
    algebra = parse_algebra_spec(args.spec, field, _load_workspace(args))
    info = algebra_to_json(algebra)
    info["dim"] = algebra.dim
    info["height"] = algebra.height()
    info["width"] = algebra.width()
    info["basis"] = [algebra.monomial_name(m) for m in algebra.quotient_basis]
    _emit(info)
    return 0


def _load_workspace(args):
    path = getattr(args, "workspace", None)
    if path:
        return Workspace.load(path)
    return None


def cmd_eval(args):
    field = field_by_name(args.field)
    ws = _load_workspace(args)
    algebra = parse_algebra_spec(args.algebra, field, ws)
    even_vals, odd_vals = parse_point_spec(args.point, algebra)
    if args.section.startswith("@"):
        if ws is None or args.section[1:] not in ws.sections:
            raise ParseError(f"section {args.section!r} is not in the workspace")
        s = ws.sections[args.section[1:]]
        domain = s.domain
    else:
        domain = SuperDomain(len(even_vals), len(odd_vals))
        s = section(domain, args.section)
    x = make_apoint(domain, algebra, even_vals, odd_vals)
    _emit(coeff_map_to_json(eval_ast(x, s)))
    return 0


def cmd_tangent(args):
    field = field_by_name(args.field)
    base = parse_scalar_tuple(args.base, field)
    v_even = parse_scalar_tuple(args.vE, field)
    v_odd = parse_scalar_tuple(args.vO, field)
    p, q = len(base), len(v_odd)
    if len(v_even) != p:
        raise ParseError("--vE must have one component per base coordinate")
    domain = SuperDomain(p, q)
    s = section(domain, args.section)
    value, d_even, d_odd = tangent_eval(s, TangentVector(domain, base, v_even, v_odd), field)
    out = {"value": field.to_json(value), "d": field.to_json(d_even)}
    if q:
        out["d_odd"] = field.to_json(d_odd)
    _emit(out)
    return 0


def cmd_dist(args):
    field = field_by_name(args.field)
    base = parse_scalar_tuple(args.base, field)
    coeffs = {}
    entries = {"--coeffs": read_json(args.coeffs, "--coeffs")}
    for entry in _typed_list(entries, "--coeffs", dict, "dist"):
        nu = tuple(_typed_list(entry, "nu", int, "--coeffs entry"))
        js = tuple(_typed_list(entry, "J", int, "--coeffs entry")) if "J" in entry else ()
        coeffs[(nu, js)] = field.parse(str(_lookup(entry, "a", "--coeffs entry")))
    q = max((max(j for j in indices) for (_, indices) in coeffs if indices), default=0)
    domain = SuperDomain(len(base), max(q, args.odd_dim))
    dist = make_distribution(domain, base, args.order, coeffs)
    s = section(domain, args.section)
    _emit({"pairing": field.to_json(pair_distribution(dist, s, field))})
    return 0


def cmd_check_nat(args):
    with open(args.series, encoding="utf-8") as fh:
        series = series_from_json(read_json(fh.read(), args.series))
    field = field_by_name(args.field)
    points = [
        parse_scalar_tuple(chunk, field)
        for chunk in args.points.split(";")
        if chunk.strip()
    ]
    report = check_comes_from_morphism(series, points, args.tol, field)
    _emit(report.to_json())
    return 0


def cmd_check_trans(args):
    field = field_by_name(args.field)
    ws = _load_workspace(args)
    a = parse_algebra_spec(args.algebra, field, ws)
    b0 = parse_algebra_spec(args.even_part, field, ws)
    prod, _, _ = tensor(a, b0)
    even_vals, odd_vals = parse_point_spec(args.coords, prod)
    domain = SuperDomain(len(even_vals), len(odd_vals))
    x = make_apoint(domain, prod, even_vals, odd_vals)
    s = section(domain, args.section)
    residual = check_transitivity(s, x, a, b0)
    _emit({"residual": float(residual)})
    return 0


def cmd_selftest(args):
    results = battery.run_all(seed=args.seed, scale=args.scale, jobs=args.jobs)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.name:<{width}}  {status}  ({r.cases} cases)"
        if r.detail:
            line += f"  {r.detail}"
        print(line)
        all_ok = all_ok and r.passed
    print("selftest:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def finite_float(text):
    """argparse type of a float option: NaN and infinities are usage errors."""
    try:
        return float(read_rational(text))
    except (ParseError, OverflowError):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}") from None


def signed_int(text, what="the value"):
    """An integer option or variable: an optional sign, then ASCII digits."""
    text = text.strip()
    value = read_int(text[1:] if text.startswith(("+", "-")) else text, what, 0)
    return -value if text.startswith("-") else value


def integer(text):
    """argparse type of an integer option."""
    try:
        return signed_int(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def tolerance(text):
    """argparse type of a tolerance: finite and >= 0, as NaN passes every residual."""
    value = finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative number: {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="superweil",
        description="supercommutative algebra kernel with Taylor-style evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workspace=True):
        p.add_argument("--field", default="rational", choices=("rational", "real", "complex"))
        if workspace:
            p.add_argument("--workspace", help="JSON workspace file for @name lookups")

    p = sub.add_parser("algebra", help="construct an algebra and describe it")
    p.add_argument("--spec", required=True)
    common(p)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("eval", help="evaluate a section at an algebra-valued point")
    p.add_argument("--algebra", required=True)
    p.add_argument("--point", required=True, help='e.g. "x1=2, th1=z1, th2=z2"')
    p.add_argument("--section", required=True)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tangent", help="value and first derivatives at a tangent vector")
    p.add_argument("--base", required=True)
    p.add_argument("--vE", required=True)
    p.add_argument("--vO", default="")
    p.add_argument("--section", required=True)
    common(p, workspace=False)
    p.set_defaults(func=cmd_tangent)

    p = sub.add_parser("dist", help="pair a point-supported distribution with a section")
    p.add_argument("--base", required=True)
    p.add_argument("--order", type=integer, required=True)
    p.add_argument("--coeffs", required=True, help='JSON [{"nu": [...], "J": [...], "a": ...}]')
    p.add_argument("--section", required=True)
    p.add_argument("--odd-dim", type=integer, default=0, dest="odd_dim")
    common(p, workspace=False)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("check-nat", help="run the morphism-origin recursion checker")
    p.add_argument("--series", required=True, help="series JSON file")
    p.add_argument("--points", required=True, help='semicolon-separated tuples "1;2,0"')
    p.add_argument("--tol", type=tolerance, default=0.0)
    common(p, workspace=False)
    p.set_defaults(func=cmd_check_nat)

    p = sub.add_parser("check-trans", help="two-stage vs direct tensor evaluation")
    p.add_argument("--algebra", required=True)
    p.add_argument("--even-part", required=True, dest="even_part")
    p.add_argument("--coords", required=True)
    p.add_argument("--section", required=True)
    common(p)
    p.set_defaults(func=cmd_check_trans)

    p = sub.add_parser("selftest", help="run the randomized property battery")
    p.add_argument("--seed", type=integer, default=None)
    p.add_argument("--scale", type=finite_float, default=1.0)
    p.add_argument("--jobs", type=integer, default=1)
    p.set_defaults(func=cmd_selftest)
    return parser


@functools.cache
def _parser():
    """The one parser of this process; ``parse_args`` never modifies it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and args.command == "selftest":
            args.seed = signed_int(os.environ.get("SUPERWEIL_SEED", "0"), "SUPERWEIL_SEED")
        return args.func(args)
    except (SuperWeilError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:
        # a long flat sum is a left-deep tree that the walkers recurse down
        print(f"error: input nested too deeply: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
