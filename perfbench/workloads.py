"""The benchmark's three workloads and the output check of every op.

A workload has a ``setup(seed, size, workdir)`` that builds its fixture and
an ``ops(fixture, rng, tr)`` that draws one pass's inputs from ``rng`` and
returns that pass's op list.  An op is one user-level call, or a batch of
``calls`` calls when one call takes well under a millisecond.  Every op has
a check of its output.  ``tr`` is the tracer (or the null tracer); ops use it
for the layers they call directly (battery suites, CLI verbs) and for counts.

Sizes: ``full`` is what the benchmark measures; ``tiny`` keeps every op kind
but shrinks algebras, orders and case counts so the tests run in seconds.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable

from superweil import (
    REAL,
    RATIONAL,
    SuperDomain,
    Workspace,
    apply_morphism_to_point,
    battery,
    check_transitivity,
    cli,
    d_even,
    eval_ast,
    eval_classical,
    eval_taylor,
    join,
    make_apoint,
    make_domain_morphism,
    make_truncated,
    quotient,
    section,
    series_from_morphism,
    tensor,
)
from superweil.algebra import AlgebraElement, Monomial
from superweil.nattrans import apply_series
from superweil.serialize import series_to_json

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
REL_TOL = 1e-9
FIELDS = (RATIONAL, REAL)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    calls: int = 1


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- shared helpers -------------------------------------------------------------------


def close(a, b):
    """Equal on exact fields, within REL_TOL relative on float fields."""
    if a.algebra.field.exact:
        return a == b
    return (a - b).norm() <= REL_TOL * max(1.0, a.norm(), b.norm())


def close_scalar(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def shape_ok(algebra, dim):
    """Expected dimension, and quotient basis plus ideal rows span the ambient."""
    return algebra.dim == dim and algebra.dim + len(algebra.ideal_rows) == len(
        algebra.ambient_basis
    )


def rand_coeff(rng, field):
    if field.exact:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
    return rng.choice((-1, 1)) * rng.uniform(0.25, 2.0)


def rand_const(rng):
    """A positive rational constant in (1, 3), never an integer."""
    return Fraction(rng.choice([n for n in range(11, 30) if n % 10]), 10)


def fingerprint(value):
    """Hashable, exact description of an op output (floats by repr)."""
    if isinstance(value, AlgebraElement):
        return ("elem", tuple(sorted((m, repr(c)) for m, c in value.coeffs.items())))
    if hasattr(value, "quotient_basis"):
        return ("alg", value.signature().__repr__())
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((repr(k), fingerprint(v)) for k, v in value.items()))
    if isinstance(value, Workspace):
        return fingerprint(value.to_json())
    return repr(value)


# -- build ------------------------------------------------------------------------------

BUILD_SIZES = {
    "full": {
        "truncs": [(2, 2, 5), (3, 1, 5), (3, 2, 5)],
        "tensors": [((2, 1, 3), (1, 1, 3)), ((2, 2, 3), (1, 1, 4))],
        "products": 20,
        # product batches are the majority of ops, so op_p50_ms sits among
        # them (the element product) instead of between two unrelated ops
        "product_batches": 7,
    },
    "tiny": {
        "truncs": [(1, 1, 3)],
        "tensors": [((1, 0, 2), (1, 1, 2))],
        "products": 4,
        "product_batches": 1,
    },
}
QUOTIENT_AMBIENT = (3, 2, 5)
JOIN_AMBIENT = (2, 1, 5)


def trunc_key(field, kls):
    return f"{field.name}:trunc:{','.join(map(str, kls))}"


def tensor_key(field, a, b):
    return f"{field.name}:tensor:{','.join(map(str, a))}:{','.join(map(str, b))}"


def build_setup(seed, size, workdir, golden=None):
    golden = golden or load_golden()
    cfg = BUILD_SIZES[size]
    bases = {
        (field.name, kls): make_truncated(*kls, field).quotient_basis
        for field in FIELDS
        for kls in cfg["truncs"]
    }
    return {"cfg": cfg, "bases": bases, "expect": golden["build"]}


def _homogeneous_spec(rng, basis, field, parity, terms=3):
    pool = [m for m in basis if not m.is_one() and m.parity() == parity]
    return {m: rand_coeff(rng, field) for m in rng.sample(pool, min(terms, len(pool)))}


def _product_pair(rng, basis, field):
    """Coefficients of two parity-homogeneous elements, and the sign of ba in ab."""
    pa, pb = rng.choice(((0, 0), (0, 1), (1, 0), (1, 1)))
    spec_a = _homogeneous_spec(rng, basis, field, pa)
    return spec_a, _homogeneous_spec(rng, basis, field, pb), -1 if pa and pb else 1


def build_ops(fx, rng, tr):
    cfg, expect = fx["cfg"], fx["expect"]
    ops = []
    for field in FIELDS:
        for kls in cfg["truncs"]:
            want = expect[trunc_key(field, kls)]
            basis = fx["bases"][(field.name, kls)]
            batches = [
                [_product_pair(rng, basis, field) for _ in range(cfg["products"])]
                for _ in range(cfg["product_batches"])
            ]
            ops += _trunc_ops(field, kls, want, batches)
        for a, b in cfg["tensors"]:
            ops += _tensor_ops(field, a, b, expect[tensor_key(field, a, b)])
        ops.append(_quotient_op(field, rng, expect[f"{field.name}:quotient"]))
        ops.append(_join_op(field, rng, expect[f"{field.name}:join"]))
    return ops


def _trunc_ops(field, kls, want, batches):
    copies = []

    def build():
        copies[:] = [make_truncated(*kls, field) for _ in range(3)]
        return copies

    def height():
        return copies[0].height()

    def inverse():
        g = copies[1].one() + copies[1].gen_even(1)
        return g, g.inverse()

    def products(pairs):
        algebra = copies[2]
        out = []
        for spec_a, spec_b, sign in pairs:
            a, b = algebra.element(spec_a), algebra.element(spec_b)
            out.append((a, b, sign, a * b))
        return out

    def supercommute(out):
        return all(close(ab, (b * a).scale(sign)) for a, b, sign, ab in out)

    return [
        Op("trunc_build", build, lambda out: all(shape_ok(a, want["dim"]) for a in out), calls=3),
        Op("height", height, lambda h: h == want["height"]),
        Op("inverse", inverse, lambda out: close(out[0] * out[1], out[0].algebra.one())),
    ] + [Op("products", partial(products, pairs), supercommute, calls=len(pairs)) for pairs in batches]


def _tensor_ops(field, a, b, want):
    built = []

    def build():
        built[:] = [tensor(make_truncated(*a, field), make_truncated(*b, field))[0]]
        return built[0]

    return [
        Op("tensor_build", build, lambda out: shape_ok(out, want["dim"])),
        Op("tensor_height", lambda: built[0].height(), lambda h: h == want["height"]),
    ]


def _quotient_op(field, rng, want):
    c = [rand_coeff(rng, field) for _ in range(4)]

    def build():
        A = make_truncated(*QUOTIENT_AMBIENT, field)
        t1, t2, t3 = A.gen_even(1), A.gen_even(2), A.gen_even(3)
        z1, z2 = A.gen_odd(1), A.gen_odd(2)
        gens = [t1 * t2 * c[0] + t3 ** 2 * c[1], t1 * z1 * c[2] + t2 * z2 * c[3]]
        return quotient(A, gens)[0]

    return Op("quotient", build, lambda out: shape_ok(out, want["dim"]))


def _join_op(field, rng, want):
    c = [rand_coeff(rng, field) for _ in range(4)]

    def build():
        B = make_truncated(*JOIN_AMBIENT, field)
        u1, u2 = B.gen_even(1), B.gen_even(2)
        q1 = quotient(B, [u1 ** 2 * c[0] + u2 ** 3 * c[1]])[0]
        q2 = quotient(B, [u1 * u2 * c[2] + u2 ** 2 * c[3]])[0]
        return join(q1, q2)[0]

    return Op("join", build, lambda out: shape_ok(out, want["dim"]))


# -- jets -------------------------------------------------------------------------------

JETS_SIZES = {
    "full": {"jet_orders": (8, 8, 6), "super_trunc": (3, 4, 5), "tower": 6, "series": 4},
    "tiny": {"jet_orders": (3, 3, 2), "super_trunc": (3,), "tower": 2, "series": 2},
}
JET_TEXTS = (
    "exp({a}*sin(x1)*cos(x1))",
    "exp(sin({a}*x1^2)+x1)",
    "log({a}+x1^2)*inv(1+{b}*x1^2)",
)
SUPER_TEXTS = {
    "rational": "inv({a}+x1^2+x2)*(x1+theta1*theta2) + {b}*x1*x2^3 + x2*theta1*theta2",
    "real": "exp({a}*x1*x2+theta1*theta2)*sin(x2) + log({b}+x1^2)*theta1*theta2",
}
TOWER_TEXT = "exp(sin({a}*x1))"
PULLBACK_TEXTS = ("x1*x2+{a}*sin(x1)", "theta1*cos({b}*x2)")
TRANS_TEXT = "exp({a}*x1)*sin(x1)+theta1*cos(x1)"
# fast calls are repeated so that one timed sample lasts about a millisecond
AST_REPS = 8
FAST_TAYLOR_ORDER = 3
FAST_TAYLOR_REPS = 4


def jets_setup(seed, size, workdir, golden=None):
    cfg = JETS_SIZES[size]
    top = max(cfg["jet_orders"] + (cfg["tower"],))
    jet_algebras = {n: make_truncated(1, 0, n + 1, REAL) for n in range(2, top + 1)}
    super_algebras = {
        (field.name, s): make_truncated(2, 2, s, field)
        for field in FIELDS
        for s in cfg["super_trunc"]
    }
    inner, outer = make_truncated(1, 1, 3, REAL), make_truncated(1, 0, 3, REAL)
    trans_algebra = tensor(inner, outer)[0]
    series_algebra = make_truncated(2, 1, cfg["series"] + 1, REAL)
    # the height and the product tables are cached on an algebra; fill them
    # here so that every pass, the first included, does the same work
    for algebra in [*jet_algebras.values(), *super_algebras.values(), trans_algebra, series_algebra]:
        algebra.height()
    return {
        "cfg": cfg,
        "jet": jet_algebras,
        "super": super_algebras,
        "trans": (inner, outer, trans_algebra),
        "series_alg": series_algebra,
        "U10": SuperDomain(1, 0),
        "U22": SuperDomain(2, 2),
        "U11": SuperDomain(1, 1),
        "U21": SuperDomain(2, 1),
    }


def jets_ops(fx, rng, tr):
    cfg = fx["cfg"]
    U10, U22, U11, U21 = fx["U10"], fx["U22"], fx["U11"], fx["U21"]
    # one pass's inputs: constants in the section texts and base points
    texts = {}
    for idx, template in enumerate(JET_TEXTS):
        texts[("jet", idx)] = (U10, template.format(a=rand_const(rng), b=rand_const(rng)))
    for name, template in SUPER_TEXTS.items():
        texts[("super", name)] = (U22, template.format(a=rand_const(rng) + 2, b=rand_const(rng)))
    texts[("tower",)] = (U10, TOWER_TEXT.format(a=rand_const(rng)))
    texts[("trans",)] = (U11, TRANS_TEXT.format(a=rand_const(rng)))
    pullbacks = [t.format(a=rand_const(rng), b=rand_const(rng)) for t in PULLBACK_TEXTS]
    jet_bases = [rng.uniform(-0.8, 0.8) for _ in JET_TEXTS]
    super_bases = {
        "rational": (Fraction(rng.randint(-6, 6), 4), Fraction(rng.randint(-4, 4), 5)),
        "real": (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
    }
    tower_base = rng.uniform(-1.0, 1.0)
    trans_base = rng.uniform(-1.0, 1.0)
    series_base = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))

    st = {}

    def parse():
        st["sections"] = {key: section(dom, text) for key, (dom, text) in texts.items()}
        st["phi"] = make_domain_morphism(U21, SuperDomain(1, 1), pullbacks)
        return st["sections"], st["phi"]

    def parse_ok(out):
        sections, phi = out
        return len(sections) == len(texts) and len(phi.pullbacks) == 2

    point_specs = []
    for idx, top in enumerate(cfg["jet_orders"]):
        for n in range(2, top + 1):
            point_specs.append((("jet", idx, n), fx["jet"][n], U10, [jet_bases[idx]], "jet"))
    for (fname, s), algebra in fx["super"].items():
        point_specs.append((("super", fname, s), algebra, U22, super_bases[fname], "super"))
    point_specs.append((("trans",), fx["trans"][2], U11, [trans_base], "trans"))
    point_specs.append((("series",), fx["series_alg"], U21, list(series_base), "series"))

    def points():
        st["points"] = {key: _jet_point(kind, algebra, dom, base) for key, algebra, dom, base, kind in point_specs}
        return st["points"]

    ops = [
        Op("parse", parse, parse_ok, calls=len(texts) + len(pullbacks)),
        Op("make_apoint", points, lambda out: len(out) == len(point_specs), calls=len(point_specs)),
    ]
    for idx, top in enumerate(cfg["jet_orders"]):
        for n in range(2, top + 1):
            ops += _dual_path_ops(st, ("jet", idx, n), ("jet", idx), fast=n <= FAST_TAYLOR_ORDER)
    for fname, s in fx["super"]:
        ops += _dual_path_ops(st, ("super", fname, s), ("super", fname), fast=s <= FAST_TAYLOR_ORDER)
    ops.append(_tower_op(st, fx, cfg["tower"], tower_base))
    ops.append(_series_op(st, cfg["series"]))
    ops.append(_transitivity_op(st, fx))
    return ops


def _jet_point(kind, algebra, dom, base):
    """x_i = b_i + t_i, plus nilpotent cross terms except on the 1|0 jets."""
    t, z, scalar = algebra.gen_even, algebra.gen_odd, algebra.scalar
    if kind == "jet":
        return make_apoint(dom, algebra, [scalar(base[0]) + t(1)], [])
    if kind == "trans":
        return make_apoint(dom, algebra, [scalar(base[0]) + t(1) + t(2)], [z(1) + z(1) * t(2)])
    if kind == "series":
        even = [scalar(base[0]) + t(1), scalar(base[1]) + t(2) + t(1) * t(2)]
        return make_apoint(dom, algebra, even, [z(1) + t(1) * z(1)])
    even = [scalar(base[0]) + t(1) + z(1) * z(2), scalar(base[1]) + t(2) + (t(1) * t(2)).scale(3)]
    return make_apoint(dom, algebra, even, [z(1) + t(1) * z(2), z(2)])


def _dual_path_ops(st, point_key, section_key, fast):
    results = {}

    def ast():
        x, s = st["points"][point_key], st["sections"][section_key]
        for _ in range(AST_REPS):
            results["ast"] = eval_ast(x, s)
        return results["ast"]

    def taylor():
        x, s = st["points"][point_key], st["sections"][section_key]
        for _ in range(FAST_TAYLOR_REPS if fast else 1):
            out = eval_taylor(x, s)
        return out

    return [
        Op("eval_ast", ast, lambda out: out.algebra is st["points"][point_key].algebra, calls=AST_REPS),
        Op("eval_taylor", taylor, lambda out: close(results["ast"], out), calls=FAST_TAYLOR_REPS if fast else 1),
    ]


def _tower_op(st, fx, order, base):
    def tower():
        cur = st["sections"][("tower",)]
        values = [eval_classical(cur, (base,), REAL)]
        for _ in range(order):
            cur = d_even(cur, 1)
            values.append(eval_classical(cur, (base,), REAL))
        return values

    def check(values):
        algebra = fx["jet"][order]
        x = make_apoint(fx["U10"], algebra, [algebra.scalar(base) + algebra.gen_even(1)], [])
        jet = eval_ast(x, st["sections"][("tower",)])
        return all(
            close_scalar(v, jet.coefficient(Monomial((k,), 0)) * math.factorial(k))
            for k, v in enumerate(values)
        )

    return Op("d_even_tower", tower, check, calls=2 * order + 1)


def _series_op(st, order):
    def series():
        return series_from_morphism(st["phi"], order)

    def check(out):
        x = st["points"][("series",)]
        via_series = apply_series(out, x)
        via_morphism = apply_morphism_to_point(st["phi"], x)
        values = list(via_morphism.even_vals) + list(via_morphism.odd_vals)
        return len(values) == len(via_series) and all(map(close, via_series, values))

    return Op("series", series, check)


def _transitivity_op(st, fx):
    inner, outer, _ = fx["trans"]

    def run():
        return check_transitivity(st["sections"][("trans",)], st["points"][("trans",)], inner, outer)

    return Op("transitivity", run, lambda residual: residual <= REL_TOL)


# -- session ----------------------------------------------------------------------------

SESSION_SIZES = {"full": {"scale": 1.0, "cli_all": True}, "tiny": {"scale": 0.01, "cli_all": False}}
# battery.run_all's default seed (that of `superweil selftest`) and its
# per-suite seed offset; the suites build every algebra afresh, so repeating
# these inputs in every pass carries no cached work from one pass to the next
RUN_ALL_SEED = 0
SUITE_SEED_STRIDE = 7919
CLI_REPS = 3

# (id, exact output?, repetitions, argv); {ws}, {series_q}, {series_r} are files
# written during set-up
CLI_RUNS = [
    ("algebra-trunc", True, CLI_REPS, ["algebra", "--spec", "trunc:2,1,4"]),
    ("algebra-quot", True, CLI_REPS, ["algebra", "--spec", "quot:trunc:2,2,4;t1^2-t2*z1*z2;t1*t2"]),
    ("algebra-ws", True, CLI_REPS, ["algebra", "--workspace", "{ws}", "--spec", "@q"]),
    ("algebra-real", False, CLI_REPS, ["algebra", "--field", "real", "--spec", "tensor:trunc:1,1,3,dual"]),
    (
        "eval-super",
        True,
        CLI_REPS,
        [
            "eval",
            "--algebra",
            "trunc:2,2,4",
            "--point",
            "x1=2+t1, x2=1/3+t2+z1*z2, th1=z1+t1*z2, th2=z2",
            "--section",
            "inv(1+x1^2)*x2+theta1*theta2*x1^3",
        ],
    ),
    (
        "eval-real",
        False,
        CLI_REPS,
        ["eval", "--field", "real", "--algebra", "trunc:1,0,7", "--point", "x1=0.3+t1", "--section", "exp(sin(x1)*cos(x1))"],
    ),
    (
        "eval-ws",
        True,
        CLI_REPS,
        ["eval", "--workspace", "{ws}", "--algebra", "@jet", "--point", "x1=1/2+t1", "--section", "@f"],
    ),
    ("tangent", True, CLI_REPS, ["tangent", "--base", "3", "--vE", "1", "--section", "x1^2"]),
    (
        "tangent-super",
        True,
        CLI_REPS,
        ["tangent", "--base", "1/2,2", "--vE", "1,-1", "--vO", "1", "--section", "x1*x2^2+theta1*x1"],
    ),
    (
        "tangent-real",
        False,
        CLI_REPS,
        ["tangent", "--field", "real", "--base", "0.5", "--vE", "2", "--section", "exp(x1)*sin(x1)"],
    ),
    (
        "dist",
        True,
        CLI_REPS,
        ["dist", "--base", "1", "--order", "2", "--coeffs", '[{"nu":[2],"a":"1/2"},{"nu":[1],"a":3}]', "--section", "x1^3"],
    ),
    (
        "dist-real",
        False,
        CLI_REPS,
        [
            "dist",
            "--field",
            "real",
            "--base",
            "0.2",
            "--order",
            "3",
            "--coeffs",
            '[{"nu":[3],"a":1},{"nu":[1],"a":"0.5"}]',
            "--section",
            "sin(x1)*exp(x1)",
        ],
    ),
    ("check-nat", True, CLI_REPS, ["check-nat", "--series", "{series_q}", "--points", "1,2;1/2,-1"]),
    (
        "check-nat-real",
        False,
        CLI_REPS,
        ["check-nat", "--field", "real", "--series", "{series_r}", "--points", "0.5,1;0.25,-1", "--tol", "1e-9"],
    ),
    (
        "check-trans",
        True,
        CLI_REPS,
        [
            "check-trans",
            "--algebra",
            "trunc:1,1,3",
            "--even-part",
            "trunc:1,0,3",
            "--coords",
            "x1=1+t1+t2, th1=z1+z1*t2",
            "--section",
            "x1^3+theta1*x1",
        ],
    ),
    (
        "check-trans-ws",
        True,
        CLI_REPS,
        [
            "check-trans",
            "--workspace",
            "{ws}",
            "--algebra",
            "@a",
            "--even-part",
            "@b0",
            "--coords",
            "x1=1/2+t1+t2",
            "--section",
            "inv(1+x1^2)",
        ],
    ),
    (
        "check-trans-real",
        False,
        CLI_REPS,
        [
            "check-trans",
            "--field",
            "real",
            "--algebra",
            "trunc:1,1,3",
            "--even-part",
            "trunc:1,0,3",
            "--coords",
            "x1=0.5+t1+t2, th1=z1",
            "--section",
            "exp(x1)+theta1*sin(x1)",
        ],
    ),
    ("selftest", True, 1, ["selftest", "--seed", "11", "--scale", "0.02", "--jobs", "1"]),
]
CLI_VERBS = ("algebra", "eval", "tangent", "dist", "check-nat", "check-trans", "selftest")


def suite_name(fn):
    return fn.__name__.removeprefix("suite_")


def session_setup(seed, size, workdir, golden=None):
    golden = golden or load_golden()
    os.makedirs(workdir, exist_ok=True)
    files = {
        "{ws}": os.path.join(workdir, "cli_workspace.json"),
        "{series_q}": os.path.join(workdir, "series_rational.json"),
        "{series_r}": os.path.join(workdir, "series_real.json"),
    }
    _cli_workspace().save(files["{ws}"])
    source, target = SuperDomain(2, 1), SuperDomain(1, 1)
    for key, pullbacks in (
        ("{series_q}", ["x1*x2+x1^3", "theta1*x2^2"]),
        ("{series_r}", ["x1*x2+sin(x1)", "theta1*cos(x2)"]),
    ):
        series = series_from_morphism(make_domain_morphism(source, target, pullbacks), 3)
        with open(files[key], "w", encoding="utf-8") as fh:
            json.dump(series_to_json(series), fh)
    cfg = SESSION_SIZES[size]
    runs = CLI_RUNS if cfg["cli_all"] else [next(r for r in CLI_RUNS if r[3][0] == v) for v in CLI_VERBS]
    return {
        "cfg": cfg,
        "workdir": workdir,
        "cli": [(rid, exact, reps, [files.get(a, a) for a in argv]) for rid, exact, reps, argv in runs],
        "stdout": golden["cli"],
        "cases": golden["battery"][size],
    }


def _cli_workspace():
    ws = Workspace()
    U = SuperDomain(1, 0)
    ws.domains["u"] = U
    ws.algebras["jet"] = make_truncated(1, 0, 6)
    ws.algebras["a"] = make_truncated(1, 1, 3)
    ws.algebras["b0"] = make_truncated(1, 0, 3)
    A = make_truncated(2, 2, 4)
    t1, t2, z1, z2 = A.gen_even(1), A.gen_even(2), A.gen_odd(1), A.gen_odd(2)
    ws.algebras["q"] = quotient(A, [t1 ** 2 - z1 * z2, t1 * t2 * t2])[0]
    ws.sections["f"] = section(U, "inv(1+x1^2)*x1^3")
    return ws


def session_ops(fx, rng, tr):
    cfg = fx["cfg"]
    ops = []
    for idx, fn in enumerate(battery.ALL_SUITES):
        count = battery.DEFAULT_COUNTS.get(fn.__name__)
        if count is not None:
            count = max(int(count * cfg["scale"]), 4)
        seed = RUN_ALL_SEED + idx * SUITE_SEED_STRIDE
        ops.append(_suite_op(tr, fn, seed, count, fx["cases"][suite_name(fn)]))
    for rid, exact, reps, argv in fx["cli"]:
        ops.append(_cli_op(tr, rid, exact, reps, argv, fx["stdout"][rid]))
    for idx, field in enumerate(FIELDS):
        path = os.path.join(fx["workdir"], f"roundtrip_{idx}.json")
        ops += _workspace_ops(_seeded_workspace(rng, field), field, path)
    return ops


def _suite_op(tr, fn, seed, count, want_cases):
    name = suite_name(fn)

    def run():
        with tr.span(f"battery.{name}"):
            result = fn(seed, count) if count is not None else fn(seed)
        tr.count(f"battery.{name}_cases", result.cases)
        return result

    return Op(f"battery.{name}", run, lambda r: r.passed and r.cases == want_cases, calls=1)


def _cli_op(tr, rid, exact, reps, argv, want):
    verb = argv[0]

    def run():
        for _ in range(reps):
            out, err = io.StringIO(), io.StringIO()
            with tr.span(f"cli.{verb}"), redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
            text = out.getvalue()
            tr.count("cli.stdout_bytes", len(text.encode()))
        return code, text

    def check(result):
        code, text = result
        return code == 0 and (text == want if exact else same_json_lines(text, want))

    return Op(f"cli.{verb}", run, check, calls=reps)


def same_json_lines(text, want):
    """Line-by-line JSON equality with REL_TOL on numbers."""
    got, ref = text.splitlines(), want.splitlines()
    return len(got) == len(ref) and all(_json_close(json.loads(a), json.loads(b)) for a, b in zip(got, ref))


def _json_close(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return close_scalar(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_close, a, b))
    return a == b


def _seeded_workspace(rng, field):
    """A workspace of every kind of value, with seeded coefficients."""
    ws = Workspace()
    U, V = SuperDomain(2, 1), SuperDomain(1, 1)
    ws.domains.update(u=U, v=V)
    A = make_truncated(2, 1, 4, field)
    t1, t2, z1 = A.gen_even(1), A.gen_even(2), A.gen_odd(1)
    ws.algebras["a"] = A
    ws.algebras["q"] = quotient(A, [t1 * t2 * rand_coeff(rng, field) + t2 ** 2 * rand_coeff(rng, field)])[0]
    ws.algebras["t"] = tensor(make_truncated(1, 1, 3, field), make_truncated(1, 0, 3, field))[0]
    template = "inv({c}+x1^2)*x2^{n}+theta1*x1" if field.exact else "exp({c}*x1)*x2^{n}+theta1*x1"
    for i in range(4):
        ws.sections[f"s{i}"] = section(U, template.format(c=rand_const(rng), n=i + 1))
    for i in range(4):
        even = [A.scalar(rand_coeff(rng, field)) + t1 * rand_coeff(rng, field) + t2 * t1, A.scalar(rand_coeff(rng, field)) + t2]
        ws.points[f"x{i}"] = make_apoint(U, A, even, [z1 * rand_coeff(rng, field) + t1 * z1])
    phi = make_domain_morphism(U, V, [f"x1*x2+{rand_const(rng)}*x1^3", f"theta1*x2^2+{rand_const(rng)}*theta1"])
    ws.morphisms["phi"] = phi
    ws.series["f"] = series_from_morphism(phi, 3)
    return ws


def _workspace_ops(ws, field, path):
    def save():
        ws.save(path)
        return os.path.getsize(path)

    def load():
        return Workspace.load(path)

    def same(loaded):
        # loading re-runs row reduction, which may move the last bit of a
        # float ideal row, so float workspaces compare within REL_TOL
        if field.exact:
            return loaded == ws
        return _json_close(loaded.to_json(), ws.to_json())

    return [Op("ws_save", save, lambda size: size > 0), Op("ws_load", load, same)]


# name: (set-up, op list of one pass, minimum passes per run); jets passes
# are short, and ten of them put its tail percentile among the order-8 jets
WORKLOADS = {
    "build": (build_setup, build_ops, 4),
    "jets": (jets_setup, jets_ops, 10),
    "session": (session_setup, session_ops, 4),
}
