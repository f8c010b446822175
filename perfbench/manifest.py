"""Metric and workload definitions; ``run.py --write-manifest`` renders them
as the repository's BENCHMARK.json."""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40

WORKLOADS = [
    (
        "build",
        "Algebra construction, row reduction, height and first inverse (dims 13-91, RATIONAL and REAL); "
        "almost no expression work, so expression-layer changes should not move it",
    ),
    (
        "jets",
        "Symbolic derivatives and Taylor contraction: eval_ast vs eval_taylor jets to order 8 on algebras "
        "of dim <= 41, built in set-up, so algebra-kernel changes barely move it",
    ),
    (
        "session",
        "The ten battery suites, every CLI verb in-process and Workspace round trips: thousands of small "
        "algebras and cheap calls, so per-algebra or per-call set-up cost shows here",
    ),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

BATTERY_SUITES = (
    "algebra_laws",
    "structure_roundtrip",
    "homomorphism",
    "dual_path",
    "tangent_ad",
    "derivations",
    "distributions",
    "transitivity",
    "nat_checker",
    "functoriality",
)
CLI_VERBS = ("algebra", "eval", "tangent", "dist", "check-nat", "check-trans", "selftest")

# (name, unit, better)
PER_LAYER = (
    [
        ("algebra.build_s", "s", "lower"),
        ("algebra.build_calls", "count", "lower"),
        ("algebra.ambient_monomials", "count", "lower"),
        ("algebra.ideal_cells", "count", "lower"),
        ("algebra.height_s", "s", "lower"),
        ("algebra.inverse_s", "s", "lower"),
        ("algebra.mul_s", "s", "lower"),
        ("algebra.mul_calls", "count", "lower"),
        ("algebra.mul_term_pairs", "count", "lower"),
        ("expr.parse_s", "s", "lower"),
        ("expr.parse_calls", "count", "lower"),
        ("expr.parse_chars", "chars", "lower"),
        ("superfunc.components_s", "s", "lower"),
        ("superfunc.derive_s", "s", "lower"),
        ("superfunc.derive_text_chars", "chars", "lower"),
        ("superfunc.classical_s", "s", "lower"),
        ("apoints.make_apoint_s", "s", "lower"),
        ("apoints.eval_ast_s", "s", "lower"),
        ("apoints.eval_ast_calls", "count", "lower"),
        ("apoints.eval_taylor_s", "s", "lower"),
        ("apoints.eval_taylor_calls", "count", "lower"),
        ("apoints.out_terms", "count", "lower"),
        ("calculus.transitivity_s", "s", "lower"),
        ("nattrans.series_s", "s", "lower"),
    ]
    + [(f"battery.{name}_s", "s", "lower") for name in BATTERY_SUITES]
    + [(f"battery.{name}_cases", "count", "higher") for name in BATTERY_SUITES]
    + [
        ("serialize.save_s", "s", "lower"),
        ("serialize.load_s", "s", "lower"),
        ("serialize.bytes", "bytes", "lower"),
    ]
    + [(f"cli.{verb}_s", "s", "lower") for verb in CLI_VERBS]
    + [
        ("cli.stdout_bytes", "bytes", "lower"),
        ("bench.op_self_s", "s", "lower"),
        ("bench.check_s", "s", "lower"),
        ("trace.run_s", "s", "lower"),
        ("trace.untraced_run_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
    ]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render():
    return json.dumps(manifest(), indent=2) + "\n"
