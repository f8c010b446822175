"""Benchmark runner for superweil.

    python3 perfbench/run.py --workload {build,jets,session} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  One workload runs in this one process: no
pool, no worker threads.  The workload's op list runs pass after pass, each
pass with inputs drawn from the seed and the pass index and preceded by a
timed set-up (import, fixture building and that pass's inputs), until the
next pass would overrun ``--seconds`` (at least the workload's minimum number
of passes).
Every op's output is checked.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
each pass runs twice on identical inputs, untraced and then traced, and the
per-layer metrics come from the traced copies; the spans are written to
``perfbench/out/trace_<workload>.json``.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--write-manifest`` writes BENCHMARK.json from manifest.py instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import layers
import manifest
from spans import HOOK_SPAN, NULL, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_TRACED_PASSES = 2
PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


class PackageMissing(Exception):
    pass


def import_fresh():
    """Import superweil from this checkout's ``src``, and the workloads on top
    of it, discarding any earlier import so that the cost is paid again."""
    src = ROOT / "src"
    if not (src / "superweil" / "__init__.py").is_file():
        raise PackageMissing(f"no package source at {src / 'superweil'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "superweil" or n.startswith("superweil.")]:
        del sys.modules[name]
    sys.modules.pop("workloads", None)
    import superweil

    if Path(superweil.__file__).resolve().parent != (src / "superweil").resolve():
        raise PackageMissing(f"superweil imported from {superweil.__file__}, not {src}")
    import workloads

    return workloads


def workloads_module():
    """The workloads module of the latest import."""
    return sys.modules.get("workloads") or import_fresh()


# -- one pass ------------------------------------------------------------------------


@dataclass
class PassResult:
    wall: float
    latencies: list
    attempted: int
    failed: int
    failures: list = field(default_factory=list)
    outputs: list = field(default_factory=list)


def run_pass(ops, tr, pass_index, collect=False):
    fingerprint = workloads_module().fingerprint
    gc.collect()
    latencies, failures, outputs = [], [], []
    start = perf_counter()
    for op in ops:
        tr.begin_op(pass_index)
        with tr.span(f"op.{op.kind}"):
            t0 = perf_counter()
            try:
                out, error = op.call(), None
            except Exception:  # an op that raises counts as failed; the run goes on
                out, error = None, traceback.format_exc()
            t1 = perf_counter()
        latencies.append((t1 - t0) / op.calls)
        if error is None:
            with tr.span("check"), tr.paused():
                try:
                    if not op.check(out):
                        error = "output check failed"
                except Exception:
                    error = traceback.format_exc()
        if error is not None:
            failures.append((pass_index, op.kind, error))
        if collect:
            outputs.append(out)
    wall = perf_counter() - start
    with tr.paused():
        outputs = [fingerprint(out) for out in outputs]
    return PassResult(wall, latencies, len(ops), len(failures), failures, outputs)


def pass_rng(workload, seed, pass_index):
    return random.Random(f"{workload}:{seed}:{pass_index}")


# -- statistics ------------------------------------------------------------------------


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(ops_per_pass, min_passes):
    """Highest listed percentile with TAIL_BEYOND samples beyond it in the
    workload's minimum number of passes; fixed per workload so that it does
    not change with the number of passes a run makes."""
    n = ops_per_pass * min_passes
    return next((p for p in PERCENTILES if n * (100 - p) / 100 >= TAIL_BEYOND), 50.0)


# -- the two kinds of run ---------------------------------------------------------------


def set_up(name, seed, size, workdir, pass_index=0):
    """Import superweil and the workloads afresh, build the fixture and draw
    one pass's inputs; returns them with the seconds this took."""
    t0 = perf_counter()
    setup_fn, ops_fn, min_passes = import_fresh().WORKLOADS[name]
    fixture = setup_fn(seed, size, workdir)
    ops = ops_fn(fixture, pass_rng(name, seed, pass_index), NULL)
    return ops_fn, min_passes, fixture, ops, perf_counter() - t0


def measure(name, seed, seconds, size, workdir):
    """Every pass starts from a fresh set-up, so that the set-up samples are
    spread over the run like the passes are."""
    passes, setup_times = [], []
    start = perf_counter()
    while True:
        _, min_passes, _, ops, setup = set_up(name, seed, size, workdir, len(passes))
        setup_times.append(setup)
        passes.append(run_pass(ops, NULL, len(passes)))
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed + setup + passes[-1].wall > seconds:
            break

    latencies = sorted(lat for p in passes for lat in p.latencies)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    tail_p = tail_percentile(len(ops), min_passes)
    beyond = sum(1 for lat in latencies if lat > percentile(latencies, tail_p))
    walls = [p.wall for p in passes]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(walls),
        "op_p50_ms": 1000 * percentile(latencies, 50.0),
        "op_tail_ms": 1000 * percentile(latencies, tail_p),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups, {min(setup_times):.4f}-{max(setup_times):.4f} s",
        "run_s": f"median of {len(passes)} passes, {min(walls):.4f}-{max(walls):.4f} s",
        "op_p50_ms": f"{len(latencies)} samples, {len(ops)} ops per pass",
        "op_tail_ms": f"p{tail_p:g} of {len(latencies)} samples, {beyond} beyond it",
        "ok_ratio": f"fail_ratio {failed / attempted:g} ({failed} failed of {attempted} ops)",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes, attempted, failed, [f for p in passes for f in p.failures]


def span_metric(span_name):
    """The per-layer time metric a span's self time is charged to."""
    if span_name.startswith("op."):
        return "bench.op_self_s"
    if span_name == "check":
        return "bench.check_s"
    if span_name == HOOK_SPAN:
        return None
    return f"{span_name}_s"


def measure_traced(name, seed, seconds, size, workdir):
    ops_fn, _, fixture, _, _ = set_up(name, seed, size, workdir)
    tracer = Tracer()
    plain, traced, counts, mismatched = [], [], [], []
    start = perf_counter()
    while True:
        index = len(plain)
        plain.append(run_pass(ops_fn(fixture, pass_rng(name, seed, index), NULL), NULL, index, collect=True))
        traced_ops = ops_fn(fixture, pass_rng(name, seed, index), tracer)
        tracer.counts = defaultdict(int)
        layers.install(tracer)
        try:
            traced.append(run_pass(traced_ops, tracer, index, collect=True))
        finally:
            tracer.unpatch()
        counts.append(dict(tracer.counts))
        if plain[-1].outputs != traced[-1].outputs:
            mismatched.append(index)
        elapsed = perf_counter() - start
        if len(plain) >= MIN_TRACED_PASSES and elapsed + plain[-1].wall + traced[-1].wall > seconds:
            break

    by_layer, top = tracer.self_times()
    n = len(traced)
    layer_spans = defaultdict(list)
    for span_name in tracer.names:
        layer_spans[span_metric(span_name)].append(span_name)
    metrics = {}
    for metric, unit, _ in manifest.PER_LAYER:
        if metric.startswith("trace."):
            continue
        if unit == "s":
            spans_of = layer_spans.get(metric, ())
            metrics[metric] = statistics.median(
                sum((by_layer.get((i, s), 0.0) for s in spans_of), 0.0) for i in range(n)
            )
        else:
            metrics[metric] = counts[0].get(metric, 0)
    run_plain = statistics.median(p.wall for p in plain)
    run_traced = statistics.median(p.wall for p in traced)
    coverage = statistics.median(top[i] / traced[i].wall for i in range(n))
    metrics.update(
        {
            "trace.run_s": run_traced,
            "trace.untraced_run_s": run_plain,
            "trace.overhead_ratio": run_traced / run_plain,
            "trace.coverage": coverage,
            "trace.spans": tracer.spans_in_pass(0),
        }
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace_{name}.json")
    notes = {
        "trace.overhead_ratio": f"traced run_s {run_traced:.4f} s / untraced run_s {run_plain:.4f} s",
        "trace.coverage": "top-level op and check spans / traced pass wall time (median)",
        "trace.spans": f"spans in pass 0, like every count; times are medians of {n} traced passes",
    }
    failures = [f for p in plain + traced for f in p.failures]
    failures += [(i, "trace", "traced outputs differ from untraced outputs") for i in mismatched]
    attempted = sum(p.attempted for p in plain + traced)
    return metrics, notes, attempted, len(failures), failures


# -- entry point ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("build", "jets", "session"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--write-manifest", action="store_true", dest="write_manifest")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(manifest.render(), encoding="utf-8")
        return 0
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    measure_fn = measure_traced if args.trace else measure
    try:
        metrics, notes, attempted, failed, failures = measure_fn(
            args.workload, args.seed, args.seconds, args.size, workdir
        )
    except (PackageMissing, ImportError) as exc:
        print(f"perfbench: cannot import superweil: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for pass_index, kind, detail in failures[:5]:
        print(f"FAILED pass {pass_index} op {kind}: {detail}", file=sys.stderr)
    for metric, value in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{metric:32s} {value:>16.6f} {manifest.UNITS[metric]}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": manifest.UNITS[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
