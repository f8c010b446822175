"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import layers
import manifest
import run
from spans import NULL, Tracer

WORKLOADS = [name for name, _ in manifest.WORKLOADS]


def run_main(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def w():
    """The workloads module, as last imported by the runner."""
    return run.workloads_module()


def one_pass(name, golden=None, tracer=NULL, seed=5, workdir=None):
    setup_fn, ops_fn, _ = w().WORKLOADS[name]
    fixture = setup_fn(seed, "tiny", workdir, golden=golden)
    ops = ops_fn(fixture, run.pass_rng(name, seed, 0), tracer)
    if tracer is NULL:
        return run.run_pass(ops, tracer, 0, collect=True)
    layers.install(tracer)
    try:
        return run.run_pass(ops, tracer, 0, collect=True)
    finally:
        tracer.unpatch()


def test_manifest_is_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == manifest.manifest()


def test_manifest_names_the_package_suites_and_verbs():
    wl = w()
    battery = sys.modules["superweil.battery"]
    assert manifest.BATTERY_SUITES == tuple(wl.suite_name(f) for f in battery.ALL_SUITES)
    assert manifest.CLI_VERBS == wl.CLI_VERBS


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(capsys, name, trace):
    lines, result = run_main(
        capsys, "--workload", name, "--seed", "3", "--seconds", "0", "--size", "tiny", "--trace", str(trace)
    )
    expected = manifest.PER_LAYER if trace else manifest.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m[0] for m in expected]
    for metric, unit, *_ in expected:
        assert result["metrics"][metric]["unit"] == unit
        assert any(line.startswith(metric + " ") and unit in line for line in lines[:-1])


def test_planted_wrong_height_fails_the_build_ops(tmp_path):
    golden = w().load_golden()
    wrong = copy.deepcopy(golden)
    wrong["build"]["rational:trunc:1,1,3"]["height"] += 1
    assert one_pass("build", golden, workdir=tmp_path).failed == 0
    result = one_pass("build", wrong, workdir=tmp_path)
    assert [kind for _, kind, _ in result.failures] == ["height"]


def test_planted_wrong_cli_output_makes_fail_ratio_nonzero(capsys, monkeypatch):
    wrong = copy.deepcopy(w().load_golden())
    wrong["cli"]["tangent"] = wrong["cli"]["tangent"].replace("9", "10")
    import_fresh = run.import_fresh

    def planted():
        module = import_fresh()
        monkeypatch.setattr(module, "load_golden", lambda: wrong)
        return module

    monkeypatch.setattr(run, "import_fresh", planted)
    lines, result = run_main(capsys, "--workload", "session", "--seconds", "0", "--size", "tiny")
    assert not result["correct"]
    assert result["failed"] == w().WORKLOADS["session"][2]
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_real_cli_output_is_compared_within_tolerance():
    want = '{"value": 0.7904390832136149, "d": 4.474656239595569}\n'
    assert w().same_json_lines('{"value": 0.7904390832136151, "d": 4.474656239595569}\n', want)
    assert not w().same_json_lines('{"value": 0.7904391, "d": 4.474656239595569}\n', want)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_passes_give_identical_outputs(tmp_path, name):
    plain = one_pass(name, workdir=tmp_path)
    tracer = Tracer()
    traced = one_pass(name, tracer=tracer, workdir=tmp_path)
    assert plain.failed == traced.failed == 0
    assert plain.outputs == traced.outputs
    assert len(tracer) > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_work_counts_repeat_exactly(tmp_path, name):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        one_pass(name, tracer=tracer, workdir=tmp_path)
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1] and counts[0]


def test_self_times_subtract_child_spans():
    tracer = Tracer()
    tracer.begin_op(0)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    by_layer, top = tracer.self_times()
    outer = tracer.end[1] - tracer.start[1]
    inner = tracer.end[0] - tracer.start[0]
    assert by_layer[(0, "inner")] == pytest.approx(inner)
    assert by_layer[(0, "outer")] == pytest.approx(outer - inner)
    assert top[0] == pytest.approx(outer)


def test_tail_percentile_leaves_ten_samples_beyond_it():
    for ops_per_pass in (5, 20, 34, 55, 200):
        for min_passes in (4, 10):
            p = run.tail_percentile(ops_per_pass, min_passes)
            assert ops_per_pass * min_passes * (100 - p) / 100 >= run.TAIL_BEYOND


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
