"""Command-line behavior: documented examples, determinism, exit codes."""

import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

CLI = [sys.executable, "-m", "superweil.cli"]


def run(args, env_extra=None, check=False, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        CLI + args, capture_output=True, text=True, env=env, timeout=timeout
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"command failed: {proc.stderr}")
    return proc


EVAL_ARGS = [
    "eval",
    "--algebra",
    "grassmann:2",
    "--point",
    "x1=2, th1=z1, th2=z2",
    "--section",
    "x1+theta1*theta2",
]
TANGENT_ARGS = ["tangent", "--base", "3", "--vE", "1", "--section", "x1^2"]


class TestDocumentedExamples:
    def test_eval_example(self):
        proc = run(EVAL_ARGS, check=True)
        assert json.loads(proc.stdout) == {"1": "2", "z1z2": "1"}

    def test_tangent_example(self):
        proc = run(TANGENT_ARGS, check=True)
        assert json.loads(proc.stdout) == {"value": "9", "d": "6"}

    def test_selftest_passes(self):
        proc = run(["selftest", "--scale", "0.05"], env_extra={"SUPERWEIL_SEED": "3"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "selftest: PASS" in proc.stdout

    @pytest.mark.parametrize("args", [EVAL_ARGS, TANGENT_ARGS])
    def test_byte_identical_runs(self, args):
        first = run(args, check=True)
        second = run(args, check=True)
        assert first.stdout == second.stdout

    def test_selftest_byte_identical_with_seed(self):
        env = {"SUPERWEIL_SEED": "11"}
        first = run(["selftest", "--scale", "0.05"], env_extra=env)
        second = run(["selftest", "--scale", "0.05"], env_extra=env)
        assert first.stdout == second.stdout


class TestCommands:
    def test_algebra_describe(self):
        proc = run(["algebra", "--spec", "quot:trunc:1,1,3;t1*z1"], check=True)
        info = json.loads(proc.stdout)
        assert info["dim"] == 4
        assert info["basis"] == ["1", "z1", "t1", "t1^2"]

    @pytest.mark.parametrize("field", ["rational", "real"])
    def test_algebra_quotient_with_float_residue(self, field):
        # on REAL the products spanning nil^5 are float residue, not zeros;
        # the timeout makes a filtration that never empties fail, not stall
        spec = "quot:trunc:2,1,5;2*t1^2-1/3*t2^3+5/7*t1*t2"
        proc = run(["algebra", "--spec", spec, "--field", field], check=True, timeout=60)
        info = json.loads(proc.stdout)
        assert (info["dim"], info["height"], info["width"]) == (16, 4, 3)

    def test_algebra_tensor_spec(self):
        proc = run(["algebra", "--spec", "tensor:trunc:1,0,2,grassmann:1"], check=True)
        info = json.loads(proc.stdout)
        assert info["dim"] == 4

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_float_tensor_of_a_non_graded_quotient(self, field):
        # float residue of the tensor's ideal once became pivots here: dim 58
        # and a height() that raised IndexError
        spec = "tensor:quot:trunc:2,1,8;-4/3*t2^2-7/9*t1*t2-3/5*t2^3,trunc:1,0,3"
        proc = run(["algebra", "--spec", spec, "--field", field], check=True)
        info = json.loads(proc.stdout)
        assert (info["dim"], info["height"], info["width"]) == (84, 9, 4)

    def test_eval_float_field(self):
        proc = run(
            [
                "eval",
                "--algebra",
                "trunc:1,0,3",
                "--point",
                "x1=t1",
                "--section",
                "exp(x1)",
                "--field",
                "real",
            ],
            check=True,
        )
        out = json.loads(proc.stdout)
        assert out == {"1": 1.0, "t1": 1.0, "t1^2": 0.5}

    def test_dist_command(self):
        proc = run(
            [
                "dist",
                "--base",
                "0",
                "--order",
                "2",
                "--coeffs",
                '[{"nu": [1], "J": [1], "a": "1"}]',
                "--section",
                "x1*theta1",
            ],
            check=True,
        )
        assert json.loads(proc.stdout) == {"pairing": "1"}

    def test_check_trans_command(self):
        proc = run(
            [
                "check-trans",
                "--algebra",
                "dual",
                "--even-part",
                "dual",
                "--coords",
                "x1=3+t1+2*t2+5*t1*t2",
                "--section",
                "x1^2",
            ],
            check=True,
        )
        assert json.loads(proc.stdout) == {"residual": 0.0}

    def test_check_nat_command(self, tmp_path):
        from superweil import SuperDomain, make_domain_morphism, series_from_morphism
        from superweil.serialize import series_to_json

        phi = make_domain_morphism(
            SuperDomain(1, 2), SuperDomain(1, 0), ["x1^2 + theta1*theta2"]
        )
        path = tmp_path / "series.json"
        path.write_text(json.dumps(series_to_json(series_from_morphism(phi, 3))))
        proc = run(
            ["check-nat", "--series", str(path), "--points", "1;-1;2"], check=True
        )
        report = json.loads(proc.stdout)
        assert report["passed"] is True
        assert "necessary" in report["note"]

    def test_workspace_reference(self, tmp_path):
        from superweil import SuperDomain, Workspace, make_grassmann, section

        ws = Workspace()
        ws.algebras["G"] = make_grassmann(2)
        ws.domains["U"] = SuperDomain(1, 2)
        ws.sections["f"] = section(ws.domains["U"], "x1 + theta1*theta2")
        path = tmp_path / "ws.json"
        ws.save(path)
        proc = run(
            [
                "eval",
                "--workspace",
                str(path),
                "--algebra",
                "@G",
                "--point",
                "x1=2, th1=z1, th2=z2",
                "--section",
                "@f",
            ],
            check=True,
        )
        assert json.loads(proc.stdout) == {"1": "2", "z1z2": "1"}


class TestExitCodes:
    def test_usage_error_is_2(self):
        proc = run(["eval", "--algebra", "grassmann:2"])
        assert proc.returncode == 2

    def test_domain_error_is_1(self):
        proc = run(
            [
                "eval",
                "--algebra",
                "grassmann:2",
                "--point",
                "x1=z1, th1=z1, th2=z2",  # even slot gets an odd element
                "--section",
                "x1",
            ]
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_bad_spec_is_1(self):
        proc = run(["algebra", "--spec", "nope:3"])
        assert proc.returncode == 1
        assert "error:" in proc.stderr


class TestOneParser:
    def test_two_calls_build_the_parser_once(self, monkeypatch, capsys):
        from superweil import cli

        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            assert cli.main(TANGENT_ARGS) == 0
            assert cli.main(EVAL_ARGS) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_usage_error_leaves_the_parser_as_built(self, capsys):
        from superweil import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--algebra", "grassmann:2"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert cli.main(EVAL_ARGS) == 0
        assert capsys.readouterr().out == run(EVAL_ARGS, check=True).stdout


class _Timeout(BaseException):
    """Raised by the alarm of :func:`deadline`; no handler in the program catches it."""


@contextlib.contextmanager
def deadline(seconds):
    """Fail the test when the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise _Timeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except _Timeout:
        pytest.fail(f"no result within {seconds} s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestMalformedInput:
    """Malformed input ends in exit 1 and a one-line diagnostic within 2 s,
    no traceback."""

    @staticmethod
    def fails_cleanly(args, capsys, prefix="error:"):
        from superweil import cli

        with deadline(2):
            assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err

    def test_deep_parentheses_in_section(self, capsys):
        deep = "(" * 300 + "x1" + ")" * 300
        args = ["eval", "--algebra", "dual", "--point", "x1=1+t1", "--section", deep]
        self.fails_cleanly(args, capsys)

    def test_deep_parentheses_in_point(self, capsys):
        deep = "(" * 300 + "t1" + ")" * 300
        args = ["eval", "--algebra", "dual", "--point", f"x1={deep}", "--section", "x1"]
        self.fails_cleanly(args, capsys)

    def test_long_flat_sum(self, capsys):
        flat = "+".join(["x1"] * 1500)
        args = ["eval", "--algebra", "dual", "--point", "x1=1+t1", "--section", flat]
        self.fails_cleanly(args, capsys)

    @pytest.mark.parametrize("entry", ["sections", "points"])
    def test_dangling_workspace_reference(self, entry, tmp_path, capsys):
        ws = {"schema": 1, "algebras": {}, "domains": {}}
        ws[entry] = {"f": {"domain": "missing", "algebra": "missing", "expr": "x1",
                           "even": [], "odd": []}}
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(ws))
        args = ["eval", "--workspace", str(path), "--algebra", "dual", "--point", "x1=1",
                "--section", "x1"]
        self.fails_cleanly(args, capsys)

    ONES = "1" * 5001  # past the 4,300 digits int() reads from text

    @pytest.mark.parametrize("spec", [
        "grassmann:100000000", "trunc:0,1000000,1000001", "trunc:3000000,0,3000000",
        "trunc:100000,0,100000", "trunc:1,0," + ONES, "grassmann:" + ONES,
        "trunc:1,99999999999999999999,1", "trunc:99999999999999999999,0,1", "trunc:١,0,٣",
    ])
    def test_huge_ambient_shape(self, spec, capsys):
        self.fails_cleanly(["algebra", "--spec", spec], capsys)

    def test_dist_coefficient_without_a(self, capsys):
        args = ["dist", "--base", "0", "--order", "1", "--coeffs", '[{"nu": [1]}]',
                "--section", "x1"]
        self.fails_cleanly(args, capsys)

    @pytest.mark.parametrize("coeffs", [
        "5", '[{"nu": 1, "a": 1}]', '[{"nu": [0], "J": 3, "a": 1}]', '[{"nu": ["a"], "a": 1}]',
    ], ids=["not-a-list", "nu-not-a-list", "J-not-a-list", "nu-entry-not-an-int"])
    def test_dist_coefficient_of_the_wrong_shape(self, coeffs, capsys):
        args = ["dist", "--base", "1", "--order", "2", "--section", "x1", "--coeffs", coeffs]
        self.fails_cleanly(args, capsys)

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_selftest_scale_is_a_usage_error(self, scale, capsys):
        from superweil import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["selftest", "--scale", scale])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --scale: not a finite number" in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_check_nat_tolerance_is_finite_and_non_negative(self, tol, capsys):
        from superweil import cli

        # argparse rejects the value before the series file is opened
        with pytest.raises(SystemExit) as exc:
            cli.main(["check-nat", "--series", "series.json", "--points", "1", "--tol", tol])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tol: not a" in err and "Traceback" not in err

    # JSON that does not decode: malformed, or an int past the 4,300 digits
    # Python converts from text
    HUGE = "9" * 5001

    @pytest.mark.parametrize("text", [
        '{"schema": 1, "algebras": {"a": {"field": "rational", "k": 1, "l": 0, "s": %s, '
        '"ideal": []}}}' % HUGE,
        '{"schema": 1, "algebras"',
    ], ids=["huge-int", "truncated"])
    def test_workspace_json_that_does_not_decode(self, text, tmp_path, capsys):
        path = tmp_path / "ws.json"
        path.write_text(text)
        args = ["eval", "--workspace", str(path), "--algebra", "@a", "--point", "x1=1",
                "--section", "x1"]
        self.fails_cleanly(args, capsys, f"error: {path}: ")

    @pytest.mark.parametrize("text", [
        '{"source": [1, 0], "target": [1, 0], "order": %s}' % HUGE[:5000], '{"source": [1,',
    ], ids=["huge-int", "truncated"])
    def test_series_json_that_does_not_decode(self, text, tmp_path, capsys):
        path = tmp_path / "series.json"
        path.write_text(text)
        args = ["check-nat", "--series", str(path), "--points", "1"]
        self.fails_cleanly(args, capsys, f"error: {path}: ")

    @pytest.mark.parametrize("coeffs", ['[{"nu": [1], "a": %s}]' % HUGE, "[{"],
                             ids=["huge-int", "truncated"])
    def test_dist_coefficients_that_do_not_decode(self, coeffs, capsys):
        args = ["dist", "--base", "1", "--order", "2", "--section", "x1", "--coeffs", coeffs]
        self.fails_cleanly(args, capsys, "error: --coeffs: ")

    def test_series_without_slots(self, tmp_path, capsys):
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"source": [1, 0], "target": [1, 0], "order": 2}))
        self.fails_cleanly(["check-nat", "--series", str(path), "--points", "1"], capsys)

    def test_exp_overflow(self, capsys):
        args = ["eval", "--field", "real", "--algebra", "dual", "--point", "x1=1000",
                "--section", "exp(x1)"]
        self.fails_cleanly(args, capsys)

    def test_sin_of_infinite_body(self, capsys):
        args = ["eval", "--field", "real", "--algebra", "dual", "--point", "x1=1e308*10",
                "--section", "sin(x1)"]
        self.fails_cleanly(args, capsys)

    def test_oversized_truncation_fails_before_enumerating(self, capsys):
        self.fails_cleanly(["algebra", "--spec", "trunc:10,10,20"], capsys)

    # besides non-finite scalars: numbers and indices that the readers refuse
    # and powers that the power bound refuses, each without doing the work
    @pytest.mark.parametrize("args", [
        ["tangent", "--field", "real", "--base", "1e999", "--vE", "1", "--section", "x1"],
        ["eval", "--field", "real", "--algebra", "trunc:1,0,3", "--point", "x1=1e999+t1",
         "--section", "x1"],
        ["tangent", "--field", "complex", "--base", "nan", "--vE", "1", "--section", "x1^2"],
        ["eval", "--algebra", "trunc:1,0,3", "--point", "x1=2+t1", "--section", "x1^100000000"],
        ["eval", "--algebra", "trunc:1,0,3", "--point", "x1=1+t1", "--section", "23/0*x1"],
        ["tangent", "--base", "1", "--vE", "1", "--section", "1e308^3"],
        ["eval", "--algebra", "grassmann:2", "--point", "x1=2, th1=z1, th999999999999999999992=z2",
         "--section", "x1"],
        ["tangent", "--base", "1,2", "--vE", "1,0", "--section", "x1*x2^99999999999999999999"],
        ["eval", "--algebra", "trunc:1,0,3", "--point", "x1=1+t" + ONES, "--section", "x1"],
        ["eval", "--algebra", "trunc:1,0,3", "--point", "x1=1+t1", "--section", "x" + ONES],
        ["eval", "--algebra", "trunc:1,0,3", "--point", "x1=1+t1", "--section", "x1^" + ONES],
        ["eval", "--algebra", "trunc:1,0,3", "--point", "x1=1+1e10000000", "--section", "x1"],
        ["eval", "--algebra", "trunc:1,0,3", "--point", "x1=1+1e999", "--section", "x1*x1*x1*x1*x1"],
        ["tangent", "--base", "1_0", "--vE", "1", "--section", "x1"],
        ["eval", "--algebra", "trunc:1,0,3", "--point", "x١=2", "--section", "x1"],
        ["eval", "--field", "real", "--algebra", "dual", "--point", "x1=1", "--section", "1e999*x1"],
    ], ids=["real-overflow-base", "real-overflow-point", "complex-nan-base", "a-exact-power",
            "b-zero-denominator", "c-float-power", "d-point-index", "f-exponent",
            "generator-digits", "coordinate-digits", "exponent-digits", "decimal-exponent",
            "a-unwritable-product", "underscore", "non-ascii-index", "real-overflow-section"])
    def test_non_finite_scalar(self, args, capsys):
        self.fails_cleanly(args, capsys)

    def test_workspace_rows_that_only_generate_an_ideal(self, tmp_path, capsys):
        algebra = {"field": "rational", "k": 1, "l": 0, "s": 5, "ideal": [{"t1^2": "1"}]}
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({"schema": 1, "algebras": {"q": algebra}}))
        self.fails_cleanly(["algebra", "--workspace", str(path), "--spec", "@q"], capsys)


    @pytest.mark.parametrize("algebra", [
        {"field": "rational", "l": 0, "s": 3, "ideal": []},
        {"field": "rational", "k": 1, "l": 0, "s": 3, "ideal": ["t1^2"]},
        {"field": "rational", "k": "1", "l": 0, "s": 3, "ideal": []},
        {"field": "rational", "k": 1, "l": 0, "s": 3, "ideal": [{"t" + "1" * 5000: "1"}]},
        {"field": "rational", "k": 1, "l": 0, "s": 3, "ideal": [{"t1^" + "1" * 5000: "1"}]},
        {"field": "rational", "k": 1, "l": 0, "s": 3, "ideal": [{"t1^2": "1" * 5000}]},
    ], ids=["missing-k", "string-ideal-entry", "string-k", "g-key-index-digits",
            "key-power-digits", "scalar-digits"])
    def test_workspace_malformed_algebra(self, algebra, tmp_path, capsys):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({"schema": 1, "algebras": {"q": algebra}}))
        self.fails_cleanly(["algebra", "--workspace", str(path), "--spec", "@q"], capsys)

    @pytest.mark.parametrize("ws", [
        [1],
        {"schema": 1, "domains": {"U": {"q": 0}}},
        {"schema": 1, "domains": {"U": {"p": 1, "q": 0, "box": [5]}}},
        {"schema": 1, "domains": {"U": {"p": 1, "q": 0, "box": [["a", 1]]}}},
        {"schema": 1, "domains": [1]},
        {"schema": 1, "domains": {"U": {"p": 1, "q": 0}}, "sections": {"f": {"domain": "U", "expr": 5}}},
        {"schema": 1, "domains": {"U": {"p": 1, "q": 0}}, "morphisms": {
            "m": {"source": "U", "target": "U", "pullbacks": [1]}}},
        {"schema": 1, "domains": {"U": {"p": 1, "q": 0}}, "algebras": {"A": {
            "field": "rational", "k": 1, "l": 0, "s": 2, "ideal": []}},
         "points": {"x": {"domain": "U", "algebra": "A", "even": 1, "odd": []}}},
        {"schema": 1, "domains": {"U": {"p": 1, "q": 0}}, "algebras": {"A": {
            "field": "rational", "k": 1, "l": 0, "s": 2, "ideal": []}},
         "points": {"x": {"domain": "U", "algebra": "A", "even": [1], "odd": []}}},
        {"schema": 1, "series": {"f": {"source": 5}}},
    ], ids=["top-level-list", "domain-without-p", "box-entry-number", "box-entry-string",
            "domains-list", "expr-number", "pullback-number", "point-even-number",
            "point-even-entry-number", "series-source-number"])
    def test_workspace_malformed_shape(self, ws, tmp_path, capsys):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(ws))
        self.fails_cleanly(["algebra", "--workspace", str(path), "--spec", "trunc:1,0,3"], capsys)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_workspace_list_scalar(self, field, tmp_path, capsys):
        algebra = {"field": field, "k": 1, "l": 0, "s": 5, "ideal": [{"t1^4": [1]}]}
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({"schema": 1, "algebras": {"q": algebra}}))
        self.fails_cleanly(["algebra", "--workspace", str(path), "--spec", "@q"], capsys)


def test_selftest_jobs_are_clamped(monkeypatch):
    import multiprocessing

    from superweil import battery

    requested = []

    class FakePool:
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    n_suites = len(battery.ALL_SUITES)
    for cpus, jobs, want in ((64, 10**6, n_suites), (3, 8, 3), (None, 8, None), (8, 1, None)):
        monkeypatch.setattr(battery.os, "cpu_count", lambda: cpus)
        requested.clear()
        results = battery.run_all(seed=1, scale=0.001, jobs=jobs)
        assert len(results) == n_suites
        assert requested == ([] if want is None else [want])


# -- an in-process fuzzer over the documented invocations -----------------------

# one digit run (a number, an index, a size) is replaced by one of these
EXTREMES = ["0", "1" + "0" * 20, "1" * 5001, "1e308", "1e10000000", "23/0", "-0.0", "١",
            "1_0", ""]

SERIES = {"source": [1, 0], "target": [1, 0], "order": 2,
          "slots": [[{"nu": [0], "J": [], "expr": "0"}, {"nu": [1], "J": [], "expr": "1"},
                     {"nu": [2], "J": [], "expr": "1"}]]}


def fuzzed_invocations(series_path):
    """The calls of the CI workflow and the README, without ``selftest``,
    whose ``--jobs`` starts a pool."""
    return [
        EVAL_ARGS,
        TANGENT_ARGS,
        ["algebra", "--spec", "trunc:1,1,3"],
        ["algebra", "--spec", "quot:trunc:2,2,4;t1^2-t2*z1*z2;t1*t2"],
        ["algebra", "--field", "real", "--spec", "tensor:trunc:1,1,3,dual"],
        ["algebra", "--field", "real", "--spec",
         "tensor:quot:trunc:2,1,8;-4/3*t2^2-7/9*t1*t2-3/5*t2^3,trunc:1,0,3"],
        ["check-trans", "--algebra", "quot:trunc:2,1,4;t1^2-t2^3;t1*t2*z1", "--even-part",
         "trunc:1,0,3", "--coords", "x1=1+t1+t3, x2=2+t2, th1=z1", "--section",
         "x1^3*theta1 + x2^2*x1"],
        ["algebra", "--spec", "grassmann:100000000"],
        ["algebra", "--field", "complex", "--spec", "quot:trunc:2,2,4;t1^2-t2*z1*z2;t1*t2"],
        ["check-nat", "--series", series_path, "--points", "1;0.5", "--tol", "1e-9"],
        ["eval", "--algebra", "trunc:1,2,4", "--point", "x1=1+t1, th1=z1, th2=z2", "--section",
         "inv(1+x1^2)*x1^3 - 3/2*theta1*theta2 + (x1-1)^2"],
        ["tangent", "--field", "complex", "--base", "1+2j,0.5", "--vE", "1,0", "--vO", "1",
         "--section", "x1*x2^2+theta1*x1"],
        ["dist", "--base", "1", "--order", "2", "--coeffs",
         '[{"nu":[2],"a":"1/2"},{"nu":[1],"a":3}]', "--section", "x1^3"],
    ]


@pytest.fixture(scope="module")
def series_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "series.json"
    path.write_text(json.dumps(SERIES))
    return str(path)


def test_mutated_invocations_end_in_one_line(series_path):
    """Every call with one digit run replaced by an extreme exits 0, 1 or 2
    within 2 s, with no traceback and exactly one ``error:`` line on exit 1."""
    from superweil import cli

    invocations = fuzzed_invocations(series_path)
    spots = [(k, i, m.span()) for k, args in enumerate(invocations)
             for i, arg in enumerate(args) for m in re.finditer(r"\d+", arg)]

    # derandomized, and enough examples to reach every spot and extreme
    @settings(derandomize=True, database=None, max_examples=2000, deadline=None)
    @given(st.sampled_from(spots), st.sampled_from(EXTREMES))
    def check(spot, extreme):
        k, i, (lo, hi) = spot
        args = list(invocations[k])
        args[i] = args[i][:lo] + extreme + args[i][hi:]
        out, err = io.StringIO(), io.StringIO()
        with deadline(2), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2), (args, code, err)
        assert "Traceback" not in err, (args, err)
        if code == 1:
            assert err.startswith("error:") and err.count("\n") == 1, (args, err)

    check()
