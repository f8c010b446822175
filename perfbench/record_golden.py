"""Record the expected outputs the benchmark checks against into golden.json.

    python3 perfbench/record_golden.py

Run this only on a commit whose outputs are known to be right (it was run on
the commit that introduced the benchmark).  Later changes to the package must
reproduce these values: CLI stdout byte for byte on exact fields and within
1e-9 on float fields, the battery's case counts, and the dimensions and
heights of the ``build`` algebras.
"""

from __future__ import annotations

import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from superweil import battery, cli, make_truncated, tensor  # noqa: E402

import workloads as w  # noqa: E402


def build_expectations():
    out = {}
    for field in w.FIELDS:
        for size in w.BUILD_SIZES.values():
            for kls in size["truncs"]:
                A = make_truncated(*kls, field)
                out[w.trunc_key(field, kls)] = {"dim": A.dim, "height": A.height()}
            for a, b in size["tensors"]:
                P = tensor(make_truncated(*a, field), make_truncated(*b, field))[0]
                out[w.tensor_key(field, a, b)] = {"dim": P.dim, "height": P.height()}
        rng = random.Random(0)
        out[f"{field.name}:quotient"] = {"dim": w._quotient_op(field, rng, None).call().dim}
        out[f"{field.name}:join"] = {"dim": w._join_op(field, rng, None).call().dim}
    return out


def battery_cases():
    out = {}
    for size, cfg in w.SESSION_SIZES.items():
        counts = {}
        for idx, fn in enumerate(battery.ALL_SUITES):
            count = battery.DEFAULT_COUNTS.get(fn.__name__)
            if count is not None:
                count = max(int(count * cfg["scale"]), 4)
            result = fn(w.RUN_ALL_SEED + idx * w.SUITE_SEED_STRIDE, count)
            assert result.passed, result
            counts[w.suite_name(fn)] = result.cases
        out[size] = counts
    return out


def cli_stdout():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        fx = w.session_setup(0, "full", tmp, golden={"cli": {}, "battery": {"full": {}}})
        for rid, _, _, argv in fx["cli"]:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(list(argv))
            assert code == 0, (rid, code)
            out[rid] = buf.getvalue()
    return out


def main():
    golden = {"build": build_expectations(), "battery": battery_cases(), "cli": cli_stdout()}
    with open(w.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
