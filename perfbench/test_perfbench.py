"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import checks
import run
from workloads import POOLS, WORKLOADS, argv_for, draw

cli, _numerics, _lincomb, _errors, TABLE = run.import_program()


def _strata(reqs):
    return Counter(r.stratum for r in reqs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests(workload):
    assert draw(workload, 7) == draw(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_draw_same_strata(workload):
    a, b = draw(workload, 7), draw(workload, 8)
    assert a != b
    assert _strata(a) == _strata(b)


def test_goldens_cover_every_pooled_request():
    goldens = checks.load_goldens()
    for workload in ("expand", "reduce"):
        for stratum, pool in POOLS.items():
            if stratum.startswith(workload + "."):
                for index in pool:
                    assert checks.golden_key(argv_for(workload, index, TABLE)) in goldens


def _expand_doc(index: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["expand", "--output", "json", index]) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("index", ["S(1,-2)", "S(1,2,-3,-2)", "S(1,5,-2,-4,-7,-2)"])
def test_finite_n_check_rejects_corrupted_output(index):
    doc = _expand_doc(index)
    assert checks.check_finite_n(doc) is None
    changed = json.loads(json.dumps(doc))
    term = changed["terms"][len(changed["terms"]) // 2]
    term["coeff"] = str(Fraction(term["coeff"]) + Fraction(1, 3))
    assert checks.check_finite_n(changed) is not None
    dropped = json.loads(json.dumps(doc))
    dropped["terms"].pop(0)
    assert checks.check_finite_n(dropped) is not None


def _expand_stdout(index: str) -> tuple[list[str], str]:
    argv = argv_for("expand", index, TABLE)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return argv, out.getvalue()


def test_golden_check_rejects_changed_stdout():
    argv, stdout = _expand_stdout(POOLS["expand.d5"][0])
    goldens = checks.load_goldens()
    assert run.check("expand", argv, 0, stdout, goldens) == ([], True)
    # Rendered differently, still right: only the golden check objects.
    assert run.check("expand", argv, 0, stdout + " ", goldens)[0] == [
        "stdout differs from the golden"
    ]


def test_finite_n_check_runs_on_outputs_that_miss_the_golden():
    argv, stdout = _expand_stdout(POOLS["expand.d5"][0])
    doc = json.loads(stdout)
    doc["terms"][0]["coeff"] = str(Fraction(doc["terms"][0]["coeff"]) * 2)
    reasons, _ = run.check("expand", argv, 0, json.dumps(doc), checks.load_goldens())
    assert reasons[0] == "stdout differs from the golden"
    assert reasons[1].startswith("finite-N identity fails")
    assert checks.check_expand_output("not json").startswith("stdout is not an expansion")


def test_verify_check_needs_pass_and_reads_bounds():
    report = (
        "series    = 1.5  (bound 2e-07, N=10000)\n"
        "expansion = 1.5  (bound 3e-06; engine t1)\n"
        "discrepancy 1e-9 vs budget 4e-06\n"
    )
    assert checks.parse_verify(report + "PASS\n", 1e-6) == (None, False)
    assert checks.parse_verify(report.replace("3e-06", "3e-07") + "PASS\n", 1e-6) == (None, True)
    assert checks.parse_verify(report + "FAIL\n", 1e-6)[0] is not None


def test_tail_percentile_has_ten_requests_beyond():
    pct, value = run.tail([float(i) for i in range(40)])
    assert (pct, value) == (75.0, 29.0)
    assert sum(x > value for x in range(40)) == 10


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printer_emits_every_metric_with_its_unit(trace, kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = {m["name"]: m["unit"] for m in json.load(f)[kind]}
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "expand",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for name, unit in spec.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in report)
