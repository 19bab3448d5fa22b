"""Smoke test of the benchmark: tiny inputs, every metric and every check,
no timing gate.

    python -m pytest bench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

CHECKS = {
    "cli_tour_1e5": {"sample.rows", "analyze.first_order", "simdec.probabilities",
                     "compare.binning_first_order", "compare.oracle_first_order", "sweep.rows",
                     "sweep.independent_copula", "sweep.independent_equal_portion"},
    "wide_api_2e5": {"analyze.first_order", "analyze.true_pairs", "analyze.deterministic"},
}
DETERMINISM = {0: "deterministic", 1: "traced_digests_match"}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_and_check(trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "all", "--seed", "5", "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(CHECKS) == {w["name"] for w in SPEC["workloads"]}
    for name, checks in CHECKS.items():
        got = {k[len(name) + 1:]: v["unit"] for k, v in result["metrics"].items()
               if k.startswith(name + ".")}
        assert got == declared
        path = os.path.join(ROOT, ".bench_data", "results", f"{name}-seed5-trace{trace}-smoke.json")
        with open(path, encoding="utf-8") as fh:
            detail = json.load(fh)
        if name != "wide_api_2e5":
            checks = checks | {"exit_codes"}
        assert set(detail["checks"]) == checks | {DETERMINISM[trace]}
        assert detail["digests"] and all(len(d) == 64 for d in detail["digests"].values())


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    import models
    import run

    wrong = ({n: 0.5 for n in models.TOY_NAMES}, {}, 1.0)
    monkeypatch.setattr(models, "toy_indices", lambda: wrong)
    assert run.main(["--workload", "cli_tour_1e5", "--seed", "5", "--seconds", "0", "--smoke"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
