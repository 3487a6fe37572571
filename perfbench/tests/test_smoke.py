"""Smoke tests of the benchmark itself: every workload, its checks and the
traced run at smoke size, with no timing asserts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
from workloads import WORKLOADS, mismatches  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = run_bench("--workload", workload, "--seed", 5, "--seconds", 1,
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["trace.absent_names"]["value"] == 0
        assert result["metrics"]["trace.spans"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = run_bench("--workload", "estimate_512", "--seed", 1, "--seconds", 1,
                     "--trace", 0, "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_reports_renamed_names_as_absent(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "matching", ("pce", "renamed_away"))
    monkeypatch.setitem(tracing.TARGETS, "removed_module", ("gone",))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import prnukit.localization
        import prnukit.matching

        assert prnukit.localization.pce is prnukit.matching.pce
        assert prnukit.matching.pce.__wrapped__ is not None
        values, _ = tracer.metrics(1, 0.0)
    finally:
        tracer.uninstall()
    assert sorted(tracer.absent) == ["matching.renamed_away", "removed_module.gone"]
    assert values["trace.absent_names"][0] == 2
    assert values["matching.pce_calls"][0] == 0
    assert not hasattr(prnukit.matching.pce, "__wrapped__")


def test_check_tolerance():
    ref = {"a": [1.0, 2.0], "n": 3, "s": "x"}
    assert mismatches("t", {"a": [1.0 + 1e-9, 2.0], "n": 3, "s": "x"}, ref) == []
    assert mismatches("t", {"a": [1.0 + 1e-5, 2.0], "n": 3, "s": "x"}, ref)
    assert mismatches("t", {"a": [1.0, 2.0], "n": 4, "s": "x"}, ref)
    assert mismatches("t", {"a": [1.0], "n": 3, "s": "x"}, ref)
