"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench

Checks that every metric BENCHMARK.json names is printed with its unit, that
a traced run's counts repeat exactly for the same seed, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

EXACT = ("meb.bisection_iterations", "meb.violation_tests_per_point", "meb.cache_entries")


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(workloads.LpLarge, "N", 60)
    monkeypatch.setattr(workloads.LpLarge, "trace_rounds", 2)
    monkeypatch.setattr(workloads.LpSmall, "N_RANGE", (6, 10))
    monkeypatch.setattr(workloads.LpSmall, "M", 6)
    monkeypatch.setattr(workloads.LpSmall, "trace_rounds", 2)
    monkeypatch.setattr(workloads.Oracle4Metric, "M", 6)
    monkeypatch.setattr(workloads.Oracle4Metric, "SMALL", 8)
    monkeypatch.setattr(workloads.Oracle4Metric, "LARGE", 12)
    monkeypatch.setattr(workloads.CliQueries, "VARIANTS", 2)
    monkeypatch.setattr(workloads.CliQueries, "MEB_POINTS", 6)
    monkeypatch.setattr(workloads.CliQueries, "trace_rounds", 4)


def _run(capsys, workload: str, trace: int) -> dict:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", str(trace)]
    )
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def _assert_named(metrics: dict, spec: list[dict]) -> None:
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]


def test_spec_matches_benchmark_code():
    assert [m["name"] for m in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics_printed(capsys, workload):
    metrics = _run(capsys, workload, 0)
    _assert_named(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(capsys, workload):
    first = _run(capsys, workload, 1)
    second = _run(capsys, workload, 1)
    _assert_named(first, SPEC["per_layer"])
    exact = [name for name in first if name.endswith(".calls") or name in EXACT]
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}
    assert first["meb.make_instance.self_s"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
