"""Seconds-long smoke runs of every workload, oracles included.

Not collected by a plain ``pytest`` run (the file name does not match
``test_*.py``), because each case starts the program; run it explicitly::

    PYTHONPATH=src python -m pytest perfbench/smoke_check.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import navigate, repair_loop
from perfbench.common import Options

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_exactly_the_benchmark_metrics(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [e["name"] for e in BENCHMARK[kind]]
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["failed"] == 0
    for entry in BENCHMARK[kind]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        if kind == "end_to_end":
            assert metric["value"] > 0, entry["name"]
    if trace == "1":
        assert "tracing overhead" in done.stdout
        assert "should move" in done.stdout and " -> " in done.stdout
        assert "sum of layer self times" in done.stdout
        assert "EXPLAIN ANALYZE replay" in done.stdout


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "repair_loop", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_repair_loop_oracle_catches_a_lost_delete(monkeypatch):
    """A model that forgets deletions must fail the run's final comparison."""
    original = repair_loop.TableModel.apply

    def forgetful(self, plan):
        log = original(self, plan)
        for entry in log:
            if entry[0] == "delete":
                self.deleted.discard(entry[1])
        return [entry for entry in log if entry[0] != "delete"]

    monkeypatch.setattr(repair_loop.TableModel, "apply", forgetful)
    result = repair_loop.run(Options("repair_loop", 5, 1.0, False, smoke=True))
    assert not result.correct
    assert any("row ids differ" in f for f in result.oracle_failures)


def test_navigate_oracle_catches_a_stale_tile(monkeypatch):
    """Skipping the invalidation after a write serves stale tiles."""
    monkeypatch.setattr(navigate.Loop, "_remove",
                        lambda self, rowid: self.drill.remove_row(rowid))
    result = navigate.run(Options("navigate", 5, 1.0, False, smoke=True))
    assert not result.correct
    assert any("model" in f for f in result.oracle_failures)
