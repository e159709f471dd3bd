"""Tiny-size runs of every benchmark workload.

Each run goes through the real command line, so these tests check the output
contract (every metric declared in ``BENCHMARK.json`` is printed with its
unit), that clean runs pass their correctness checks, and that a deliberately
corrupted output is counted as a failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH_DIR.parent
DECLARATION = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARATION["workloads"]]


def _run(workload: str, *extra: str, cwd: Path = CHECKOUT) -> tuple[int, list[str]]:
    """Run the benchmark in a process group of its own, and check it left none.

    Once the benchmark has exited its group must be empty; a zombie still
    counts as a member, so a helper that outlives the run is caught even
    when it is about to exit.
    """
    process = subprocess.Popen(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=300)
    finally:
        leftover = _group_alive(process.pid)
        if leftover:
            os.killpg(process.pid, signal.SIGKILL)
    assert not leftover, "the benchmark left a process running"
    return process.returncode, stdout.strip().splitlines()


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _result(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def _assert_declared(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {entry["name"] for entry in declared}
    for entry in declared:
        emitted = metrics[entry["name"]]
        assert emitted["unit"] == entry["unit"]
        assert isinstance(emitted["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    code, lines = _run(workload, "--trace", "0")
    assert code == 0
    result = _result(lines)
    assert result["correct"] and result["failed"] == 0
    _assert_declared(result["metrics"], DECLARATION["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(workload):
    code, lines = _run(workload, "--trace", "1")
    assert code == 0
    result = _result(lines)
    assert result["correct"] and result["failed"] == 0
    _assert_declared(result["metrics"], DECLARATION["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failure(workload):
    code, lines = _run(workload, "--trace", "0", "--inject-fault")
    assert code == 0
    result = _result(lines)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run(WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith('{"correct"') for line in lines)
