"""Smoke test of the benchmark at a tiny input size: every workload once
untraced and once traced; every named metric present, the correctness
check passing, and the traced mixed_commit ledger reconciling.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "0.05"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr[-4000:]
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload(workload: str, trace: int) -> None:
    detail, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = run.metric_units()[trace]
    assert set(result["metrics"]) == set(want)
    for name, m in result["metrics"].items():
        assert m["unit"] == want[name]
        assert isinstance(m["value"], (int, float)), name
    assert detail["failed_turn_ratio"] == 0.0
    assert detail["num_cpus"] >= 1 and detail["seed"] == 7
    if trace and workload == "mixed_commit":
        assert abs(detail["per_layer"]["ledger.unaccounted_share"]) <= 0.10


def test_refuses_without_program() -> None:
    """In a directory holding only the benchmark, it fails without a result."""
    alone = os.path.join(harness.WORK, "alone")
    shutil.rmtree(alone, ignore_errors=True)
    os.makedirs(os.path.join(alone, "perfbench"))
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), os.path.join(alone, "perfbench", name))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), alone)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed_commit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=alone, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(alone)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
