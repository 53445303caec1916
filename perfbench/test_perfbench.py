"""Smoke tests for the benchmark (tiny topologies, a few seconds each).

Run from the repository root::

    python3 -m pytest perfbench -q
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
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    MANIFEST = json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [entry["name"] for entry in MANIFEST["workloads"]]
)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    declared = MANIFEST["end_to_end" if trace == 0 else "per_layer"]
    assert set(doc["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        emitted = doc["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if trace == 0:
        for metric in declared:
            assert doc["metrics"][metric["name"]]["value"] > 0, metric


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), tmp_path / "perfbench")
    proc = _run(
        str(tmp_path), "--workload", "service-zipf", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
