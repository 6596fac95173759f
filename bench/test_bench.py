"""Smoke test of the benchmark itself.

Runs every workload at its tiny smoke size through the real command line:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1"]
    cmd = [sys.executable if c == "python3" else c for c in cmd]
    return subprocess.run(
        [*cmd, "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def smoke(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(last-line result, full result file) of one smoke run."""
    proc = bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    full = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(full.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result, _ = smoke(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_determines_the_inputs(workload):
    digests = [smoke(workload, seed, 0)[1]["environment"]["inputs_sha256"] for seed in (7, 7, 8)]
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
