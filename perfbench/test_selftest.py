"""Determinism self-tests for the benchmark.

    python3 -m pytest perfbench/test_selftest.py

Each test starts ``run.py`` in a subprocess with a short measuring
time, so every run does the minimum number of rounds. The whole file
takes a few minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "coherence", "metatheory")
SEED = 11


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def parsed(proc: subprocess.CompletedProcess) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = re.search(r"\bdigest=([0-9a-f]+)", proc.stdout).group(1)
    return json.loads(lines[-1]), digest


_runs: dict[tuple[str, int, int], tuple[dict, str]] = {}


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    key = (workload, seed, trace)
    if key not in _runs:
        _runs[key] = parsed(bench(workload, seed, trace))
    return _runs[key]


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "bytes")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_agree(workload):
    first, digest1 = run_once(workload, SEED, 1)
    second, digest2 = parsed(bench(workload, SEED, 1))
    assert first["correct"] and second["correct"]
    assert digest1 == digest2
    assert counts(first) == counts(second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_changes_the_digest(workload):
    _, digest = run_once(workload, SEED, 0)
    _, other = run_once(workload, SEED + 1, 0)
    assert digest != other


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_result(workload):
    traced, traced_digest = run_once(workload, SEED, 1)
    plain, plain_digest = run_once(workload, SEED, 0)
    assert traced_digest == plain_digest
    assert (traced["correct"], traced["failed"]) == (plain["correct"], plain["failed"]) == (True, 0)


def test_metatheory_never_validates_or_serializes():
    traced, _ = run_once("metatheory", SEED, 1)
    zero = [k for k in traced["metrics"]
            if k.startswith(("checker.validate.", "checker.json.", "checker.deriv_"))]
    assert zero and all(traced["metrics"][k]["value"] == 0 for k in zero)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("corpus", SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
