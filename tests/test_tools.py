"""Smoke tests for the scripts under ``tools/``.

``tools/ab_suites.py`` rewrites ``sys.modules`` as it alternates two
trees, so it runs in a subprocess of its own.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_SUITES = ROOT / "tools" / "ab_suites.py"


def ab_suites(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(AB_SUITES), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_ab_suites_of_one_tree_against_itself():
    run = ab_suites(str(ROOT), str(ROOT), "--rounds", "1")
    assert run.returncode == 0, run.stderr
    assert "outputs equal in every batch" in run.stdout


def test_ab_suites_refuses_zero_rounds():
    run = ab_suites(str(ROOT), str(ROOT), "--rounds", "0")
    assert run.returncode == 2
    assert "--rounds must be at least 1" in run.stderr
