"""Smoke tests for the scripts under ``tools/``.

``tools/ab_suites.py`` rewrites ``sys.modules`` as it alternates two
trees, and ``tools/linecov.py`` runs pytest under a tracer, so each runs
in a subprocess of its own.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_SUITES = ROOT / "tools" / "ab_suites.py"
LINECOV = ROOT / "tools" / "linecov.py"


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


def test_linecov_lists_the_statements_a_run_leaves_unrun(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(
        "from ulevels.terms import Mty, term_size\n"
        "\n"
        "def test_leaf():\n"
        "    assert term_size(Mty()) == 1\n",
        encoding="utf-8",
    )
    run = subprocess.run(
        [sys.executable, str(LINECOV), str(probe), "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr
    lines = run.stdout.splitlines()
    listed = [line for line in lines if line.startswith("src/ulevels/")]
    assert all(re.fullmatch(r"src/ulevels/\w+\.py:\d+: \S.*", line) for line in listed)
    assert lines[-1] == f"{len(listed)} statements under src/ulevels not run"
    # A leaf has no children: ``term_size`` runs its loop header but
    # never its body.
    in_terms = {line.split(": ", 1)[1] for line in listed if "/terms.py:" in line}
    assert "size += term_size(kid)" in in_terms
    assert not in_terms & {"size = 1", "for kid in children(term):", "return size"}
