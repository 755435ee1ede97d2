"""Smoke tests for the scripts under ``tools/``.

``tools/ab_suites.py`` rewrites ``sys.modules`` as it alternates two
trees, and ``tools/linecov.py`` runs pytest under a tracer, so each runs
in a subprocess of its own.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_SUITES = ROOT / "tools" / "ab_suites.py"
LINECOV = ROOT / "tools" / "linecov.py"
IGNORE = shutil.ignore_patterns("__pycache__")


def ab_suites(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(AB_SUITES), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_ab_suites_of_one_tree_against_itself():
    run = ab_suites(str(ROOT), str(ROOT), "--rounds", "1")
    assert run.returncode == 0, run.stderr
    assert [line.split(":")[0] for line in run.stdout.splitlines()[1:]] == [
        "subject-reduction", "diamond", "progress", "consistency", "all"]
    assert "outputs equal in every operation" in run.stdout


def test_ab_suites_corpus_of_one_tree_against_itself():
    run = ab_suites(str(ROOT), str(ROOT), "--workload", "corpus", "--rounds", "2")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["round 1", "round 2"]
    assert lines[2].startswith("corpus: ")
    assert lines[-1].startswith("all: ")
    assert "of 2; outputs equal in every operation" in lines[-1]


def test_ab_suites_corpus_stops_when_derived_files_differ(tmp_path):
    # A copy whose ``derive`` writes one byte more per file: every check
    # and revalidation still passes, only the derived sizes differ.
    other = tmp_path / "other"
    shutil.copytree(ROOT / "perfbench", other / "perfbench", ignore=IGNORE)
    shutil.copytree(ROOT / "src", other / "src", ignore=IGNORE)
    cli = other / "src" / "ulevels" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('f.write(f"{text}\\n".encode("utf-8"))') == 1
    cli.write_text(text.replace('f.write(f"{text}\\n"', 'f.write(f"{text}\\n\\n"'),
                   encoding="utf-8")
    run = ab_suites(str(ROOT), str(other), "--workload", "corpus", "--rounds", "1")
    assert run.returncode == 1
    assert "outputs differ" in run.stderr


def test_ab_suites_coherence_of_one_tree_against_itself():
    # ``compare`` on the first 30 of a round's 8,000 operations, in a
    # process of its own since loading a tree rewrites ``sys.modules``.
    script = f"""
import sys, tempfile
from pathlib import Path
sys.path.insert(0, {str(AB_SUITES.parent)!r})
import ab_suites
with tempfile.TemporaryDirectory() as tmp:
    trees = {{side: ab_suites.load_tree(Path({str(ROOT)!r}), "coherence", 97,
                                       Path(tmp) / side)
             for side in ab_suites.SIDES}}
    assert len(trees["parent"][0]) == 8000
    trees = {{side: (ops[:30], modules, suites)
             for side, (ops, modules, suites) in trees.items()}}
    sys.exit(ab_suites.compare(trees, "coherence", 2))
"""
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "round 1", "round 2", "coherence", "all"]
    assert "of 2; outputs equal in every operation" in lines[-1]


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
