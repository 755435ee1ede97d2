"""Statements of the ``ulevels`` package that a pytest run never executes.

    python3 tools/linecov.py [PYTEST_ARGS...]

Run it from the repository root. It runs pytest in this process with the
given arguments (none: the whole suite), under a ``sys.settrace`` line
tracer that records only frames of code under ``src/ulevels``. Then it
prints, one a line as ``path:line: source``, each statement there that
no test ran, and exits with pytest's exit status.

A statement counts as run when the interpreter reported any line of its
own (its header, for a compound statement) that carries bytecode; a
statement without bytecode, such as a function's docstring, is never
listed. Module-level statements count too, since the tracer is armed
before collection imports the package.

Python unsets a trace function that raises, and the tests that nest
input past the recursion limit make the tracer itself raise
RecursionError. So the tracer is armed again at each test's setup, call
and teardown; a test that loses it loses the rest of its own phase only.
What a test runs after losing it, or in a subprocess, is listed as not
run, so confirm a statement is dead before acting on the listing.

Tracing every line is slow: the full tier-1 suite took about 7 minutes
under it (432 s on a 2-core machine with Python 3.11.7), against about
75 s without.
"""

from __future__ import annotations

import ast
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ulevels"


class LineTracer:
    """The lines run in each source file under ``PACKAGE``."""

    def __init__(self) -> None:
        self.hits: dict[str, set[int]] = defaultdict(set)
        self._ours: dict[str, bool] = {}

    def _local(self, frame, event, _arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, _event, _arg):
        name = frame.f_code.co_filename
        ours = self._ours.get(name)
        if ours is None:
            ours = self._ours[name] = Path(name).resolve().is_relative_to(PACKAGE)
        return self._local if ours else None

    def arm(self) -> None:
        sys.settrace(self._global)

    # pytest hooks: arm before collection and before each test phase.

    @pytest.hookimpl(tryfirst=True)
    def pytest_collection(self, session) -> None:
        self.arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item) -> None:
        self.arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item) -> None:
        self.arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item) -> None:
        self.arm()


def _code_lines(code) -> set[int]:
    """The lines that carry bytecode in ``code`` and the code it nests."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _own_lines(stmt: ast.stmt) -> range:
    """The lines of ``stmt`` that belong to no statement nested in it:
    from its first decorator to the line before its first nested
    statement, or its whole span."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    nested = [
        child.lineno for child in ast.iter_child_nodes(stmt) if isinstance(child, ast.stmt)
    ]
    last = min(nested) - 1 if nested else stmt.end_lineno
    return range(first, max(first, last) + 1)


def unrun_statements(path: Path, hits: set[int]) -> list[tuple[int, str]]:
    """``(line, source)`` of each statement of ``path`` with bytecode
    but with none of its own lines in ``hits``."""
    source = path.read_text(encoding="utf-8")
    executable = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            own = executable.intersection(_own_lines(node))
            if own and not own & hits:
                out.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(out)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer()
    tracer.arm()
    try:
        status = pytest.main(argv, plugins=[tracer])
    finally:
        sys.settrace(None)
    hits: dict[Path, set[int]] = defaultdict(set)
    for name, lines in tracer.hits.items():
        hits[Path(name).resolve()] |= lines
    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        for line, text in unrun_statements(path, hits[path]):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            missed += 1
    print(f"{missed} statements under {PACKAGE.relative_to(ROOT)} not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
