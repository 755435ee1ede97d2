"""The benchmark's tracer wraps names of the package and puts them back.

``perfbench/tracing.py`` patches public functions and methods of the
package by name, so removing or renaming one breaks only a traced
benchmark run. This test installs the tracer on the package and
restores it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from ulevels import checker, cli, harness, levels, reduction, subst, surface, terms
from ulevels.harness import GenConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

PACKAGE = SimpleNamespace(
    cli=cli,
    surface=surface,
    checker=checker,
    reduction=reduction,
    subst=subst,
    levels=levels,
    terms=terms,
    harness=harness,
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict[str, dict]:
    owners = {name: vars(mod) for name, mod in vars(PACKAGE).items()}
    for cls in (checker.TypeChecker, checker.LevelOrder, levels.LevelDomain):
        owners[cls.__name__] = vars(cls)
    owners["SUITES"] = harness.SUITES
    return owners


def _snapshot() -> dict[tuple[str, str], object]:
    return {
        (owner, name): value
        for owner, table in _namespaces().items()
        for name, value in table.items()
    }


def test_tracer_patches_existing_names_and_restores_them():
    tracing = _load_tracing()
    before = _snapshot()
    tracer = tracing.Tracer()
    try:
        # Raises AttributeError for a name the tracer patches and the
        # package no longer has.
        tracing.install(tracer, PACKAGE)
        during = _snapshot()
    finally:
        tracer.restore()
    after = _snapshot()

    assert during.keys() == before.keys()
    patched = {key for key in before if during[key] is not before[key]}
    for key in patched:
        assert during[key].__wrapped__ is before[key], key
    for key in [
        ("subst", "compose"),
        ("subst", "lift"),
        ("checker", "level_lt_check"),
        ("LevelOrder", "__init__"),
        ("surface", "pretty"),
        ("reduction", "complete_development"),
    ]:
        assert key in patched, key
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_counts_every_generated_case(monkeypatch):
    calls = 0
    gen_case = harness.gen_case

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return gen_case(*args, **kwargs)

    monkeypatch.setattr(harness, "gen_case", counting)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, PACKAGE)
        for suite in ("subject-reduction", "consistency", "progress"):
            harness.run_suite(suite, GenConfig(seed=1, cases=10))
    finally:
        tracer.restore()
    # Subject reduction and progress generate every case, consistency
    # every odd-numbered one.
    assert calls == 25
    assert tracer.counts["harness.gen_cases"] == calls
