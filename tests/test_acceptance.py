"""Acceptance suite: one test (and one pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to see a line per
criterion. Every randomized run uses a fixed seed, so the suite is
deterministic end to end.
"""

from __future__ import annotations

import time
from pathlib import Path

from ulevels.checker import (
    Verdict,
    check,
    check_derivation,
    search_derivation,
)
from ulevels.harness import (
    GenConfig,
    broken_substitution,
    gen_case,
    run_suite,
)
from ulevels.levels import Finite, NAT_OMEGA
from ulevels.surface import (
    check_module,
    format_report,
    module_settings,
    parse,
    resolve_defs,
)
from ulevels.terms import Absurd, LevelLt, Lvl, Mty, Univ, Var

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

EXPECTED_REPORTS = {
    "identity.ttbfl": (
        "ok Id : U omega\n"
        "ok idFun : Pi (x : Level< omega) . Pi (y : U x) . y -> y\n"
        "ok idAtOne : Pi (x : U 1) . x -> x\n"
        "ok idOnItsOwnType : U 1 -> U 1\n"
        "checked 4 definitions: 4 ok, 0 failed, 0 undecided\n"
    ),
    "type_in_type_annotated.ttbfl": (
        "ok annotatedOk : Pi (x : Bot) . U (absurd [Level< 0] x)\n"
        "ok selfIndexed : fails as expected\n"
        "checked 2 definitions: 2 ok, 0 failed, 0 undecided\n"
    ),
    "level_basics.ttbfl": (
        "ok two : Level< 3\n"
        "ok twoLoose : Level< omega\n"
        "ok boundIsAType : U 0\n"
        "ok boundLifted : U omega\n"
        "ok chain : Pi (x : Level< omega) . Level< x -> Level< omega\n"
        "ok chainVar : Pi (x : Level< omega) . Level< x -> Level< omega\n"
        "ok omegaBelow : Level< omega+3\n"
        "ok notBelowItself : fails as expected\n"
        "ok skipAbove : fails as expected\n"
        "checked 9 definitions: 9 ok, 0 failed, 0 undecided\n"
    ),
    "cumulativity.ttbfl": (
        "ok botLow : U 0\n"
        "ok botHigh : U 5\n"
        "ok nested : U omega\n"
        "ok nestedFinite : U 4\n"
        "ok funLift : U 2\n"
        "ok noDescent : fails as expected\n"
        "ok noSelf : fails as expected\n"
        "checked 7 definitions: 7 ok, 0 failed, 0 undecided\n"
    ),
    "eta.ttbfl": (
        "ok etaOk : (U 2 -> U 0) -> U 1 -> U 0\n"
        "ok etaNeeded : fails as expected\n"
        "checked 2 definitions: 2 ok, 0 failed, 0 undecided\n"
    ),
    "nat_domain.ttbfl": (
        "ok small : Level< 9\n"
        "ok ladder : U 3\n"
        "ok arrowTy : U 2\n"
        "ok ceiling : fails as expected\n"
        "checked 4 definitions: 4 ok, 0 failed, 0 undecided\n"
    ),
    "consistency_attacks.ttbfl": (
        "ok selfApp : fails as expected\n"
        "ok viaType : fails as expected\n"
        "ok viaUniverse : fails as expected\n"
        "ok viaLevel : fails as expected\n"
        "ok emptyBound : fails as expected\n"
        "ok identityTrick : fails as expected\n"
        "checked 6 definitions: 6 ok, 0 failed, 0 undecided\n"
    ),
    "reduction_demo.ttbfl": (
        "ok applyTwice : Pi (x : U 2) . (x -> x) -> x -> x\n"
        "ok levelId : Level< omega -> Level< omega\n"
        "ok three : Level< omega\n"
        "ok someType : U 2\n"
        "checked 4 definitions: 4 ok, 0 failed, 0 undecided\n"
    ),
}


def _module(name: str):
    return parse((CORPUS / name).read_text(encoding="utf-8"))


def _line(criterion: str, detail: str) -> None:
    print(f"criterion {criterion}: PASS - {detail}")


def test_criterion_1_corpus_reproduction():
    start = time.monotonic()
    files = sorted(p.name for p in CORPUS.glob("*.ttbfl"))
    assert files == sorted(EXPECTED_REPORTS), "corpus files and pins differ"
    for name in files:
        report = check_module(_module(name))
        assert format_report(report) == EXPECTED_REPORTS[name], name
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"corpus took {elapsed:.2f}s (budget 5s)"
    _line(
        "1 (corpus reproduction)",
        f"{len(files)} files byte-identical in {elapsed:.2f}s",
    )


def test_criterion_2_stuck_index_pair_and_bounded_search():
    report = check_module(_module("type_in_type_annotated.ttbfl"))
    assert report.ok
    assert [e.name for e in report.entries] == ["annotatedOk", "selfIndexed"]
    assert report.entries[0].verdict is Verdict.ACCEPTED
    assert report.entries[1].verdict is Verdict.REJECTED

    ctx = (Mty(),)
    stuck = Absurd(LevelLt(Lvl(Finite(0))), Var(0))
    target = Univ(stuck)
    annotated = Univ(Absurd(LevelLt(stuck), Var(0)))
    found = search_derivation(ctx, annotated, target)
    assert found is not None, "search missed the annotated form"
    assert check_derivation(found).ok
    assert search_derivation(ctx, target, target) is None
    _line(
        "2 (stuck universe indices)",
        "annotated form accepted with a validated derivation; "
        "self-indexed form rejected and unfindable",
    )


def test_criterion_3_subject_reduction_10k():
    report = run_suite("subject-reduction", GenConfig(seed=2026, cases=10_000))
    assert report.elapsed < 600.0
    assert not report.failures, report.summary()
    _line(
        "3 (subject reduction)",
        f"10000 cases, 0 failures, {report.undecided} undecided, "
        f"{report.elapsed:.1f}s",
    )


def test_criterion_4_diamond_completion_10k():
    report = run_suite(
        "diamond", GenConfig(seed=2026, cases=10_000, raw_size=12)
    )
    assert not report.failures, report.summary()
    assert report.undecided == 0
    _line(
        "4 (diamond via complete development)",
        f"10000 terms, every one-step reduct rejoins, {report.elapsed:.1f}s",
    )


def test_criterion_5_progress_safety_10k():
    report = run_suite("progress", GenConfig(seed=2026, cases=10_000))
    assert not report.failures, report.summary()
    assert report.undecided == 0
    _line(
        "5 (progress and safety)",
        f"10000 closed cases, 0 stuck, {report.undecided} undecided, "
        f"{report.elapsed:.1f}s",
    )


def test_criterion_6_canonicity_2k():
    report = run_suite("canonicity", GenConfig(seed=2026, cases=2_000))
    assert not report.failures, report.summary()
    assert report.undecided == 0
    _line(
        "6 (canonicity)",
        "2000 closed cases, all values in canonical head form with "
        f"levels below bounds, {report.elapsed:.1f}s",
    )


def test_criterion_7_checker_coherence():
    validated = 0
    for name in sorted(EXPECTED_REPORTS):
        module = _module(name)
        domain, fuel = module_settings(module)
        for d, ty, body in resolve_defs(module, domain):
            res = check((), body, ty, domain, fuel)
            if res.verdict is Verdict.ACCEPTED:
                assert res.derivation is not None
                assert check_derivation(res.derivation, domain, fuel).ok, d.name
                validated += 1
    cfg = GenConfig(seed=424242, cases=10_000)
    for i in range(cfg.cases):
        case = gen_case(cfg, i)
        assert check_derivation(case.derivation, NAT_OMEGA, cfg.fuel).ok
        validated += 1
    _line(
        "7 (checker coherence)",
        f"{validated} accepted judgments, every emitted derivation "
        "revalidated by the kernel",
    )


def test_criterion_8_consistency_smoke():
    report = check_module(_module("consistency_attacks.ttbfl"))
    assert report.ok
    assert all(e.expect_fail for e in report.entries)
    assert all(e.verdict is Verdict.REJECTED for e in report.entries)
    fuzz = run_suite("consistency", GenConfig(seed=2026, cases=2_000))
    assert not fuzz.failures, fuzz.summary()
    _line(
        "8 (consistency smoke)",
        f"{len(report.entries)} adversarial files rejected; "
        "2000 generated closed terms, zero proofs of the empty type",
    )


def test_criterion_9_mutation_canary():
    cfg = GenConfig(seed=11, cases=500, max_size=20)
    caught = {}
    with broken_substitution():
        for suite in ("subject-reduction", "diamond", "progress", "canonicity"):
            caught[suite] = len(run_suite(suite, cfg).failures)
    assert all(n >= 1 for n in caught.values()), caught
    healthy = run_suite("subject-reduction", cfg)
    assert healthy.ok
    _line(
        "9 (mutation canary)",
        "broken weakening detected by all four dynamic suites: "
        + ", ".join(f"{k}={v}" for k, v in caught.items()),
    )
