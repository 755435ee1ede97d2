"""Generator determinism, property suites, coverage, and the canary."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from ulevels import checker as checker_mod
from ulevels import harness, subst
from ulevels.checker import Derivation, TypeChecker, Verdict, check, check_derivation
from ulevels.harness import (
    GenConfig,
    RULES,
    SUITES,
    broken_substitution,
    gen_case,
    gen_raw,
    gen_well_typed,
    run_suite,
    rules_in,
    shrink_term,
)
from ulevels.levels import DOMAINS, NAT_OMEGA, Finite, OmegaPlus, domain_named
from ulevels.reduction import ParExplosion, par_reducts
from ulevels.subst import subst1
from ulevels.terms import App, Lam, Lvl, Mty, Term, Var, term_size
import random
import sys

CFG = GenConfig(seed=11, cases=120)


# ---------------------------------------------------------------------------
# Generation


def test_generated_cases_carry_valid_derivations():
    domain = domain_named(CFG.domain_name)
    for case in gen_well_typed(CFG):
        report = check_derivation(case.derivation, domain)
        assert report.ok, report.errors
        assert case.derivation.term == case.term
        assert case.derivation.ty == case.ty
        assert case.derivation.ctx == case.ctx


def _tree_digest(d: Derivation, memo: dict[int, bytes]) -> bytes:
    """Digest of the derivation read as a tree: equal digests mean equal
    trees, however the nodes are shared."""
    key = id(d)
    if key not in memo:
        h = hashlib.sha256(repr((d.rule, d.ctx, d.term, d.ty)).encode())
        for p in d.premises:
            h.update(_tree_digest(p, memo))
        memo[key] = h.digest()
    return memo[key]


def test_generated_derivations_equal_a_fresh_check():
    # gen_case types a whole case with one memoizing checker; the tree
    # it emits must be the one a fresh checker emits for the judgment.
    domain = domain_named(CFG.domain_name)
    for case in gen_well_typed(CFG):
        assert check_derivation(case.derivation, domain, CFG.fuel).ok
        fresh = check(case.ctx, case.term, case.ty, domain, CFG.fuel)
        assert _tree_digest(case.derivation, {}) == _tree_digest(fresh.derivation, {})


def _same_result(held, fresh) -> bool:
    if (held.verdict, held.message) != (fresh.verdict, fresh.message):
        return False
    if held.verdict is not Verdict.ACCEPTED:
        return True
    return _tree_digest(held.derivation, {}) == _tree_digest(fresh.derivation, {})


def test_case_checker_agrees_with_fresh_checks_on_reducts():
    # Subject reduction checks each reduct with the checker that typed
    # the case; its caches must not change any answer.
    cfg = GenConfig(seed=29, cases=200)
    domain = domain_named(cfg.domain_name)
    verdicts = Counter()
    for i in range(cfg.cases):
        tc = TypeChecker(domain, cfg.fuel)
        case = gen_case(cfg, i, tc=tc)
        for u in par_reducts(case.term, cap=4000):
            if u == case.term:
                continue
            held = tc.check(case.ctx, u, case.ty)
            fresh = check(case.ctx, u, case.ty, domain, cfg.fuel)
            assert _same_result(held, fresh), (i, u)
            verdicts[held.verdict] += 1
    assert verdicts[Verdict.ACCEPTED] >= 50, verdicts


def test_case_checker_agrees_with_fresh_checks_on_candidates():
    # Consistency checks a generated case's term against the empty type
    # with the checker that generated it.
    cfg = GenConfig(seed=29, cases=400)
    domain = domain_named(cfg.domain_name)
    verdicts = Counter()
    for i in range(1, cfg.cases, 2):
        tc = TypeChecker(domain, cfg.fuel)
        candidate = gen_case(cfg, i, closed=True, tc=tc).term
        held = tc.check((), candidate, Mty())
        fresh = check((), candidate, Mty(), domain, cfg.fuel)
        assert _same_result(held, fresh), (i, candidate)
        verdicts[held.verdict] += 1
    assert sum(verdicts.values()) == 200
    assert verdicts[Verdict.ACCEPTED] == 0, verdicts


def test_checker_returns_the_memoized_inference():
    case = gen_case(CFG, 3)
    tc = TypeChecker(domain_named(CFG.domain_name), CFG.fuel)
    first = tc.infer(case.ctx, case.term)
    again = tc.infer(case.ctx, case.term)
    assert again is first
    assert again[1] is first[1]


def test_closed_generation_has_empty_contexts():
    for case in gen_well_typed(GenConfig(seed=3, cases=60), closed=True):
        assert case.ctx == ()


def test_generation_is_deterministic():
    a = [(c.ctx, c.term, c.ty) for c in gen_well_typed(CFG)]
    b = [(c.ctx, c.term, c.ty) for c in gen_well_typed(CFG)]
    assert a == b


def test_distinct_seeds_give_distinct_streams():
    a = [c.term for c in gen_well_typed(GenConfig(seed=1, cases=40))]
    b = [c.term for c in gen_well_typed(GenConfig(seed=2, cases=40))]
    assert a != b


def _linear_weighted(rng: random.Random, options) -> str:
    """One ``randrange`` over the total weight, then a linear scan: the
    draw that fixes the generators' stream, kept as its oracle."""
    total = sum(w for _, w in options)
    roll = rng.randrange(total)
    for tag, w in options:
        roll -= w
        if roll < 0:
            return tag
    return options[-1][0]


def _generator_tables(monkeypatch) -> dict[tuple, str]:
    """Each option table the typed generators draw from over a run of
    cases, with the generator that built it."""
    tables: dict[tuple, str] = {}
    draw = harness._weighted

    def recorded(rng, options):
        tables.setdefault(tuple(options), sys._getframe(1).f_code.co_name)
        return draw(rng, options)

    monkeypatch.setattr(harness, "_weighted", recorded)
    for _ in gen_well_typed(GenConfig(seed=11, cases=200)):
        pass
    monkeypatch.undo()
    return tables


def test_weighted_draws_the_linear_scan_stream(monkeypatch):
    tables = _generator_tables(monkeypatch)
    assert set(tables.values()) == {"gen_context", "gen_type", "gen_term"}
    tables.update({harness._RAW_LEAVES: "gen_raw", harness._RAW_NODES: "gen_raw"})
    for n, options in enumerate(tables):
        got, want = random.Random(f"draws/{n}"), random.Random(f"draws/{n}")
        for _ in range(2000):
            assert harness._weighted(got, options) == _linear_weighted(want, options)
            assert got.getstate() == want.getstate()


def test_generators_draw_nothing_through_random_bounded_draws(monkeypatch):
    # Every bounded draw goes through levels.randbelow; a generator left
    # on randrange, choice or randint would call the patched methods.
    calls: list[str] = []

    def slow_path(name):
        def draw(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"Random.{name} called")

        return draw

    cfg = GenConfig(seed=7, cases=40)
    with monkeypatch.context() as m:
        for name in ("randrange", "choice", "randint"):
            m.setattr(random.Random, name, slow_path(name))
        for closed in (False, True):
            assert sum(1 for _ in gen_well_typed(cfg, closed)) == cfg.cases
        for i in range(cfg.cases):
            gen_raw(harness._rng_for(cfg, i), cfg.raw_size)
        for suite in SUITES:
            run_suite(suite, GenConfig(seed=7, cases=6))
        rng = random.Random(7)
        for domain in DOMAINS.values():
            for bound in (Finite(3), OmegaPlus(0), OmegaPlus(2)):
                for _ in range(20):
                    domain.sample(rng)
                    if domain.contains(bound):
                        domain.sample_below(rng, bound)
    assert calls == []


# SHA-256 over each case's final rng.getstate() for 200 open and 200
# closed typed cases and 200 gen_raw terms at seed 7: the generators must
# consume the stream as the randrange/choice/randint draws did, not only
# return the same outputs. Computed with those draws in place.
PINNED_FINAL_STATES = "baa376ef841d5b3c50fdd4c84b69e70dbf27b4cbea46b17607f048d10052a8f7"


def test_generators_leave_the_pinned_stream_states(monkeypatch):
    cfg = GenConfig(seed=7, cases=200)
    h = hashlib.sha256()
    rngs: list[random.Random] = []
    make = harness._rng_for

    def recorded(cfg: GenConfig, index: int) -> random.Random:
        rngs.append(make(cfg, index))
        return rngs[-1]

    monkeypatch.setattr(harness, "_rng_for", recorded)
    for closed in (False, True):
        for _ in gen_well_typed(cfg, closed):
            h.update(repr(rngs.pop().getstate()).encode())
    monkeypatch.undo()
    for i in range(cfg.cases):
        rng = harness._rng_for(cfg, i)
        gen_raw(rng, cfg.raw_size)
        h.update(repr(rng.getstate()).encode())
    assert h.hexdigest() == PINNED_FINAL_STATES


def test_gen_raw_is_deterministic_and_sized():
    a = gen_raw(random.Random("s/1"), 12)
    b = gen_raw(random.Random("s/1"), 12)
    assert a == b
    assert term_size(a) >= 1


# ---------------------------------------------------------------------------
# Suites (healthy runs)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes_on_healthy_kernel(suite):
    report = run_suite(suite, CFG)
    assert report.ok, report.summary()
    assert report.cases == CFG.cases


@pytest.mark.parametrize(
    "suite", ["subject-reduction", "progress", "canonicity", "consistency", "coverage"]
)
def test_fuel_exhaustion_is_undecided_not_a_failure(suite):
    report = run_suite(suite, GenConfig(seed=0, cases=50, fuel=0))
    assert report.failures == (), report.summary()
    assert report.undecided > 0


def test_subject_reduction_counts_its_fallbacks(monkeypatch):
    def explode(term, cap=0):
        raise ParExplosion("forced")

    cfg = GenConfig(seed=11, cases=20)
    monkeypatch.setattr(harness, "par_reducts", explode)
    report = run_suite("subject-reduction", cfg)
    assert report.ok, report.summary()
    assert report.fallbacks == cfg.cases
    assert f"fallbacks={cfg.cases} " in report.summary()


def test_diamond_counts_explosions_as_undecided(monkeypatch):
    def explode(term, cap=0):
        raise ParExplosion("forced")

    cfg = GenConfig(seed=11, cases=20)
    monkeypatch.setattr(harness, "par_reducts", explode)
    report = run_suite("diamond", cfg)
    assert report.failures == (), report.summary()
    assert report.undecided == cfg.cases
    assert f"undecided={cfg.cases} " in report.summary()


# The stream digests and counts of every suite at one seed; a change
# that alters what the suites generate or decide shows here.
PINNED_SUMMARIES = {
    "subject-reduction": "a605d02b4cfe24e4",
    "coverage": "a605d02b4cfe24e4",
    "diamond": "49df8c8e315c8a72",
    "progress": "d822a52922a0971d",
    "canonicity": "d822a52922a0971d",
    "consistency": "5535c3678f5bc451",
}


def test_suite_digests_are_pinned():
    cfg = GenConfig(seed=7, cases=200)
    got = {}
    for name in SUITES:
        r = run_suite(name, cfg)
        got[name] = (r.digest, len(r.failures), r.undecided, r.fallbacks)
    assert got == {name: (d, 0, 0, 0) for name, d in PINNED_SUMMARIES.items()}


# The same, in the naturals-only domain.
PINNED_NAT_SUMMARIES = {
    "subject-reduction": "e7685a6ecaa8d4c4",
    "coverage": "e7685a6ecaa8d4c4",
    "diamond": "49df8c8e315c8a72",
    "progress": "ea1b1824bbbae09e",
    "canonicity": "ea1b1824bbbae09e",
    "consistency": "ade68e0fc40e7331",
}


def test_nat_suite_digests_are_pinned():
    cfg = GenConfig(seed=7, cases=200, domain_name="nat")
    got = {}
    for name in SUITES:
        r = run_suite(name, cfg)
        got[name] = (r.digest, len(r.failures), r.undecided, r.fallbacks)
    assert got == {name: (d, 0, 0, 0) for name, d in PINNED_NAT_SUMMARIES.items()}


# A digest of the derivation trees the checker emits for 300 generated
# cases in each shipped domain; a change to what it emits shows here.
PINNED_DERIVATIONS = {"nat-omega": "99c06261a2db0cee", "nat": "50cbabf8781c0cd6"}


@pytest.mark.parametrize("domain_name", sorted(PINNED_DERIVATIONS))
def test_emitted_derivations_are_pinned(domain_name):
    h = hashlib.sha256()
    for case in gen_well_typed(GenConfig(seed=13, cases=300, domain_name=domain_name)):
        h.update(_tree_digest(case.derivation, {}))
    assert h.hexdigest()[:16] == PINNED_DERIVATIONS[domain_name]


def test_subject_reduction_conversions_and_lookups_are_counted(monkeypatch):
    # Equal sides and literal pairs are decided without normalizing,
    # and the generators read each context's types once per call.
    counts = Counter()
    convertible, ctx_lookup = checker_mod.convertible, subst.ctx_lookup

    def counted_convertible(*args):
        counts["convertible"] += 1
        return convertible(*args)

    def counted_lookup(ctx, ix):
        counts["ctx_lookup"] += 1
        return ctx_lookup(ctx, ix)

    monkeypatch.setattr(checker_mod, "convertible", counted_convertible)
    monkeypatch.setattr(subst, "ctx_lookup", counted_lookup)
    report = run_suite("subject-reduction", GenConfig(seed=7, cases=200))
    assert report.digest == PINNED_SUMMARIES["subject-reduction"]
    assert counts["convertible"] <= 111, counts
    assert counts["ctx_lookup"] <= 1261, counts


def test_suite_reports_are_reproducible():
    a = run_suite("subject-reduction", CFG)
    b = run_suite("subject-reduction", CFG)
    assert a.digest == b.digest
    assert a.failures == b.failures


def test_suites_differ_by_seed():
    a = run_suite("diamond", GenConfig(seed=5, cases=50))
    b = run_suite("diamond", GenConfig(seed=6, cases=50))
    assert a.digest != b.digest


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense", CFG)


def test_coverage_hits_every_rule():
    report = run_suite("coverage", GenConfig(seed=11, cases=500))
    assert report.ok, report.summary()
    fractions = dict(report.coverage)
    assert set(fractions) == set(RULES)
    for rule in RULES:
        assert fractions[rule] >= 0.01, f"{rule} below 1%"


def test_rules_in_walks_premises():
    case = gen_case(GenConfig(seed=11, cases=1), 0)
    rules = rules_in(case.derivation)
    assert case.derivation.rule in rules
    assert "Nil" in rules


def test_rules_in_reads_each_distinct_node_once():
    # 30 levels, each a node whose two premises are the level below: 31
    # distinct nodes, 2**31 - 1 nodes as a tree.
    reads = 0

    class Counted(Derivation):
        __slots__ = ()

    def premises(node: Derivation) -> tuple:
        nonlocal reads
        reads += 1
        assert reads <= 1000, "rules_in walks the derivation as a tree"
        return tuple.__getitem__(node, 4)

    Counted.premises = property(premises)
    d = Counted("Nil", (), None, None)
    for _ in range(30):
        d = Counted("Trans", (), None, None, (d, d))
    assert rules_in(d) == {"Nil", "Trans"}
    assert reads == 31


# ---------------------------------------------------------------------------
# Shrinking


def test_shrink_term_minimizes_under_predicate():
    big = App(Lam(Mty(), App(Lam(Mty(), Var(0)), Var(0))), Lvl(NAT_OMEGA.zero()))

    def has_app(t: Term) -> bool:
        return isinstance(t, App)

    small = shrink_term(big, has_app)
    assert isinstance(small, App)
    assert term_size(small) <= 3


def test_shrink_keeps_term_when_nothing_smaller_fails():
    t = Lvl(NAT_OMEGA.zero())
    assert shrink_term(t, lambda s: s == t) == t


# ---------------------------------------------------------------------------
# Mutation canary

CANARY_CFG = GenConfig(seed=11, cases=500, max_size=20)


def test_broken_substitution_restores_itself():
    from ulevels import subst

    original = subst.shift
    with broken_substitution():
        assert subst.shift is not original
        assert subst1(Lam(Mty(), Var(1)), Var(0)) == Lam(Mty(), Var(0))
    assert subst.shift is original
    assert subst1(Lam(Mty(), Var(1)), Var(0)) == Lam(Mty(), Var(1))


@pytest.mark.parametrize(
    "suite", ["subject-reduction", "diamond", "progress", "canonicity"]
)
def test_canary_is_caught_by_each_dynamic_suite(suite):
    with broken_substitution():
        report = run_suite(suite, CANARY_CFG)
    assert report.failures, f"{suite} missed the broken substitution"
