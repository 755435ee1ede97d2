"""Generator determinism, property suites, coverage, and the canary."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from ulevels import checker as checker_mod
from ulevels import harness, subst
from ulevels.checker import (
    RULES,
    CheckResult,
    Derivation,
    FuelError,
    TypeChecker,
    Verdict,
    check,
    check_derivation,
)
from ulevels.harness import (
    GenConfig,
    GenError,
    PropertyReport,
    SUITES,
    broken_substitution,
    gen_case,
    gen_raw,
    run_suite,
    rules_in,
    shrink_term,
)
from ulevels.levels import DOMAINS, NAT_OMEGA, Finite, OmegaPlus, domain_named
from ulevels.reduction import EvalOutcome, ParExplosion, par_reducts
from ulevels.subst import subst1
from ulevels.terms import App, Lam, LevelLt, Lvl, Mty, Pi, Term, Univ, Var, term_size
import random
import sys

CFG = GenConfig(seed=11, cases=120)


# ---------------------------------------------------------------------------
# Generation


def _cases(cfg: GenConfig, closed: bool = False):
    """Cases 0 to ``cfg.cases - 1`` of ``cfg``, generated one at a time."""
    return (gen_case(cfg, i, closed=closed) for i in range(cfg.cases))


def test_generated_cases_carry_valid_derivations():
    domain = domain_named(CFG.domain_name)
    for case in _cases(CFG):
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
    for case in _cases(CFG):
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
    for case in _cases(GenConfig(seed=3, cases=60), closed=True):
        assert case.ctx == ()


def test_generation_is_deterministic():
    a = [(c.ctx, c.term, c.ty) for c in _cases(CFG)]
    b = [(c.ctx, c.term, c.ty) for c in _cases(CFG)]
    assert a == b


def test_distinct_seeds_give_distinct_streams():
    a = [c.term for c in _cases(GenConfig(seed=1, cases=40))]
    b = [c.term for c in _cases(GenConfig(seed=2, cases=40))]
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
    for _ in _cases(GenConfig(seed=11, cases=200)):
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
            assert sum(1 for _ in _cases(cfg, closed)) == cfg.cases
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
        for _ in _cases(cfg, closed):
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


def test_gen_case_lets_running_out_of_fuel_in_inference_through(monkeypatch):
    # Only gen_case's own inference of the generated term runs out; the
    # generator's inferences of redex arguments run as usual.
    infer = TypeChecker.infer

    def out_of_fuel(self, ctx, t):
        if sys._getframe(1).f_code is gen_case.__code__:
            raise FuelError("inference out of fuel")
        return infer(self, ctx, t)

    monkeypatch.setattr(TypeChecker, "infer", out_of_fuel)
    cfg = GenConfig(seed=0, cases=10)
    with pytest.raises(FuelError, match="^inference out of fuel$"):
        gen_case(cfg, 0)
    report = run_suite("progress", cfg)
    assert (report.failures, report.undecided) == ((), cfg.cases)


def test_gen_case_raises_gen_error_on_a_rejected_judgment(monkeypatch):
    def rejects(self, ctx, t, ty):
        return CheckResult(Verdict.REJECTED, "forced")

    monkeypatch.setattr(TypeChecker, "check", rejects)
    cfg = GenConfig(seed=0, cases=3)
    rejected = "case {}: generated judgment rejected: forced"
    with pytest.raises(GenError, match=f"^{rejected.format(0)}$"):
        gen_case(cfg, 0)
    report = run_suite("progress", cfg)
    assert report.failures == tuple(
        f"case {i}: internal error: GenError('{rejected.format(i)}')"
        for i in range(cfg.cases)
    )


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


# The share of cases using each rule in the coverage suite at the same
# seed; a walk that misses a rule in some cases shows here.
PINNED_COVERAGE = (
    ("Nil", 1.0),
    ("Cons", 0.925),
    ("Var", 0.755),
    ("Pi", 0.615),
    ("Lam", 0.47),
    ("App", 0.39),
    ("Mty", 0.54),
    ("Abs", 0.105),
    ("Conv", 0.22),
    ("Univ", 0.965),
    ("LevelLt", 0.7),
    ("Lvl", 1.0),
    ("Trans", 0.095),
    ("Cumul", 0.335),
)


def test_suite_digests_are_pinned():
    cfg = GenConfig(seed=7, cases=200)
    got = {}
    for name in SUITES:
        r = run_suite(name, cfg)
        got[name] = (r.digest, len(r.failures), r.undecided, r.fallbacks)
        if name == "coverage":
            assert r.coverage == PINNED_COVERAGE
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


def test_the_literal_table_stays_small_over_the_suites():
    # One entry per distinct literal a process types, whatever the case count.
    table = checker_mod._literal_type
    table.cache_clear()
    for domain_name in DOMAINS:
        for name in SUITES:
            run_suite(name, GenConfig(seed=7, cases=200, domain_name=domain_name))
    assert 0 < table.cache_info().currsize <= 40


# A digest of the derivation trees the checker emits for 300 generated
# cases in each shipped domain; a change to what it emits shows here.
PINNED_DERIVATIONS = {"nat-omega": "99c06261a2db0cee", "nat": "50cbabf8781c0cd6"}


@pytest.mark.parametrize("domain_name", sorted(PINNED_DERIVATIONS))
def test_emitted_derivations_are_pinned(domain_name):
    h = hashlib.sha256()
    for case in _cases(GenConfig(seed=13, cases=300, domain_name=domain_name)):
        h.update(_tree_digest(case.derivation, {}))
    assert h.hexdigest()[:16] == PINNED_DERIVATIONS[domain_name]


def test_subject_reduction_conversions_and_lookups_are_counted(monkeypatch):
    # The checker decides conversion on its own normal forms, never by
    # ``convertible``, and the generators read each context's types once
    # per call.
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
    assert counts["convertible"] == 0, counts
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


def test_shrink_term_stops_at_its_budget():
    big = App(Lam(Mty(), Var(0)), Lvl(NAT_OMEGA.zero()))
    tried = []

    def fails(t: Term) -> bool:
        tried.append(t)
        return True

    # The candidate that spends the budget is not tried.
    assert shrink_term(big, fails, budget=1) == big and tried == []
    assert shrink_term(big, fails, budget=2) == Mty() and tried == [Mty()]


def test_shrink_term_counts_a_raising_predicate_as_passing():
    big = App(Lam(Mty(), Var(0)), Lvl(NAT_OMEGA.zero()))

    def raises(t: Term) -> bool:
        raise RuntimeError("predicate failed")

    assert shrink_term(big, raises) == big


# ---------------------------------------------------------------------------
# Reports


def test_summary_lists_ten_failures_and_counts_the_rest():
    report = PropertyReport(
        suite="diamond", cases=12, failures=tuple(f"case {i}" for i in range(12)),
        undecided=0, fallbacks=0, digest="0" * 16, elapsed=0.0,
    )
    lines = report.summary().splitlines()
    assert lines[1:] == [f"  FAIL case {i}" for i in range(10)] + ["  ... and 2 more"]


def _lvl(n: int) -> Lvl:
    return Lvl(Finite(n))


CANONICITY = {
    "type-former": (Pi(Mty(), Mty()), Univ(_lvl(0)), None),
    "literal": (_lvl(0), LevelLt(_lvl(1)), None),
    "abstraction": (Lam(Mty(), Var(0)), Pi(Mty(), Mty()), None),
    "not-a-type-former": (
        _lvl(0), Univ(_lvl(0)),
        "value of a universe is not a type former: Lvl(value=Finite(n=0))",
    ),
    "not-a-literal": (
        Mty(), LevelLt(_lvl(1)), "value of a bound type is not a level literal: Mty()",
    ),
    "open-bound": (
        _lvl(0), LevelLt(Var(0)),
        "closed level bound did not normalize to a literal: Var(ix=0)",
    ),
    "not-below": (
        _lvl(1), LevelLt(_lvl(1)),
        "level Lvl(value=Finite(n=1)) is not strictly below its bound "
        "Lvl(value=Finite(n=1))",
    ),
    "not-an-abstraction": (
        Mty(), Pi(Mty(), Mty()),
        "value of a function type is not an abstraction: Mty()",
    ),
    "empty-type": (_lvl(0), Mty(), "closed inhabitant of the empty type"),
    "no-former": (
        _lvl(0), Var(0),
        "closed type did not normalize to a recognized former: Var(ix=0)",
    ),
}


@pytest.mark.parametrize("value, n_ty, message", CANONICITY.values(), ids=CANONICITY)
def test_canonicity_oracle_names_each_mismatch(value, n_ty, message):
    assert harness._canonical_mismatch(value, n_ty, NAT_OMEGA, 100) == message


# ---------------------------------------------------------------------------
# Suite branches that sound code never reaches, driven by a patched verdict

PATCHED_CFG = GenConfig(seed=11, cases=8)
STUCK = App(Mty(), Mty())


@pytest.mark.parametrize(
    "suite, outcome, oracle",
    [
        ("progress", EvalOutcome.STUCK, "closed well-typed term got stuck at"),
        ("canonicity", EvalOutcome.STUCK, "closed term stuck at"),
        ("canonicity", EvalOutcome.VALUE, "value of a"),
    ],
    ids=["progress-stuck", "canonicity-stuck", "canonicity-mismatch"],
)
def test_evaluation_suites_fail_a_bad_evaluation(monkeypatch, suite, outcome, oracle):
    monkeypatch.setattr(harness, "cbn_eval", lambda t, fuel: (STUCK, outcome))
    report = run_suite(suite, PATCHED_CFG)
    assert len(report.failures) == PATCHED_CFG.cases
    for i, failure in enumerate(report.failures):
        assert failure.startswith(f"case {i}: {oracle}"), failure
        assert repr(STUCK) in failure, failure


@pytest.mark.parametrize("verdict", [Verdict.ACCEPTED, Verdict.UNDECIDED])
def test_consistency_reports_what_check_says_of_bot(monkeypatch, verdict):
    real = TypeChecker.check

    def forced(self, ctx, t, ty):
        return CheckResult(verdict) if ty == Mty() else real(self, ctx, t, ty)

    monkeypatch.setattr(TypeChecker, "check", forced)
    report = run_suite("consistency", PATCHED_CFG)
    if verdict is Verdict.ACCEPTED:
        assert [f.split(": ")[:2] for f in report.failures] == [
            [f"case {i}", "closed proof of the empty type accepted"]
            for i in range(PATCHED_CFG.cases)
        ]
        assert report.undecided == 0
    else:
        assert report.failures == ()
        assert report.undecided == PATCHED_CFG.cases


def test_subject_reduction_counts_each_undecided_case(monkeypatch):
    # Each case generates as usual, and then every check of a reduct is
    # undecided, except that the last reduct of case 36 is rejected:
    # that case is a failure only, and every other case with a reduct is
    # undecided once, however many reducts it has.
    cfg = GenConfig(seed=11, cases=40)
    steps = [
        [u for u in par_reducts(t) if u != t]
        for t in (gen_case(cfg, i).term for i in range(cfg.cases))
    ]
    assert [i for i, us in enumerate(steps) if len(us) > 1] == [24, 36]
    lost = steps[36][-1]
    generate = harness.gen_case

    def gen_then_force(cfg, index, domain=None, closed=False, *, tc):
        case = generate(cfg, index, domain, closed, tc=tc)
        tc.check = lambda ctx, t, ty: CheckResult(
            Verdict.REJECTED if t == lost else Verdict.UNDECIDED
        )
        return case

    monkeypatch.setattr(harness, "gen_case", gen_then_force)
    report = run_suite("subject-reduction", cfg)
    assert [f.split(";")[0] for f in report.failures] == [
        "case 36: type lost after reduction"
    ]
    assert sum(map(len, steps)) == 14
    assert report.undecided == sum(1 for us in steps if us) - 1 == 11


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


# Where each suite's failures under the canary come from: its own oracle,
# or an internal error while building the case. Evaluating a closed term
# substitutes only closed arguments, and shifting a closed term changes
# nothing, so progress and canonicity see the canary only when their
# generator fails.
CANARY_SOURCES = {
    "subject-reduction": {"type lost after reduction": 1, "internal error": 17},
    "diamond": {"reduct does not rejoin": 19},
    "progress": {"internal error: GenError": 1},
    "canonicity": {"internal error: GenError": 1},
}


@pytest.mark.parametrize("suite", CANARY_SOURCES)
def test_canary_is_caught_by_each_dynamic_suite(suite):
    with broken_substitution():
        report = run_suite(suite, CANARY_CFG)
    sources = CANARY_SOURCES[suite]
    # A failure from no expected source counts under its whole message.
    found = Counter(
        next((s for s in sources if f.split(": ", 1)[1].startswith(s)), f)
        for f in report.failures
    )
    assert found == sources
