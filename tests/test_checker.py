"""Derivations, the derivation checker, and the algorithmic checker."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from operator import attrgetter
from pathlib import Path

import pytest

from ulevels import checker as checker_mod
from ulevels import harness, levels, reduction, subst
from ulevels.checker import (
    CheckResult,
    Derivation,
    DerivationReport,
    FuelError,
    TypeChecker,
    TypingError,
    Verdict,
    check,
    check_context,
    check_derivation,
    derivation_from_doc,
    derivation_to_doc,
    elaborate_lam_prime,
    infer,
    infer_with_derivation,
    level_lt_check,
    postorder,
    search_derivation,
)
from ulevels.levels import NAT, NAT_OMEGA, Finite, OmegaPlus
from ulevels.reduction import Convertibility, convertible
from ulevels.surface import check_module, format_report, parse
from ulevels.terms import (
    Absurd,
    App,
    Lam,
    LevelLt,
    Lvl,
    Mty,
    Pi,
    Term,
    Univ,
    Var,
    children,
)


def U(n: int) -> Univ:
    return Univ(Lvl(Finite(n)))


def L(n: int) -> LevelLt:
    return LevelLt(Lvl(Finite(n)))


SRC = Path(__file__).resolve().parent.parent / "src"
CORPUS = SRC.parent / "corpus"
OMEGA = Lvl(OmegaPlus(0))
U_OMEGA = Univ(OMEGA)
premises = attrgetter("premises")
IDENT = Lam(Mty(), Var(0))
LOOP = App(Lam(Mty(), App(Var(0), Var(0))), Lam(Mty(), App(Var(0), Var(0))))


def accepted(ctx, t, ty, domain=NAT_OMEGA, fuel=10_000) -> Derivation:
    res = check(ctx, t, ty, domain, fuel)
    assert res.verdict is Verdict.ACCEPTED, res.message
    report = check_derivation(res.derivation, domain, fuel)
    assert report.ok, report.errors
    return res.derivation


def rejected(ctx, t, ty, domain=NAT_OMEGA, fuel=10_000) -> str:
    res = check(ctx, t, ty, domain, fuel)
    assert res.verdict is Verdict.REJECTED, res.verdict
    return res.message


# -- inference basics


def test_infer_universe_of_universe():
    assert infer((), U(0)) == U(1)


def test_infer_level_literal():
    assert infer((), Lvl(Finite(2))) == LevelLt(Lvl(Finite(3)))
    assert infer((), OMEGA) == LevelLt(Lvl(OmegaPlus(1)))


def test_infer_empty_type_sits_in_the_bottom_universe():
    assert infer((), Mty()) == U(0)


def test_infer_level_lt_type():
    assert infer((), LevelLt(Lvl(Finite(2)))) == U(0)


def test_infer_variable_shifts():
    ctx = (U_OMEGA, Var(0))
    assert infer(ctx, Var(0)) == Var(1)
    assert infer(ctx, Var(1)) == U_OMEGA


def test_infer_unbound_variable():
    with pytest.raises(TypingError, match="unbound variable"):
        infer((), Var(0))


def test_infer_non_function_application():
    with pytest.raises(TypingError, match="non-function"):
        infer((), App(Mty(), Mty()))


# A context whose one entry is a type only after a beta step.
BOT_REDEX = (App(Lam(U(1), Var(0)), Mty()),)


@pytest.mark.parametrize(
    "ctx, t, message",
    [
        ((), Pi(Lvl(Finite(0)), Mty()), "not a type: 0 has type Level< 1"),
        ((), Univ(Mty()), "not a level: Bot has type U 0"),
        ((), App(Mty(), Mty()), "application of a non-function: Bot has type U 0"),
        (BOT_REDEX, Pi(Var(0), Mty()), "not a type: ?0 has type (fun (x : U 1) . x) Bot"),
        (BOT_REDEX, Univ(Var(0)), "not a level: ?0 has type (fun (x : U 1) . x) Bot"),
        (
            BOT_REDEX,
            App(Var(0), Mty()),
            "application of a non-function: ?0 has type (fun (x : U 1) . x) Bot",
        ),
    ],
    ids=["type", "level", "function", "type-redex", "level-redex", "function-redex"],
)
def test_head_rejections_name_the_inferred_type(ctx, t, message):
    # A subject whose type lacks the wanted head, before or after
    # normalization, is rejected with the type as inferred.
    with pytest.raises(TypingError) as e:
        infer(ctx, t)
    assert str(e.value) == message


def test_infer_rejects_omega_literal_in_nat_domain():
    with pytest.raises(TypingError, match="outside domain"):
        infer((), OMEGA, domain=NAT)


def test_infer_pi_joins_universes():
    # Bot : U 0 and U 1 : U 2 force the function type up to U 2.
    ty = infer((), Pi(Mty(), U(1)))
    assert ty == U(2)


def test_infer_dependent_application_instantiates():
    fn_ty = Pi(LevelLt(OMEGA), Pi(Univ(Var(0)), Univ(Var(1))))
    ctx = (fn_ty,)
    t = App(App(Var(0), Lvl(Finite(2))), Mty())
    assert infer(ctx, t) == U(2)
    _, d = infer_with_derivation(ctx, t)
    assert check_derivation(d).ok


def test_infer_emits_validating_derivations():
    samples = [
        ((), U(0)),
        ((), Pi(Mty(), U(1))),
        ((), Lam(U(1), Var(0))),
        ((), Absurd(U(3), App(IDENT, Var(0)))),
    ]
    for ctx, t in samples[:3]:
        _, d = infer_with_derivation(ctx, t)
        report = check_derivation(d)
        assert report.ok, report.errors


# -- frozen judgment examples


def test_small_level_inhabits_its_bound():
    accepted((), Lvl(Finite(2)), LevelLt(Lvl(Finite(3))))


def test_level_at_its_own_bound_rejected():
    rejected((), Lvl(Finite(3)), LevelLt(Lvl(Finite(3))))


def test_bound_type_lives_in_the_bottom_universe():
    accepted((), LevelLt(Lvl(Finite(2))), U(0))


def test_bound_type_lives_in_any_universe():
    accepted((), LevelLt(Lvl(Finite(2))), U_OMEGA)


def test_transitive_bound_through_context():
    ctx = (LevelLt(OMEGA), LevelLt(Var(0)))
    assert check_context(ctx)
    accepted(ctx, Var(1), LevelLt(OMEGA))
    accepted(ctx, Var(0), LevelLt(OMEGA))


def test_level_hops_share_the_inferred_variable_node():
    # A : U x lifts to U 5 by Cumul, whose level premise hops from x to
    # its declared bound 3; that hop starts from the memoized Var node.
    ctx = (LevelLt(Lvl(Finite(3))), Univ(Var(0)))
    tc = TypeChecker()
    res = tc.check(ctx, Var(0), U(5))
    assert res.verdict is Verdict.ACCEPTED, res.message
    assert check_derivation(res.derivation).ok
    _, d_x = tc.infer(ctx, Var(1))
    found = [
        d
        for d in postorder(res.derivation, premises)
        if (d.rule, d.term) == ("Var", Var(1))
    ]
    assert len(found) == 1 and found[0] is d_x


def test_level_lt_check_walks_context_bounds():
    ctx = (LevelLt(OMEGA), LevelLt(Var(0)))
    assert level_lt_check(ctx, Var(0), OMEGA)
    assert level_lt_check(ctx, Var(1), OMEGA)
    assert not level_lt_check(ctx, OMEGA, Var(0))


def test_level_is_not_below_itself():
    ctx = (LevelLt(Lvl(Finite(1))),)
    assert not level_lt_check(ctx, Var(0), Var(0))
    assert not TypeChecker().level_below(ctx, Var(0), Var(0))
    rejected(ctx, Var(0), LevelLt(Var(0)))


def test_level_lt_check_climbs_like_the_checker():
    # Level< Bot does not type, so neither does the context: the level
    # search, check and level_lt_check all say no.
    ctx = (LevelLt(Mty()),)
    assert not TypeChecker().level_below(ctx, Var(0), Mty())
    rejected(ctx, Var(0), LevelLt(Mty()))
    assert not level_lt_check(ctx, Var(0), Mty())


def test_climb_types_an_absurd_level_before_reading_its_bound():
    # absurd [Level< 3] #0 has the bound 3 only where #0 refutes: the
    # climb infers that bound, so it agrees with check in both contexts.
    lo, five = Absurd(LevelLt(Lvl(Finite(3))), Var(0)), Lvl(Finite(5))
    refuting, ill_typed = (Mty(),), (U(0),)
    assert TypeChecker().level_below(refuting, lo, five)
    accepted(refuting, lo, LevelLt(five))
    assert level_lt_check(refuting, lo, five)
    assert not TypeChecker().level_below(ill_typed, lo, five)
    rejected(ill_typed, lo, LevelLt(five))
    assert not level_lt_check(ill_typed, lo, five)


def test_climb_stops_at_a_variable_out_of_scope():
    assert not TypeChecker().level_below((), Var(3), Lvl(Finite(5)))


# What check mode says when its last step fails: a type of another head,
# or a level not below the target's, for a literal (the Lvl rule) or in
# the level premise of a Cumul or Trans.
SUBSUMPTION_REJECTIONS = [
    ((), Lvl(Finite(0)), U(0), "type mismatch: expected U 0, got Level< 1"),
    ((), U(0), L(3), "type mismatch: expected Level< 3, got U 1"),
    ((), Mty(), L(3), "type mismatch: expected Level< 3, got U 0"),
    ((), U(5), U(0), "level bound fails: 5 is not below 0"),
    ((), Lvl(Finite(5)), L(2), "level bound fails: 5 is not below 2"),
    ((), Pi(U(0), U(0)), U(0), "level bound fails: 0 is not below 0"),
    ((U(5),), Var(0), U(0), "level bound fails: 5 is not below 0"),
    ((LevelLt(OMEGA),), Var(0), L(3), "level bound fails: omega is not below 3"),
    ((LevelLt(OMEGA),), Univ(Var(0)), U(3), "level bound fails: omega is not below 3"),
    (
        (LevelLt(OMEGA), LevelLt(OMEGA)),
        Var(0),
        LevelLt(Var(1)),
        "level bound not established: omega below ?1",
    ),
]


@pytest.mark.parametrize("ctx, t, ty, message", SUBSUMPTION_REJECTIONS)
def test_subsumption_rejections_name_the_failed_step(ctx, t, ty, message):
    assert rejected(ctx, t, ty) == message


def test_climb_is_undecided_when_a_bound_runs_out_of_fuel(monkeypatch):
    # #0 : Level< absurd [Level< 3] #1 and the absurd level is below 3,
    # so #0 : Level< 5 climbs through the absurd level's inferred bound.
    # When that inference runs out of fuel the climb is undecided: it
    # must not stop as though the level had no bound.
    lo = Absurd(LevelLt(Lvl(Finite(3))), Var(0))
    ctx, goal = (Mty(), LevelLt(lo)), LevelLt(Lvl(Finite(5)))
    accepted(ctx, Var(0), goal)
    infer_level = TypeChecker.infer_level

    def out_of_fuel(self, at, t):
        # The context's own typing infers ``lo`` one entry earlier.
        if at == ctx and isinstance(t, Absurd):
            raise FuelError("bound out of fuel")
        return infer_level(self, at, t)

    monkeypatch.setattr(TypeChecker, "infer_level", out_of_fuel)
    res = check(ctx, Var(0), goal)
    assert (res.verdict, res.message) == (Verdict.UNDECIDED, "bound out of fuel")


@pytest.fixture
def literal_infers(monkeypatch):
    """The literals ``TypeChecker.infer`` is called on, cache hits
    included: climbing past a literal would infer it to read its bound."""
    calls = []
    infer = TypeChecker.infer

    def counted(self, ctx, t):
        if isinstance(t, Lvl):
            calls.append(t)
        return infer(self, ctx, t)

    monkeypatch.setattr(TypeChecker, "infer", counted)
    return calls


def _typed(ctx, literal_infers):
    """A checker that has typed ``ctx``, which infers the literals in
    it, with those inferences left uncounted."""
    tc = TypeChecker()
    tc.ctx_derivation(ctx)
    literal_infers.clear()
    return tc


def test_the_climb_ends_at_its_first_literal(literal_infers):
    # The Lvl rule's bound of a literal is only the next literal, so the
    # climb stops at the first literal it yields, inferring none.
    ctx = (LevelLt(Lvl(Finite(5))), LevelLt(Var(0)))
    tc = _typed(ctx, literal_infers)
    assert list(tc._climb(ctx, Var(0))) == [Var(0), Var(1), Lvl(Finite(5))]
    assert list(tc._climb((), Lvl(Finite(3)))) == [Lvl(Finite(3))]
    assert literal_infers == []


def test_level_search_decides_at_a_literal(literal_infers):
    ctx = (LevelLt(Lvl(Finite(5))),)
    assert not _typed(ctx, literal_infers).level_below(ctx, Lvl(Finite(0)), Var(0))
    assert literal_infers == []


def test_join_skips_a_literal_climb_that_cannot_help(literal_infers):
    # A finite literal never climbs to omega, so joining 3 with a
    # variable below omega climbs from the variable instead.
    ctx = (LevelLt(OMEGA),)
    assert _typed(ctx, literal_infers)._join_levels(ctx, Lvl(Finite(3)), Var(0)) == OMEGA
    assert literal_infers == []


class Fin4(levels.NatDomain):
    """Test-only: the levels 0 to 3, with no level above 3."""

    name = "fin4"

    def contains(self, value):
        return isinstance(value, Finite) and value.n < 4


def test_a_literal_with_no_level_above_it_is_rejected():
    tc = TypeChecker(Fin4())
    with pytest.raises(TypingError, match="3 has no level above it in domain fin4"):
        tc.infer((), Lvl(Finite(3)))
    with pytest.raises(TypingError, match="no level above"):
        tc.infer((), U(3))
    # What the checker would claim otherwise, and the validator refutes.
    claim = Derivation(
        "Lvl", (), Lvl(Finite(3)), LevelLt(Lvl(Finite(4))),
        (tc.ctx_derivation(()),),
    )
    assert "Lvl: level outside the domain" in check_derivation(claim, Fin4()).errors[0]


def test_check_rejects_an_expected_type_bounded_by_the_top():
    # ``check`` types the expected type first, and the LevelLt rule types
    # its bound as a level: ``Level< 3`` does not type in fin4, since 3
    # has no level above it. ``infer`` still gives 2 that type, whose
    # derivation validates; regularity fails there.
    fin4 = Fin4()
    tc = TypeChecker(fin4)
    r = tc.check((), Lvl(Finite(2)), LevelLt(Lvl(Finite(3))))
    assert r.verdict is Verdict.REJECTED
    assert r.message == "level literal 3 has no level above it in domain fin4"
    ty, d = tc.infer((), Lvl(Finite(2)))
    assert ty == LevelLt(Lvl(Finite(3))) and check_derivation(d, fin4).ok


def test_level_below_types_its_bound_before_normalizing_it(monkeypatch):
    # ``Level< Ω`` does not type, so no rule derives ``0 : Level< Ω``;
    # both helpers say so without normalizing Ω. In fin4 ``Level< 3``
    # does not type either, and the level search agrees with ``check``.
    normalized = []
    norm = TypeChecker._norm

    def recorded(self, t):
        normalized.append(t)
        return norm(self, t)

    monkeypatch.setattr(TypeChecker, "_norm", recorded)
    zero = Lvl(Finite(0))
    assert not TypeChecker().level_below((), zero, LOOP)
    assert not level_lt_check((), zero, LOOP)
    assert LOOP not in normalized
    assert not TypeChecker(Fin4()).level_below((), Lvl(Finite(2)), Lvl(Finite(3)))


@pytest.mark.parametrize("domain", [NAT, NAT_OMEGA, Fin4()], ids=attrgetter("name"))
def test_a_checked_literal_takes_the_level_search(domain):
    # Check mode derives ``i : Level< j`` for literals along the level
    # search's trail: accepted exactly where ``level_below`` says yes,
    # with the derivation the search builds. Literals outside the
    # domain included.
    values = [Finite(n) for n in range(6)] + [OmegaPlus(n) for n in range(3)]
    tc = TypeChecker(domain)
    answers = Counter()
    for i in values:
        for j in values:
            a, b = Lvl(i), Lvl(j)
            r = tc.check((), a, LevelLt(b))
            below = tc.level_below((), a, b)
            assert bool(r) is below, (i, j, r.message)
            if below:
                d = tc._derive_level_below((), a, b)
                assert derivation_to_doc(r.derivation) == derivation_to_doc(d)
            answers[below] += 1
    assert answers[True] and answers[False], answers


# Each generated judgment's type by its head class, 1,000 cases per
# domain at seed 5.
REGULARITY = {
    "nat": {"App": 199, "LevelLt": 298, "Mty": 38, "Pi": 189, "Univ": 265, "Var": 11},
    "nat-omega": {"App": 191, "LevelLt": 283, "Mty": 46, "Pi": 194, "Univ": 278, "Var": 8},
}


@pytest.mark.parametrize("name", sorted(REGULARITY))
def test_every_accepted_type_has_a_universe(name):
    # Regularity: every accepted ``ctx |- a : A`` has ``ctx |- A : U k``.
    # ``infer`` types ``A`` at a type that is a universe after ``whnf``,
    # and that derivation validates. The test-only ``Fin4`` is left out:
    # at its top regularity fails (the ``FOUND:`` entry on ``Fin4`` in
    # CHANGES.md).
    cfg = harness.GenConfig(seed=5, cases=1000, domain_name=name)
    domain = cfg.domain
    heads: Counter[str] = Counter()
    for index in range(cfg.cases):
        case = harness.gen_case(cfg, index, domain)
        ty, d = TypeChecker(domain, cfg.fuel).infer(case.ctx, case.ty)
        head, done = reduction.whnf(ty, cfg.fuel)
        assert done and isinstance(head, Univ), (index, ty)
        assert (d.ctx, d.term, d.ty) == (case.ctx, case.ty, ty)
        assert check_derivation(d, domain, cfg.fuel).ok, index
        heads[type(case.ty).__name__] += 1
    assert heads == REGULARITY[name]


def test_the_checker_takes_no_call_by_name_step(monkeypatch):
    # Heads come from the memoized normal form: with ``cbn_step``
    # disabled, the corpus reports and generated derivations are as
    # before.
    from test_acceptance import EXPECTED_REPORTS

    cfgs = [harness.GenConfig(seed=5, cases=150, domain_name=n) for n in ("nat", "nat-omega")]

    def derivations():
        return [
            derivation_to_doc(harness.gen_case(cfg, i).derivation, cfg.domain)
            for cfg in cfgs
            for i in range(cfg.cases)
        ]

    before = derivations()

    def no_step(term):
        raise AssertionError(f"call-by-name step on {term!r}")

    monkeypatch.setattr(reduction, "cbn_step", no_step)
    for name, report in EXPECTED_REPORTS.items():
        module = parse((CORPUS / name).read_text(encoding="utf-8"))
        assert format_report(check_module(module)) == report, name
    assert derivations() == before


def test_a_redex_in_the_expected_type_needs_fuel():
    # The expected type is normalized for its head, so at fuel 0 a
    # beta-redex in it leaves the judgment undecided; one development
    # decides it.
    redex = App(Lam(U(1), Var(0)), Mty())
    ty = Pi(Pi(redex, Mty()), U(0))
    t = Lam(Pi(redex, Mty()), Mty())
    res = check((), t, ty, fuel=0)
    assert res.verdict is Verdict.UNDECIDED
    assert res.message == (
        "normalization ran out of fuel on ((fun (x : U 1) . x) Bot -> Bot) -> U 0"
    )
    accepted((), t, ty, fuel=1)


class NextAboveSelf(levels.NatOmegaDomain):
    """Test-only: a successor that is not above its level, so the ``Lvl``
    rule's type for ``i`` is ``Level< i``: a climb past a literal would
    meet that literal again."""

    name = "next-above-self"

    def nth_above(self, a, n):
        return super().nth_above(a, n - 1)


def test_the_climb_ends_at_a_literal_that_bounds_itself():
    tc = TypeChecker(NextAboveSelf())
    two, three = Lvl(Finite(2)), Lvl(Finite(3))
    assert tc.infer((), three)[0] == LevelLt(three)
    assert list(tc._climb((), three)) == [three]
    # The level search decides at the first literal it climbs to, by the
    # domain's order, so it ends with an answer.
    assert not tc.level_below((), three, three)
    assert tc.level_below((), two, three)
    assert tc.level_below((LevelLt(three),), Var(0), three)
    assert not tc.level_below((LevelLt(three),), Var(0), two)


def test_checkers_of_one_domain_share_literal_types():
    (ty1, d1), (ty2, d2) = (TypeChecker(NAT).infer((), Lvl(Finite(5))) for _ in "ab")
    assert ty1 is ty2
    # Derivation nodes stay per checker.
    assert d1 is not d2 and derivation_to_doc(d1) == derivation_to_doc(d2)


def test_each_domain_object_has_its_own_literal_types():
    assert TypeChecker(NAT_OMEGA).infer((), OMEGA)[0] == LevelLt(Lvl(OmegaPlus(1)))
    with pytest.raises(TypingError, match="outside domain nat"):
        TypeChecker(NAT).infer((), OMEGA)
    assert TypeChecker(NAT).infer((), Lvl(Finite(3)))[0] == LevelLt(Lvl(Finite(4)))
    with pytest.raises(TypingError, match="no level above"):
        TypeChecker(Fin4()).infer((), Lvl(Finite(3)))


def test_a_rejected_literal_leaves_no_entry():
    table = checker_mod._literal_type
    before = table.cache_info().currsize
    for t in (Lvl(Finite(3)), Lvl(Finite(9)), OMEGA):
        with pytest.raises(TypingError):
            TypeChecker(Fin4()).infer((), t)
    assert table.cache_info().currsize == before


@pytest.mark.parametrize(
    "domain, t, expected, message",
    [
        (NAT, OMEGA, LevelLt(Lvl(OmegaPlus(1))), "level literal outside domain nat: omega"),
        (NAT, Lvl(Finite(0)), LevelLt(OMEGA), "level literal outside domain nat: omega"),
        (Fin4(), Lvl(Finite(3)), LevelLt(Lvl(Finite(4))), "outside domain fin4: 4"),
        (Fin4(), U(3), U(4), "outside domain fin4: 4"),
    ],
    ids=["omega<omega+1 in nat", "0<omega in nat", "3<4 in fin4", "U3:U4 in fin4"],
)
def test_a_checked_literal_must_be_in_the_domain(domain, t, expected, message):
    # The validator's Lvl rule refutes each of these; check mode used to
    # compare the two literals without asking the domain about either.
    # In fin4 the expected type, typed first, already names a level
    # outside the domain.
    r = TypeChecker(domain).check((), t, expected)
    assert r.verdict is Verdict.REJECTED and message in r.message


@pytest.mark.parametrize(
    "ctx, expected",
    [((LevelLt(Lvl(Finite(3))),), LevelLt(OMEGA)), ((U(3),), U_OMEGA)],
    ids=["x<3 : Level< omega", "A : U 3 in U omega"],
)
def test_a_bound_outside_the_domain_is_rejected(ctx, expected):
    # The level search reaches the literal 3 and asks the Lvl rule's side
    # condition, which needs the bound in the domain too.
    message = rejected(ctx, Var(0), expected, NAT)
    assert message == "level literal outside domain nat: omega"
    accepted(ctx, Var(0), expected, NAT_OMEGA)


def test_level_lt_check_asks_the_domain_about_the_bound():
    ctx = (LevelLt(Lvl(Finite(3))),)
    assert not level_lt_check(ctx, Var(0), OMEGA, NAT)
    assert level_lt_check(ctx, Var(0), OMEGA, NAT_OMEGA)


def test_what_nat_accepts_of_nat_omega_cases_validates():
    # Cases drawn in nat-omega may mention omega, which nat cannot parse,
    # so only the API brings them to a nat checker; whatever it accepts,
    # the validator must confirm in nat.
    verdicts = {True: 0, False: 0}
    for seed in range(400):
        case = harness.gen_case(harness.GenConfig(seed=seed), 0)
        r = TypeChecker(NAT).check(case.ctx, case.term, case.ty)
        if r:
            report = check_derivation(r.derivation, NAT)
            assert report.ok, (seed, report.errors)
        verdicts[bool(r)] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts


class SubLvl(Lvl):
    __slots__ = ()


@pytest.mark.parametrize(
    "t", [SubLvl(Finite(0)), Univ(SubLvl(Finite(0))), 0, "Bot"],
    ids=["subclass", "subclass inside", "int", "str"],
)
def test_typing_dispatches_on_the_exact_class(t):
    # As terms.children does; a class pattern would type SubLvl as Lvl.
    with pytest.raises(TypeError):
        TypeChecker().infer((), t)
    with pytest.raises(TypeError):
        TypeChecker().check((), t, U(5))
    if isinstance(t, Lvl):
        with pytest.raises(TypeError):
            TypeChecker().check((), t, LevelLt(Lvl(Finite(5))))


def test_join_takes_a_literal_from_the_other_climb(monkeypatch):
    # Joining 3 with a variable below 60 finds 60 on the variable's
    # climb; the literals 4, 5, ... above 3 are never compared.
    calls = []
    level_le = TypeChecker._level_le

    def counted(self, ctx, a, b):
        calls.append(b)
        return level_le(self, ctx, a, b)

    monkeypatch.setattr(TypeChecker, "_level_le", counted)
    ctx = (LevelLt(Lvl(Finite(60))),)
    assert TypeChecker()._join_levels(ctx, Lvl(Finite(3)), Var(0)) == Lvl(Finite(60))
    assert len(calls) == 3, calls


def _full_climb(tc, ctx, k):
    """``_climb(ctx, k)`` and, past the literal it ends at, each next
    literal, to CLIMB_CAP steps in all."""
    levels = list(tc._climb(ctx, k))
    while len(levels) <= checker_mod.CLIMB_CAP and isinstance(levels[-1], Lvl):
        levels.append(Lvl(tc.domain.next_above(levels[-1].value)))
    return levels


def _join_by_full_climbs(tc, ctx, a, b):
    """The reference join: each climb taken in full, literal tail
    included, before any level of it is compared."""
    if tc._level_le(ctx, a, b):
        return b
    if tc._level_le(ctx, b, a):
        return a
    for cand in _full_climb(tc, ctx, a):
        if tc._level_le(ctx, b, cand):
            return cand
    for cand in _full_climb(tc, ctx, b):
        if tc._level_le(ctx, a, cand):
            return cand
    raise TypingError(
        f"no common universe above {checker_mod.pretty(a)} and {checker_mod.pretty(b)}"
    )


def _join_outcome(join, tc, ctx, a, b):
    try:
        return join(tc, ctx, a, b)
    except TypingError as e:
        return f"{type(e).__name__}: {e}"


def _random_level(rng, ctx, domain):
    lt_vars = [Var(ix) for ix in range(len(ctx))
               if isinstance(subst.ctx_lookup(ctx, ix), LevelLt)]
    bots = [Var(ix) for ix in range(len(ctx)) if subst.ctx_lookup(ctx, ix) == Mty()]
    roll = rng.random()
    if lt_vars and roll < 0.5:
        return rng.choice(lt_vars)
    if bots and roll < 0.6:
        return Absurd(LevelLt(Lvl(domain.sample(rng))), rng.choice(bots))
    if roll < 0.65:
        return Lvl(Finite(rng.randrange(60, 72)))
    if roll < 0.7:
        return Mty()  # not a level: no join
    return Lvl(domain.sample(rng, 12))


@pytest.mark.parametrize("root", [5, 66, 67, 68])
def test_join_climbs_a_long_variable_chain_to_its_literal(root):
    # 70 level variables in a chain below the literal ``root``. The
    # reference's literal tail from 3 (3, 4, ..., 3 + CLIMB_CAP) holds
    # ``root`` where ``root`` is at most 3 + CLIMB_CAP; the join finds it
    # for every ``root`` on the climb from the last variable, whose 70
    # variable steps do not count towards the cap.
    ctx = (LevelLt(Lvl(Finite(root))),) + (LevelLt(Var(0)),) * 69
    a, b = Lvl(Finite(3)), Var(0)
    want = _join_outcome(_join_by_full_climbs, TypeChecker(), ctx, a, b)
    assert _join_outcome(TypeChecker._join_levels, TypeChecker(), ctx, a, b) == want
    assert want == Lvl(Finite(root))
    if root > 3 + checker_mod.CLIMB_CAP:
        assert list(TypeChecker()._climb(ctx, b))[-1] == want


@pytest.mark.parametrize("domain", [NAT_OMEGA, NAT], ids=lambda d: d.name)
def test_join_agrees_with_full_climbs(domain):
    # Generated contexts, some with a bound near the end of a climb
    # from a small literal, and level pairs drawn from them. A context
    # whose added bound is no level does not type, and there the level
    # search says no to every pair.
    outcomes = {"a": 0, "b": 0, "climbed": 0, "none": 0}
    untyped = 0
    tail = 0  # pairs the reference answers with a literal past a's climb
    for seed in range(500):
        rng = random.Random(seed)
        ctx = harness.gen_context(rng, domain)
        if rng.random() < 0.5:
            ctx += (LevelLt(_random_level(rng, ctx, domain)),)
        old, new = TypeChecker(domain), TypeChecker(domain)
        typed = bool(check_context(ctx, domain))
        for _ in range(4):
            a, b = _random_level(rng, ctx, domain), _random_level(rng, ctx, domain)
            want = _join_outcome(_join_by_full_climbs, old, ctx, a, b)
            got = _join_outcome(TypeChecker._join_levels, new, ctx, a, b)
            assert got == want, (ctx, a, b)
            if not typed:
                assert not new.level_below(ctx, a, b), (ctx, a, b)
                untyped += 1
            if isinstance(want, str):
                outcomes["none"] += 1
            elif want == a or want == b:
                outcomes["a" if want == a else "b"] += 1
            else:
                outcomes["climbed"] += 1
                climb = list(old._climb(ctx, a))
                tail += want in _full_climb(old, ctx, a)[len(climb):]
    assert all(n >= 20 for n in outcomes.values()), outcomes
    assert untyped >= 20, untyped  # pairs in contexts that do not type
    # The join takes no literal past a climb's end; the reference does,
    # and answers with one 86 times in nat-omega and 157 times in nat.
    assert tail >= 50, tail


@pytest.mark.parametrize("domain", [NAT_OMEGA, NAT], ids=lambda d: d.name)
def test_level_below_iff_derivation_validates(domain):
    # Over generated contexts, the level search answers yes exactly when
    # the derivation built from its trail validates, and level_lt_check
    # gives the search's answer.
    zero = Lvl(domain.zero())
    answers = {True: 0, False: 0}
    for seed in range(200):
        ctx = harness.gen_context(random.Random(seed), domain)
        tc = TypeChecker(domain)
        points = {zero, Lvl(domain.next_above(zero.value))}
        if not domain.contains(OMEGA.value):
            points.add(OMEGA)  # a level outside the domain
        for ix in range(len(ctx)):
            entry = subst.ctx_lookup(ctx, ix)
            if isinstance(entry, LevelLt):
                points.add(Var(ix))
                if isinstance(entry.bound, Lvl):
                    points.add(entry.bound)
        for a in points:
            for b in points:
                below = tc.level_below(ctx, a, b)
                assert level_lt_check(ctx, a, b, domain) is below, (ctx, a, b)
                try:
                    d = tc._derive_level_below(ctx, a, b)
                except TypingError:
                    derived = False
                else:
                    derived = (
                        (d.ctx, d.term, d.ty) == (ctx, a, LevelLt(b))
                        and check_derivation(d, domain).ok
                    )
                assert derived is below, (ctx, a, b)
                answers[below] += 1
    assert answers[True] and answers[False], answers


def test_variable_steps_do_not_count_towards_the_climb_cap(monkeypatch):
    # Five level variables chained below 9: from the last one the climb
    # takes five variable steps, more than the cap, and reaches 9.
    monkeypatch.setattr(checker_mod, "CLIMB_CAP", 2)
    ctx = (LevelLt(Lvl(Finite(9))),) + (LevelLt(Var(0)),) * 4
    climb = list(TypeChecker()._climb(ctx, Var(0)))
    assert climb == [Var(ix) for ix in range(5)] + [Lvl(Finite(9))]
    for bound in (9, 10):
        accepted(ctx, Var(0), LevelLt(Lvl(Finite(bound))))


def test_the_climb_stops_at_its_cap_of_non_variable_steps(monkeypatch):
    # In (h : Bot), a chain of levels each bounded by the next, below 5:
    # l0 : Level< l1, ..., l3 : Level< 5, every step from an ``absurd``.
    chain = [Lvl(Finite(5))]
    for _ in range(4):
        chain.insert(0, Absurd(LevelLt(chain[0]), Var(0)))
    ctx, l0, top = (Mty(),), chain[0], LevelLt(chain[-1])
    assert list(TypeChecker()._climb(ctx, l0)) == chain
    accepted(ctx, l0, top)
    monkeypatch.setattr(checker_mod, "CLIMB_CAP", 2)
    tc = TypeChecker()
    assert list(tc._climb(ctx, l0)) == chain[:3]
    assert not tc.level_below(ctx, l0, chain[-1])
    why = f"level bound not established: {checker_mod.pretty(chain[1])} below 5"
    assert rejected(ctx, l0, top) == why


def test_checker_memoizes_normal_forms_but_not_fuel_errors(monkeypatch):
    calls = []
    pars = checker_mod.pars

    def counted(t, fuel):
        calls.append(t)
        return pars(t, fuel)

    monkeypatch.setattr(checker_mod, "pars", counted)
    redex = App(Lam(LevelLt(Lvl(Finite(10))), Var(0)), Lvl(Finite(2)))
    tc = TypeChecker()
    assert tc._norm(redex) == tc._norm(redex) == Lvl(Finite(2))
    assert calls == [redex]
    starved = TypeChecker(fuel=0)
    for _ in range(2):
        with pytest.raises(FuelError):
            starved._norm(redex)
    assert calls == [redex] * 3


def test_level_lt_check_concrete_and_reducible():
    redex = App(Lam(LevelLt(Lvl(Finite(10))), Var(0)), Lvl(Finite(2)))
    assert level_lt_check((), redex, Lvl(Finite(5)))
    assert not level_lt_check((), Lvl(Finite(5)), Lvl(Finite(5)))


def test_eta_expansion_checks_but_bare_function_does_not():
    f_ty = Pi(U(2), U(0))
    goal = Pi(U(1), U(1))
    ctx = (f_ty,)
    eta = Lam(U(1), App(Var(1), Var(0)))
    accepted(ctx, eta, goal)
    rejected(ctx, Var(0), goal)


def test_polymorphic_identity_type_checks_against_universe_omega():
    poly = Pi(LevelLt(OMEGA), Pi(Univ(Var(0)), Pi(Var(0), Var(1))))
    accepted((), poly, U_OMEGA)


def test_polymorphic_identity_term_checks():
    poly = Pi(LevelLt(OMEGA), Pi(Univ(Var(0)), Pi(Var(0), Var(1))))
    term = Lam(LevelLt(OMEGA), Lam(Univ(Var(0)), Lam(Var(0), Var(0))))
    accepted((), term, poly)


def test_cumulativity_lifts_universes():
    accepted((), Mty(), U(5))
    accepted((), U(0), U(5))
    accepted((), U(0), U_OMEGA)
    rejected((), U(5), U(5))
    rejected((), U(5), U(0))


def test_conversion_in_expected_type():
    expected = Univ(App(Lam(LevelLt(OMEGA), Var(0)), Lvl(Finite(1))))
    accepted((), U(0), expected)


def _early_conversions():
    # Equal but separately built sides, one of them out of fuel.
    for build in (lambda: U(2), lambda: Pi(U(0), Var(0)), lambda: App(*LOOP)):
        yield NAT_OMEGA, build(), build()
    yield NAT_OMEGA, LOOP, LOOP
    # Literal pairs in both shipped domains.
    nat = [Finite(n) for n in range(4)]
    nat_omega = nat[:3] + [OmegaPlus(n) for n in range(3)]
    for domain, values in ((NAT, nat), (NAT_OMEGA, nat_omega)):
        for a in values:
            for b in values:
                yield domain, Lvl(a), Lvl(b)


def _conv_pairs_met(monkeypatch, cases: int) -> set:
    """``(domain, fuel, a, b)`` for every ``_conv`` the checker makes
    while generating ``cases`` cases per shipped domain (seed 3)."""
    pairs = set()
    conv = TypeChecker._conv

    def recorded(self, a, b):
        pairs.add((self.domain, self.fuel, a, b))
        return conv(self, a, b)

    with monkeypatch.context() as m:
        m.setattr(TypeChecker, "_conv", recorded)
        for name in ("nat-omega", "nat"):
            cfg = harness.GenConfig(seed=3, cases=cases, domain_name=name)
            for i in range(cases):
                harness.gen_case(cfg, i)
    return pairs


def test_conv_agrees_with_convertible_where_it_is_decided(monkeypatch):
    # The checker compares its memoized normal forms, the validator calls
    # ``convertible``: over every pair the checker meets, and over equal
    # sides and literal pairs, the two answer alike.
    met = _conv_pairs_met(monkeypatch, 1000)
    assert len(met) == 718
    early = {(domain, 5, a, b) for domain, a, b in _early_conversions()}
    answers = Counter()
    for domain, fuel, a, b in met | early:
        verdict = convertible(a, b, fuel)
        if verdict is not Convertibility.UNDECIDED:
            got = TypeChecker(domain, fuel)._conv(a, b)
            assert got is (verdict is Convertibility.YES), (a, b)
        answers[verdict] += 1
    assert answers[Convertibility.YES] > 100 and answers[Convertibility.NO] > 100
    assert answers[Convertibility.UNDECIDED] == 0


def test_conv_is_undecided_where_both_sides_run_out_at_equal_reducts():
    # Distinct sides whose reducts are equal when the fuel runs out:
    # ``convertible`` says YES, the checker wants normal forms. Well-typed
    # types normalize, so no accepted judgment meets such a pair.
    delayed = App(Lam(U(0), LOOP), Lvl(Finite(0)))
    assert convertible(LOOP, delayed, 5) is Convertibility.YES
    with pytest.raises(FuelError, match="^normalization ran out of fuel on "):
        TypeChecker(NAT_OMEGA, 5)._conv(LOOP, delayed)


def _verdicts_and_derivations() -> tuple[list, list]:
    """What ``check_module`` says of each corpus definition and what
    ``gen_case`` makes of a seeded sample in each shipped domain, and
    every derivation the checker's ``check`` accepted on the way."""
    derivations = []
    real = TypeChecker.check

    def recorded(self, ctx, t, ty):
        res = real(self, ctx, t, ty)
        if res.derivation is not None:
            derivations.append((res.derivation, self.domain))
        return res

    verdicts = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(TypeChecker, "check", recorded)
        for path in sorted(CORPUS.glob("*.ttbfl")):
            report = check_module(parse(path.read_text(encoding="utf-8")))
            verdicts += [(e.name, e.verdict, e.message) for e in report.entries]
        for name in ("nat-omega", "nat"):
            cfg = harness.GenConfig(seed=41, cases=150, domain_name=name)
            for i in range(cfg.cases):
                case = harness.gen_case(cfg, i)
                verdicts.append((case.ctx, case.term, case.ty))
    return verdicts, derivations


def test_the_typing_core_never_calls_convertible(monkeypatch):
    # ``convertible`` is the validator's; the checker decides conversion
    # on its own normal forms, so the verdicts hold without it and the
    # validator, calling it, still accepts what the checker emitted.
    want, _ = _verdicts_and_derivations()

    def refused(*args):
        raise AssertionError("the typing core called convertible")

    with monkeypatch.context() as m:
        m.setattr(checker_mod, "convertible", refused)
        m.setattr(reduction, "convertible", refused)
        got, derivations = _verdicts_and_derivations()
    assert got == want and len(got) == 38 + 2 * 150  # corpus definitions, cases
    assert len(derivations) == 25 + 2 * 150  # accepted definitions, cases
    for d, domain in derivations:
        assert check_derivation(d, domain).ok


def test_the_checker_never_builds_a_level_order(monkeypatch):
    # The level search follows the climb alone; ``LevelOrder`` is kept
    # for the benchmark's tracer only.
    def refused(self, *args):
        raise AssertionError("the checker built a LevelOrder")

    monkeypatch.setattr(checker_mod.LevelOrder, "__init__", refused)
    verdicts, derivations = _verdicts_and_derivations()
    assert len(verdicts) == 38 + 2 * 150 and len(derivations) == 25 + 2 * 150


def test_conv_still_runs_out_of_fuel_on_distinct_sides():
    tc = TypeChecker(NAT_OMEGA, 5)
    with pytest.raises(FuelError):
        tc._conv(LOOP, Mty())
    assert convertible(LOOP, Mty(), 5) is Convertibility.UNDECIDED


def test_conv_to_refuses_an_inconvertible_type():
    # Every caller converts only after its own test, so no judgment
    # reaches this raise; it guards the Conv nodes the checker builds.
    tc = TypeChecker()
    _, d = tc.infer((), Lvl(Finite(0)))
    mismatch = "^type mismatch: expected U 0, got Level< 1$"
    with pytest.raises(TypingError, match=mismatch):
        tc._conv_to(d, U(0))


def test_premise_that_runs_out_of_fuel_stays_undecided():
    # The argument #0 has a type that takes one beta step to reach U 0;
    # at fuel 0 the argument premise is undecided, not a mismatch.
    ctx = (App(Lam(U(1), Var(0)), U(0)),)
    res = check(ctx, App(Lam(U(0), Var(0)), Var(0)), U(0), NAT_OMEGA, 0)
    assert (res.verdict, res.message) == (
        Verdict.UNDECIDED,
        "normalization ran out of fuel on (fun (x : U 1) . x) (U 0)",
    )


def _beta(ann: Term, arg: Term) -> Term:
    """``(fun (x : ann) . x) arg``: one step from ``arg``, and not a head."""
    return App(Lam(ann, Var(0)), arg)


def test_a_type_that_only_head_normalizes_to_a_head():
    tc = TypeChecker()
    # x : (fun (A : U 0) . A) (Level< 5), so U x : U 5 through the head
    # normal form of x's type.
    ty, d = tc.infer((_beta(U(0), LevelLt(Lvl(Finite(5)))),), Univ(Var(0)))
    assert ty == U(5)
    assert check_derivation(d).ok
    # A : (fun (B : U 2) . B) (U 1) types as a type through a Conv node.
    k, d = tc.infer_universe((_beta(U(2), U(1)),), Var(0))
    assert (k, d.rule, d.ty) == (Lvl(Finite(1)), "Conv", U(1))
    assert check_derivation(d).ok


# Judgments whose types reach a head form within one step of fuel but
# a normal form only in two: the validator's Conv rule compares normal
# forms, so at fuel 1 it leaves the conversion to the head undecided.
_G = Lam(U(0), Var(0))
HEAD_WITHIN_FUEL = {
    # f : (fun (g : U 0 -> U 0) . g Bot -> g Bot) (fun (x : U 0) . x),
    # p : Bot; f p, at the head form of f's type.
    "application": (
        (
            Mty(),
            App(Lam(Pi(U(0), U(0)), Pi(App(Var(0), Mty()), App(Var(1), Mty()))), _G),
        ),
        App(Var(0), Var(1)),
        _beta(U(0), Mty()),
    ),
    # U 0 against (fun (g : Level< 5 -> Level< 5) . U (g 1)) (fun (x :
    # Level< 5) . x), whose head form U ((fun x . x) 1) is one step away.
    "checked universe": (
        (),
        U(0),
        App(
            Lam(Pi(LevelLt(Lvl(Finite(5))), LevelLt(Lvl(Finite(5)))),
                Univ(App(Var(0), Lvl(Finite(1))))),
            Lam(LevelLt(Lvl(Finite(5))), Var(0)),
        ),
    ),
}


@pytest.mark.parametrize(
    "ctx, t, ty", HEAD_WITHIN_FUEL.values(), ids=HEAD_WITHIN_FUEL.keys()
)
def test_a_head_form_conversion_is_decided_within_the_fuel(ctx, t, ty):
    d = accepted(ctx, t, ty)
    errors = check_derivation(d, fuel=1).errors
    undecided = "Conv: conversion undecided within fuel"
    assert any(e.endswith(undecided) for e in errors), errors
    res = check(ctx, t, ty, fuel=1)
    assert res.verdict is Verdict.UNDECIDED, res


def test_annotated_absurd_universe_is_accepted():
    # In x : Bot, a universe indexed by a stuck elimination checks when
    # the annotation carries the smaller bound.
    ctx = (Mty(),)
    inner = Absurd(LevelLt(Lvl(Finite(0))), Var(0))
    subject = Univ(Absurd(LevelLt(inner), Var(0)))
    target = Univ(inner)
    accepted(ctx, subject, target)


def test_self_typed_absurd_universe_is_rejected():
    ctx = (Mty(),)
    inner = Absurd(LevelLt(Lvl(Finite(0))), Var(0))
    rejected(ctx, Univ(inner), Univ(inner))


def test_bounded_search_agrees_on_the_absurd_universe_pair():
    ctx = (Mty(),)
    inner = Absurd(LevelLt(Lvl(Finite(0))), Var(0))
    subject = Univ(Absurd(LevelLt(inner), Var(0)))
    found = search_derivation(ctx, subject, Univ(inner))
    assert found is not None
    assert check_derivation(found).ok
    assert search_derivation(ctx, Univ(inner), Univ(inner)) is None


def _levels_and_subjects(ctx, domain):
    """Small levels of ``ctx``: the literals 0, 1 and 3 (and omega,
    omega+1 where the domain has them), each variable of type
    ``Level< b`` and its bound ``b``, and ``absurd [Level< 2] e`` for each
    ``e : Bot``. The subjects: those levels, the variables of type
    ``U k``, ``Bot``, ``Bot -> Bot``, and ``U m`` and ``Level< m`` for
    each level ``m``."""
    values = [Finite(0), Finite(1), Finite(3)]
    if domain is NAT_OMEGA:
        values += [OmegaPlus(0), OmegaPlus(1)]
    levels = [Lvl(v) for v in values]
    type_vars = []
    for ix in range(len(ctx)):
        ty = subst.ctx_lookup(ctx, ix)
        if type(ty) is LevelLt:
            levels += [Var(ix), ty.bound]
        elif type(ty) is Mty:
            levels.append(Absurd(LevelLt(Lvl(Finite(2))), Var(ix)))
        elif type(ty) is Univ:
            type_vars.append(Var(ix))
    levels = list(dict.fromkeys(levels))
    subjects = [*levels, *type_vars, Mty(), Pi(Mty(), Mty())]
    for m in levels:
        subjects += [Univ(m), LevelLt(m)]
    return levels, list(dict.fromkeys(subjects))


def test_trans_and_cumul_compositions_add_nothing_to_check():
    # Composing Trans or Cumul through a middle level never derives what
    # the checker rejects (see search_derivation), over small levels of
    # generated contexts.
    trans = cumul = 0
    for domain in (NAT_OMEGA, NAT):
        for seed in range(200):
            ctx = harness.gen_context(random.Random(seed), domain)
            tc = TypeChecker(domain)
            levels, subjects = _levels_and_subjects(ctx, domain)
            below, typed = {}, {}
            for s in subjects:
                for m in levels:
                    below[s, m] = bool(tc.check(ctx, s, LevelLt(m)))
                    typed[s, m] = bool(tc.check(ctx, s, Univ(m)))
            for s in subjects:
                for m in levels:
                    for n in levels:
                        if not below[m, n]:
                            continue
                        where = (domain.name, seed, s, m, n)
                        if below[s, m]:
                            trans += 1
                            assert below[s, n], where
                        if typed[s, m]:
                            cumul += 1
                            assert typed[s, n], where
    assert (trans, cumul) == (4_133, 40_420)


def test_context_with_ill_typed_entry_rejected():
    assert not check_context((Var(0),))
    assert check_context((U(0), Var(0)))


def test_undecided_only_when_the_fuel_runs_out_on_a_typed_type():
    # The expected type is typed before it is normalized: LOOP does not
    # type, so it is rejected however much fuel is given; a type that
    # types but needs a step is undecided at fuel 0 only.
    assert check((), Mty(), LOOP, fuel=20).verdict is Verdict.REJECTED
    redex = App(Lam(U(1), Var(0)), U(0))
    assert check((), Mty(), redex, fuel=0).verdict is Verdict.UNDECIDED
    assert check((), Mty(), redex, fuel=1).verdict is Verdict.ACCEPTED


def test_rejected_when_the_expected_universe_index_is_ill_typed():
    res = check((), Mty(), Univ(LOOP), fuel=20)
    assert res.verdict is Verdict.REJECTED


# -- derivation checker specifics


def nil() -> Derivation:
    return Derivation("Nil", (), None, None)


def test_check_derivation_rejects_non_strict_literal_bound():
    bad = Derivation(
        "Lvl",
        (),
        Lvl(Finite(3)),
        LevelLt(Lvl(Finite(3))),
        (nil(),),
    )
    report = check_derivation(bad)
    assert not report.ok
    assert any("Lvl: i < j fails" in e for e in report.errors)


def test_check_derivation_accepts_literal_bound():
    good = Derivation(
        "Lvl",
        (),
        Lvl(Finite(2)),
        LevelLt(Lvl(Finite(3))),
        (nil(),),
    )
    assert check_derivation(good).ok


def test_check_derivation_rejects_omega_in_nat_domain():
    node = Derivation(
        "Lvl",
        (),
        OMEGA,
        LevelLt(Lvl(OmegaPlus(1))),
        (nil(),),
    )
    assert check_derivation(node, domain=NAT_OMEGA).ok
    report = check_derivation(node, domain=NAT)
    assert not report.ok
    assert any("outside the domain" in e for e in report.errors)


def _with_type(d: Derivation, ty: Term) -> Derivation:
    return Derivation(d.rule, d.ctx, d.term, ty, d.premises)


# Nodes of the right shape whose parts break one relation of their rule;
# every premise is valid, so that relation is the only error. The last
# names no rule at all.
WRONG_RELATIONS = [
    (
        Derivation("Nil", (Mty(),), None, None),
        "Nil: context must be empty",
    ),
    (
        Derivation(
            "Lvl",
            (LevelLt(OMEGA),),
            Lvl(Finite(0)),
            LevelLt(Var(0)),
            (TypeChecker().ctx_derivation((LevelLt(OMEGA),)),),
        ),
        "Lvl: bound must be a literal",
    ),
    (
        _with_type(accepted((), IDENT, Pi(Mty(), Mty())), Pi(U(0), Mty())),
        "Lam: annotation differs from the domain",
    ),
    (Derivation("Foo", (), None, None), "Foo: unknown rule"),
]


@pytest.mark.parametrize("d, message", WRONG_RELATIONS)
def test_check_derivation_rejects_a_broken_relation(d, message):
    assert check_derivation(d).errors == (message,)


def test_check_derivation_flags_premise_mismatch():
    # A Var node whose stated type ignores the shift.
    ctx = (U_OMEGA, Var(0))
    ctx_d = Derivation(
        "Cons",
        ctx,
        None,
        None,
        (
            Derivation(
                "Cons",
                (U_OMEGA,),
                None,
                None,
                (nil(), infer_with_derivation((), U_OMEGA)[1]),
            ),
            infer_with_derivation((U_OMEGA,), Var(0))[1],
        ),
    )
    bad = Derivation("Var", ctx, Var(0), Var(0), (ctx_d,))
    report = check_derivation(bad)
    assert not report.ok
    assert any("Var: type differs" in e for e in report.errors)


def test_check_derivation_reports_paths_into_premises():
    bad_leaf = Derivation(
        "Lvl",
        (),
        Lvl(Finite(3)),
        LevelLt(Lvl(Finite(3))),
        (nil(),),
    )
    wrapped = Derivation(
        "Univ",
        (),
        Univ(Lvl(Finite(3))),
        Univ(Lvl(Finite(3))),
        (bad_leaf,),
    )
    report = check_derivation(wrapped)
    assert not report.ok
    assert any(e.startswith("premises[0]:") for e in report.errors)

    good_leaf = Derivation("Lvl", (), Lvl(Finite(3)), LevelLt(Lvl(Finite(4))), (nil(),))
    trans = Derivation(
        "Trans", (), Lvl(Finite(3)), LevelLt(Lvl(Finite(3))), (good_leaf, bad_leaf)
    )
    root = Derivation("Univ", (), U(3), U(3), (trans,))
    assert check_derivation(root).errors == (
        "premises[0].premises[1]: Lvl: i < j fails",
        "premises[0]: Trans: middle bound must match both premises",
    )


def test_conv_node_requires_convertibility():
    d_subj = infer_with_derivation((), Mty())[1]
    d_target = infer_with_derivation((), U(3))[1]
    bad = Derivation("Conv", (), Mty(), U(3), (d_subj, d_target))
    report = check_derivation(bad)
    assert not report.ok
    assert any("not convertible" in e for e in report.errors)


# U 0 : U 0 by Conv from Bot : <nothing>; the first premise has no type.
UNTYPED_CONV_PREMISE = """{
  "format": "ulevels-derivation-tables", "domain": "nat-omega",
  "terms": [{"k": "Mty"}, {"k": "Lvl", "n": 0, "tier": "finite"},
            {"k": "Univ", "level": 1}, {"k": "Lvl", "n": 1, "tier": "finite"},
            {"k": "Univ", "level": 3}, {"k": "LevelLt", "bound": 3}],
  "ctxs": [[]],
  "nodes": [
    {"rule": "Mty", "ctx": 0, "term": 0, "ty": null, "premises": []},
    {"rule": "Nil", "ctx": 0, "term": null, "ty": null, "premises": []},
    {"rule": "Lvl", "ctx": 0, "term": 1, "ty": 5, "premises": [1]},
    {"rule": "Univ", "ctx": 0, "term": 2, "ty": 4, "premises": [2]},
    {"rule": "Conv", "ctx": 0, "term": 0, "ty": 2, "premises": [0, 3]}
  ]
}"""


def test_check_derivation_reports_a_premise_without_a_type():
    d, domain = derivation_from_doc(json.loads(UNTYPED_CONV_PREMISE))
    report = check_derivation(d, domain)
    assert not report.ok
    assert report.errors == (
        "premises[0]: Mty: missing subject or type",
        "Conv: premises[0] has no subject or type",
    )


# -- elaboration of the derived abstraction rule


def test_elaborate_lam_prime_assembles_the_rule():
    _, d_pi = infer_with_derivation((), Pi(Mty(), Mty()))
    _, d_body = infer_with_derivation((Mty(),), Var(0))
    lam = elaborate_lam_prime(d_pi, d_body)
    assert lam.term == Lam(Mty(), Var(0))
    assert lam.ty == Pi(Mty(), Mty())
    assert check_derivation(lam).ok


def test_elaborate_lam_prime_rejects_non_function_conclusion():
    _, d_mty = infer_with_derivation((), Mty())
    _, d_body = infer_with_derivation((Mty(),), Var(0))
    with pytest.raises(TypingError, match="inversion failed"):
        elaborate_lam_prime(d_mty, d_body)
    d_nil = TypeChecker().ctx_derivation(())
    with pytest.raises(TypingError, match="rule Nil concluding - : -"):
        elaborate_lam_prime(d_nil, d_body)


def test_elaborate_lam_prime_rejects_wrong_body_type():
    _, d_pi = infer_with_derivation((), Pi(Mty(), U(1)))
    _, d_body = infer_with_derivation((Mty(),), Var(0))
    with pytest.raises(TypingError):
        elaborate_lam_prime(d_pi, d_body)


# -- serialization


def test_derivation_json_roundtrip():
    ctx = (LevelLt(OMEGA), LevelLt(Var(0)))
    d = accepted(ctx, Var(0), LevelLt(OMEGA))
    doc = derivation_to_doc(d, NAT_OMEGA)
    text = json.dumps(doc)
    back, domain = derivation_from_doc(json.loads(text))
    assert back is not d and derivation_to_doc(back) == doc
    assert domain is NAT_OMEGA
    assert check_derivation(back, domain).ok
    distinct = len(list(postorder(d, premises)))
    assert len(list(postorder(back, premises))) == len(doc["nodes"]) == distinct


def trans_chain(depth: int) -> Derivation:
    """``depth`` Trans nodes, each with the one below as both premises:
    ``depth + 1`` distinct nodes, ``2 ** (depth + 1) - 1`` as a tree."""
    d = Derivation("Nil", (), None, None)
    for _ in range(depth):
        d = Derivation("Trans", (), None, None, (d, d))
    return d


def test_postorder_walks_a_deep_chain_without_recursing():
    d = trans_chain(5000)
    nodes = list(postorder(d, premises))
    assert len(nodes) == 5001 and nodes[0].rule == "Nil" and nodes[-1] is d
    assert harness.rules_in(d) == {"Nil", "Trans"}
    # Every part, the shared empty context among them, comes once.
    assert len(list(postorder(d))) == 5002


def test_postorder_yields_each_part_once_after_what_it_holds():
    d = accepted((LevelLt(OMEGA), LevelLt(Var(0))), Var(0), LevelLt(OMEGA))
    parts = list(postorder(d))
    position = {p: i for i, p in enumerate(parts)}
    assert len(position) == len(parts)
    for i, part in enumerate(parts):
        if isinstance(part, Derivation):
            held = (part.ctx, part.term, part.ty, *part.premises)
        else:
            held = part if type(part) is tuple else children(part)
        assert all(position[h] < i for h in held if h is not None)
    doc = derivation_to_doc(d)
    assert len(doc["nodes"]) == sum(isinstance(p, Derivation) for p in parts)
    assert len(doc["ctxs"]) == sum(type(p) is tuple for p in parts)
    assert len(doc["terms"]) == len(parts) - len(doc["nodes"]) - len(doc["ctxs"])


def test_derivation_to_doc_writes_up_to_the_loader_bound():
    # The writer spends no frame per level. Nodes hash by identity, so the
    # loader bounds only terms: a node chain past the recursion limit is
    # written and read back, and so is a term as deep as the limit; one
    # level more is refused.
    limit = sys.getrecursionlimit()
    doc = derivation_to_doc(trans_chain(2 * limit))
    assert len(doc["nodes"]) == 2 * limit + 1
    assert derivation_to_doc(*derivation_from_doc(doc)) == doc
    deep_term = Mty()
    for _ in range(limit - 1):
        deep_term = Univ(deep_term)
    doc = derivation_to_doc(Derivation("Mty", (), deep_term, None))
    assert len(doc["terms"]) == limit
    assert derivation_to_doc(*derivation_from_doc(doc)) == doc
    with pytest.raises(RecursionError, match="term nested deeper"):
        derivation_to_doc(Derivation("Mty", (), Univ(deep_term), None))


def _small_doc():
    ctx = (LevelLt(OMEGA),)
    return derivation_to_doc(accepted(ctx, Var(0), LevelLt(OMEGA)))


def _last(doc):
    return doc["nodes"][-1]


CORRUPTIONS = {
    "no-marker": lambda doc: doc.pop("format"),
    "unknown-marker": lambda doc: doc.update(format="ulevels-derivation-trees"),
    "no-nodes": lambda doc: doc.update(nodes=[]),
    "negative-premise": lambda doc: _last(doc).update(premises=[-1]),
    "self-premise": lambda doc: _last(doc).update(premises=[len(doc["nodes"]) - 1]),
    "float-premise": lambda doc: _last(doc).update(premises=[0.0]),
    "bool-premise": lambda doc: _last(doc).update(premises=[True]),
    "ctx-out-of-range": lambda doc: _last(doc).update(ctx=len(doc["ctxs"])),
    "negative-term": lambda doc: _last(doc).update(term=-1),
    "string-type": lambda doc: _last(doc).update(ty="0"),
    "unknown-rule": lambda doc: _last(doc).update(rule="Magic"),
    "missing-premises": lambda doc: _last(doc).pop("premises"),
    "ctx-term-out-of-range": lambda doc: doc["ctxs"].append([len(doc["terms"])]),
    "unknown-term-tag": lambda doc: doc["terms"].append({"k": "Sigma"}),
    "self-subterm": lambda doc: doc["terms"].append(
        {"k": "Univ", "level": len(doc["terms"])}
    ),
    "negative-variable": lambda doc: doc["terms"].append({"k": "Var", "ix": -1}),
    "unknown-level-tier": lambda doc: doc["terms"].append(
        {"k": "Lvl", "tier": "huge", "n": 0}
    ),
    "unknown-domain": lambda doc: doc.update(domain="reals"),
    "nested-too-deep": lambda doc: doc["terms"].extend(
        {"k": "Univ", "level": i}
        for i in range(len(doc["terms"]) - 1, sys.getrecursionlimit() + 9)
    ),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_derivation_from_doc_rejects_malformed_documents(corrupt):
    doc = _small_doc()
    derivation_from_doc(doc)
    corrupt(doc)
    with pytest.raises(ValueError):
        derivation_from_doc(doc)


def test_check_derivation_reports_a_chain_too_deep_to_validate():
    # The loader admits a node chain of any depth; the validator recurses
    # once per node and meets the recursion limit.
    doc = derivation_to_doc(Derivation("Nil", (), None, None))
    doc["nodes"].extend(
        {"rule": "Conv", "ctx": 0, "term": None, "ty": None, "premises": [i]}
        for i in range(sys.getrecursionlimit() - 5)
    )
    d, domain = derivation_from_doc(doc)
    assert check_derivation(d, domain) == DerivationReport(
        False, ("resource limit: derivation nested too deeply to validate",)
    )


def test_check_derivation_reports_a_hand_built_chain_too_deep_to_validate():
    # The validator recurses once per node, so 5,000 nested Trans nodes
    # meet the recursion limit. Validating each distinct node once, in a
    # loop (ROADMAP item 2), will replace this exit.
    d = nil()
    for _ in range(5000):
        d = Derivation("Trans", (), None, None, (d, nil()))
    assert check_derivation(d) == DerivationReport(
        False, ("resource limit: derivation nested too deeply to validate",)
    )


# Run in a subprocess, so that a hash or a comparison that recurses into
# the chain crashes that process, not the test run.
DEEP_DOCUMENTS = """
import sys
from ulevels.checker import (
    Derivation, check_derivation, derivation_from_doc, derivation_to_doc)
from ulevels.terms import Mty, Univ

doc = derivation_to_doc(Derivation("Nil", (), None, None))
doc["nodes"].extend(
    {"rule": "Trans", "ctx": 0, "term": None, "ty": None, "premises": [i, i]}
    for i in range(99_999)
)
d, domain = derivation_from_doc(doc)
print(len(doc["nodes"]), hash(d) == hash(d), d == d, d != d, d in {d})
print(check_derivation(d, domain).errors)
print(derivation_to_doc(d, domain) == doc)

limit = sys.getrecursionlimit()
tower = Mty()
for _ in range(limit):
    tower = Univ(tower)
try:
    derivation_to_doc(Derivation("Mty", (), tower, None))
except RecursionError as e:
    print("writer:", e)
doc = derivation_to_doc(Derivation("Mty", (), Mty(), None))
doc["terms"].extend({"k": "Univ", "level": i} for i in range(limit))
doc["nodes"][-1]["term"] = limit
try:
    derivation_from_doc(doc)
except ValueError as e:
    print("loader:", e)
"""


def test_a_node_chain_of_any_depth_loads_and_a_deep_term_does_not():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", DEEP_DOCUMENTS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == [
        "100000 True True False True",
        "('resource limit: derivation nested too deeply to validate',)",
        "True",
        "writer: term nested deeper than 1000",
        "loader: term nested deeper than 1000",
    ]


def test_derivation_from_doc_rejects_tree_documents():
    tree = {"domain": "nat-omega", "root": {
        "rule": "Nil", "ctx": [], "term": None, "ty": None, "premises": []}}
    with pytest.raises(ValueError, match="format marker"):
        derivation_from_doc(tree)


# -- input nested past the recursion limit


def _pi_tower(depth: int) -> Term:
    t = U(0)
    for _ in range(depth):
        t = Pi(U(0), t)
    return t


def _nested_redexes(depth: int) -> Term:
    t = Lvl(Finite(0))
    for _ in range(depth):
        t = App(Lam(LevelLt(Lvl(Finite(1))), Var(0)), t)
    return t


@pytest.mark.parametrize("build", [_pi_tower, _nested_redexes])
def test_deep_input_is_undecided_or_false_not_an_exception(build):
    t = build(3000)
    deep = "resource limit: term nested too deeply to check"
    assert check((), t, U(2)) == CheckResult(Verdict.UNDECIDED, deep)
    assert TypeChecker().check_context((t,)) == CheckResult(Verdict.UNDECIDED, deep)
    assert level_lt_check((), t, Lvl(Finite(5))) is False
