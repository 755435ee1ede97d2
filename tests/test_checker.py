"""Derivations, the derivation checker, and the algorithmic checker."""

from __future__ import annotations

import json
import random
import sys

import pytest

from ulevels import checker as checker_mod
from ulevels import harness, levels, subst
from ulevels.checker import (
    CheckResult,
    Derivation,
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
    search_derivation,
)
from ulevels.levels import NAT, NAT_OMEGA, Finite, OmegaPlus
from ulevels.reduction import Convertibility, convertible
from ulevels.terms import (
    Absurd,
    App,
    Lam,
    LevelLt,
    Lvl,
    Mty,
    Pi,
    Univ,
    Var,
)


def U(n: int) -> Univ:
    return Univ(Lvl(Finite(n)))


OMEGA = Lvl(OmegaPlus(0))
U_OMEGA = Univ(OMEGA)
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
    ctx = (Mty(),)
    lo = Absurd(LevelLt(Lvl(Finite(3))), Var(0))
    accepted(ctx, lo, LevelLt(Lvl(Finite(5))))
    assert level_lt_check(ctx, lo, Lvl(Finite(5)))
    # The climb reads the annotation, but the scrutinee is no refutation.
    ill_typed = (U(0),)
    rejected(ill_typed, lo, LevelLt(Lvl(Finite(5))))
    assert not level_lt_check(ill_typed, lo, Lvl(Finite(5)))


def test_level_search_decides_at_a_literal(monkeypatch):
    calls = []
    next_above = levels.LevelDomain.next_above

    def counted(self, value):
        calls.append(value)
        return next_above(self, value)

    monkeypatch.setattr(levels.LevelDomain, "next_above", counted)
    ctx = (LevelLt(Lvl(Finite(5))),)
    assert not TypeChecker().level_below(ctx, Lvl(Finite(0)), Var(0))
    assert calls == []


def test_join_skips_a_literal_climb_that_cannot_help(monkeypatch):
    # A finite literal never climbs to omega, so joining 3 with a
    # variable below omega climbs from the variable instead.
    calls = []
    next_above = levels.LevelDomain.next_above

    def counted(self, value):
        calls.append(value)
        return next_above(self, value)

    monkeypatch.setattr(levels.LevelDomain, "next_above", counted)
    ctx = (LevelLt(OMEGA),)
    assert TypeChecker()._join_levels(ctx, Lvl(Finite(3)), Var(0)) == OMEGA
    assert len(calls) < 10


def test_join_bisects_the_literal_tail(monkeypatch):
    # Joining 3 with a variable below 60 finds 60 in the literal tail
    # 4, 5, ... of the climb from 3; the tail is bisected, not climbed.
    calls = []
    level_le = TypeChecker._level_le

    def counted(self, ctx, a, b):
        calls.append(b)
        return level_le(self, ctx, a, b)

    monkeypatch.setattr(TypeChecker, "_level_le", counted)
    ctx = (LevelLt(Lvl(Finite(60))),)
    assert TypeChecker()._join_levels(ctx, Lvl(Finite(3)), Var(0)) == Lvl(Finite(60))
    assert len(calls) <= 8, calls


def _join_by_full_climbs(tc, ctx, a, b):
    """The reference join: each climb taken in full, literal tail
    included, before any level of it is compared."""
    if tc._level_le(ctx, a, b):
        return b
    if tc._level_le(ctx, b, a):
        return a
    for cand in list(tc._climb(ctx, a)):
        if tc._level_le(ctx, b, cand):
            return cand
    for cand in list(tc._climb(ctx, b)):
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
def test_join_climbs_the_literal_tail_to_its_cap(root):
    # 70 level variables in a chain below the literal ``root``: the
    # climb from the last one stops at its cap before any literal, but
    # the context paths reach ``root``, so only the literal climb from 3
    # (3, 4, ..., 3 + CLIMB_CAP) can find the join.
    ctx = (LevelLt(Lvl(Finite(root))),) + (LevelLt(Var(0)),) * 69
    a, b = Lvl(Finite(3)), Var(0)
    want = _join_outcome(_join_by_full_climbs, TypeChecker(), ctx, a, b)
    assert _join_outcome(TypeChecker._join_levels, TypeChecker(), ctx, a, b) == want
    if root <= 3 + checker_mod.CLIMB_CAP:
        assert want == Lvl(Finite(root))
    else:
        assert want.startswith("TypingError: no common universe")


@pytest.mark.parametrize("domain", [NAT_OMEGA, NAT], ids=lambda d: d.name)
def test_join_agrees_with_full_climbs(domain):
    # Generated contexts, some with a bound near the end of a climb
    # from a small literal, and level pairs drawn from them.
    outcomes = {"a": 0, "b": 0, "climbed": 0, "none": 0}
    for seed in range(500):
        rng = random.Random(seed)
        ctx = harness.gen_context(rng, domain)
        if rng.random() < 0.5:
            ctx += (LevelLt(_random_level(rng, ctx, domain)),)
        old, new = TypeChecker(domain), TypeChecker(domain)
        for _ in range(4):
            a, b = _random_level(rng, ctx, domain), _random_level(rng, ctx, domain)
            want = _join_outcome(_join_by_full_climbs, old, ctx, a, b)
            got = _join_outcome(TypeChecker._join_levels, new, ctx, a, b)
            assert got == want, (ctx, a, b)
            if isinstance(want, str):
                outcomes["none"] += 1
            else:
                outcomes["a" if want == a else "b" if want == b else "climbed"] += 1
    assert all(n >= 20 for n in outcomes.values()), outcomes


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


def test_checker_builds_each_level_order_once(monkeypatch):
    builds = []
    build = checker_mod.LevelOrder.__init__

    def counted(self, ctx, *args):
        builds.append(ctx)
        build(self, ctx, *args)

    monkeypatch.setattr(checker_mod.LevelOrder, "__init__", counted)
    outer = (LevelLt(Lvl(Finite(5))),)
    inner = outer + (LevelLt(Var(0)),)
    tc = TypeChecker()
    for _ in range(3):
        assert tc.level_below(outer, Var(0), Lvl(Finite(7)))
        assert tc.level_below(inner, Var(0), Lvl(Finite(9)))
        assert tc.check(inner, Var(0), LevelLt(Lvl(Finite(9))))
        assert tc.check(inner, Var(1), LevelLt(Lvl(Finite(6))))
    assert sorted(builds, key=len) == [outer, inner]


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
    for build in (lambda: U(2), lambda: Pi(U(0), Var(0)), lambda: LOOP):
        yield NAT_OMEGA, build(), build()
    yield NAT_OMEGA, LOOP, LOOP
    # Literal pairs in both shipped domains.
    nat = [Finite(n) for n in range(4)]
    nat_omega = nat[:3] + [OmegaPlus(n) for n in range(3)]
    for domain, values in ((NAT, nat), (NAT_OMEGA, nat_omega)):
        for a in values:
            for b in values:
                yield domain, Lvl(a), Lvl(b)


def test_conv_answers_equal_sides_and_literals_as_convertible_does(monkeypatch):
    fuel = 5
    cases = [
        (domain, a, b, convertible(a, b, fuel))
        for domain, a, b in _early_conversions()
    ]

    def unexpected(*args):
        raise AssertionError("convertible called on an early answer")

    monkeypatch.setattr(checker_mod, "convertible", unexpected)
    for domain, a, b, expected in cases:
        assert expected is not Convertibility.UNDECIDED
        tc = TypeChecker(domain, fuel)
        assert tc._conv(a, b) is (expected is Convertibility.YES), (a, b)


def test_conv_still_runs_out_of_fuel_on_distinct_sides():
    tc = TypeChecker(NAT_OMEGA, 5)
    with pytest.raises(FuelError):
        tc._conv(LOOP, Mty())
    assert convertible(LOOP, Mty(), 5) is Convertibility.UNDECIDED


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
    found = search_derivation(ctx, subject, Univ(inner), depth=8)
    assert found is not None
    assert check_derivation(found).ok
    assert search_derivation(ctx, Univ(inner), Univ(inner), depth=8) is None


def test_context_with_ill_typed_entry_rejected():
    assert not check_context((Var(0),))
    assert check_context((U(0), Var(0)))


def test_undecided_when_the_expected_type_never_head_normalizes():
    res = check((), Mty(), LOOP, fuel=20)
    assert res.verdict is Verdict.UNDECIDED


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
    assert back == d
    assert domain is NAT_OMEGA
    assert check_derivation(back, domain).ok
    assert len(distinct_nodes(back)) == len(doc["nodes"]) == len(distinct_nodes(d))


def distinct_nodes(d: Derivation) -> dict[int, Derivation]:
    seen: dict[int, Derivation] = {}
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.premises)
    return seen


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
    "node-nested-too-deep": lambda doc: doc["nodes"].extend(
        {"rule": "Nil", "ctx": 0, "term": None, "ty": None, "premises": [i]}
        for i in range(
            len(doc["nodes"]) - 1, len(doc["nodes"]) + sys.getrecursionlimit()
        )
    ),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_derivation_from_doc_rejects_malformed_documents(corrupt):
    doc = _small_doc()
    derivation_from_doc(doc)
    corrupt(doc)
    with pytest.raises(ValueError):
        derivation_from_doc(doc)


def test_derivation_from_doc_rejects_tree_documents():
    tree = {"domain": "nat-omega", "root": {
        "rule": "Nil", "ctx": [], "term": None, "ty": None, "premises": []}}
    with pytest.raises(ValueError, match="format marker"):
        derivation_from_doc(tree)
