"""Parallel reduction, developments, CBN steps, and conversion."""

from __future__ import annotations

from hypothesis import given, settings

import random

import pytest

from gen import terms
from ulevels import reduction, subst
from ulevels.harness import gen_raw
from ulevels.levels import Finite, OmegaPlus
from ulevels.reduction import (
    DEFAULT_FUEL,
    Convertibility,
    EvalOutcome,
    ParExplosion,
    cbn_eval,
    cbn_step,
    complete_development,
    convertible,
    par_reducts,
    par_step_check,
    pars,
    whnf,
)
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
    is_value,
)

IDENT = Lam(Mty(), Var(0))
SELF_APP = Lam(Mty(), App(Var(0), Var(0)))
OMEGA_LOOP = App(SELF_APP, SELF_APP)


def test_complete_development_fires_nested_redexes():
    t = App(IDENT, App(IDENT, Mty()))
    assert complete_development(t) == Mty()


def test_complete_development_stops_at_stuck_head():
    t = App(Var(0), App(IDENT, Mty()))
    assert complete_development(t) == App(Var(0), Mty())


def test_complete_development_drops_annotation():
    t = App(Lam(Univ(Lvl(Finite(3))), Var(0)), Mty())
    assert complete_development(t) == Mty()


def test_par_reducts_of_simple_redex():
    t = App(IDENT, Mty())
    assert par_reducts(t) == frozenset({t, Mty()})


def test_par_reducts_interleaves_inner_and_outer():
    t = App(IDENT, App(IDENT, Mty()))
    inner = App(IDENT, Mty())
    assert par_reducts(t) == frozenset(
        {
            t,
            App(IDENT, Mty()),
            inner,
            Mty(),
        }
    )


def test_par_step_check_frozen():
    t = App(IDENT, Mty())
    assert par_step_check(t, t)
    assert par_step_check(t, Mty())
    assert not par_step_check(t, Var(0))
    assert not par_step_check(Mty(), t)


def test_par_step_check_agrees_with_reduct_membership():
    # Differential against the exhaustive enumeration: for every reduct
    # u of t and every v among t's reducts (the complete development
    # included), the structural decision matches membership.
    answers = {True: 0, False: 0}
    for i in range(1000):
        t = gen_raw(random.Random(f"par-step/{i}"), 12)
        reducts = par_reducts(t)
        assert complete_development(t) in reducts
        for u in reducts:
            members = par_reducts(u)
            for v in reducts:
                got = par_step_check(u, v)
                assert got == (v in members), (t, u, v)
                answers[got] += 1
    assert answers[True] > 0 and answers[False] > 0, answers


def _tower(depth):
    """``t0 = Var(0)``, ``tn = App(Lam(Mty(), t(n-1)), Mty())``: a redex
    nested in the body of a redex ``depth`` times."""
    t = Var(0)
    for _ in range(depth):
        t = App(Lam(Mty(), t), Mty())
    return t


def _count_subst1(monkeypatch):
    calls = []
    subst1 = subst.subst1

    def counted(body, arg):
        calls.append(body)
        return subst1(body, arg)

    monkeypatch.setattr(subst, "subst1", counted)
    return calls


def test_par_reducts_builds_each_body_once(monkeypatch):
    t = _tower(8)
    developed = complete_development(t)
    calls = _count_subst1(monkeypatch)
    assert developed in par_reducts(t)
    assert len(calls) <= 60, len(calls)


def test_par_step_check_tries_the_development_first(monkeypatch):
    # A redex steps to its complete development without any reduct set
    # being enumerated.
    redexes = [
        App(IDENT, App(IDENT, Mty())),
        OMEGA_LOOP,
        App(Lam(Mty(), Pi(Var(0), App(IDENT, Var(0)))), App(IDENT, Mty())),
        _tower(8),
    ]
    developed = [complete_development(t) for t in redexes]

    def refuse(term, cap=0):
        raise AssertionError(f"enumerated the reducts of {term!r}")

    monkeypatch.setattr(reduction, "par_reducts", refuse)
    for t, d in zip(redexes, developed):
        assert par_step_check(t, d)
    calls = _count_subst1(monkeypatch)
    assert par_step_check(redexes[-1], developed[-1])
    assert len(calls) <= 8, len(calls)


def test_par_reducts_cap_counts_each_product_once():
    # Products charged: the body Pi(#0, #0) pairs 1 x 1; the argument
    # (an identity redex) pairs annotation x body 1, then App 1 x 1 and
    # firing 1 x 1; the outer Lam pairs 1 x 1, App 1 x 2, firing 1 x 2.
    t = App(Lam(Mty(), Pi(Var(0), Var(0))), App(IDENT, Mty()))
    total = 1 + 3 + 1 + 2 + 2
    assert len(par_reducts(t, cap=total)) == 4
    with pytest.raises(ParExplosion):
        par_reducts(t, cap=total - 1)


def test_par_step_check_charges_the_enumeration_before_it():
    # Firing only the outer redex is no congruence step and not the
    # complete development Univ(Mty()), so the two reducts of the body
    # and the two of the argument are enumerated: 4 pairs, each set
    # within a cap of 3 (3 pairs apiece).
    before = App(Lam(Mty(), Univ(App(IDENT, Var(0)))), App(IDENT, Mty()))
    after = Univ(App(IDENT, App(IDENT, Mty())))
    assert par_step_check(before, after, cap=4)
    with pytest.raises(ParExplosion):
        par_step_check(before, after, cap=3)


@given(terms(free=2, budget=5))
def test_par_is_reflexive(t):
    assert t in par_reducts(t)


@given(terms(free=2, budget=5))
def test_development_is_a_parallel_step(t):
    assert complete_development(t) in par_reducts(t)


@settings(deadline=None)
@given(terms(free=2, budget=5))
def test_triangle_property(t):
    # Every one-step reduct rejoins at the complete development.
    target = complete_development(t)
    for b in par_reducts(t):
        assert target in par_reducts(b), (t, b)


@given(terms(free=2, budget=6))
def test_complete_development_returns_a_normal_term(t):
    normal, done = pars(t, 20)
    if done:
        assert complete_development(normal) is normal


def test_omega_loop_is_development_fixpoint_but_not_normal():
    assert complete_development(OMEGA_LOOP) == OMEGA_LOOP
    assert complete_development(OMEGA_LOOP) is not OMEGA_LOOP


def test_pars_flags_fuel_exhaustion_on_loop():
    reduct, finished = pars(OMEGA_LOOP, 100)
    assert reduct == OMEGA_LOOP
    assert not finished


def _has_redex(t: Term) -> bool:
    kids = children(t)
    if type(t) is App and type(kids[0]) is Lam:
        return True
    return any(_has_redex(k) for k in kids)


def _scan_then_develop(t: Term, fuel: int) -> tuple[Term, bool]:
    """``pars`` as a scan for a redex before each development."""
    while _has_redex(t):
        if fuel <= 0:
            return t, False
        t = complete_development(t)
        fuel -= 1
    return t, True


@pytest.mark.parametrize("fuel", [0, 1, 3, DEFAULT_FUEL])
def test_pars_agrees_with_a_redex_scan(fuel):
    for i in range(2_000):
        t = gen_raw(random.Random(f"pars-oracle/{i}"), 12)
        assert (complete_development(t) is not t) == _has_redex(t), t
        assert pars(t, fuel) == _scan_then_develop(t, fuel), t
    assert _has_redex(OMEGA_LOOP)
    assert complete_development(OMEGA_LOOP) is not OMEGA_LOOP
    assert pars(OMEGA_LOOP, fuel) == (OMEGA_LOOP, False)


def test_pars_normalizes():
    t = App(IDENT, App(IDENT, Pi(Mty(), Mty())))
    assert pars(t, 10) == (Pi(Mty(), Mty()), True)
    assert pars(Mty(), 0) == (Mty(), True)


def test_cbn_step_reduces_scrutinee():
    t = Absurd(Mty(), App(IDENT, Mty()))
    assert cbn_step(t) == Absurd(Mty(), Mty())


def test_cbn_step_frozen():
    assert cbn_step(App(IDENT, OMEGA_LOOP)) == OMEGA_LOOP
    assert cbn_step(Var(0)) is None
    assert cbn_step(IDENT) is None
    assert cbn_step(App(Var(0), Mty())) is None


def _cbn_eval_by_steps(term: Term, fuel: int) -> tuple[Term, EvalOutcome]:
    """Call-by-name evaluation as a loop of single steps."""
    while True:
        if is_value(term):
            return term, EvalOutcome.VALUE
        nxt = cbn_step(term)
        if nxt is None:
            return term, EvalOutcome.STUCK
        if fuel <= 0:
            return term, EvalOutcome.OUT_OF_FUEL
        term = nxt
        fuel -= 1


@pytest.mark.parametrize("fuel", [0, 1, 3, DEFAULT_FUEL])
def test_cbn_eval_agrees_with_single_steps(fuel):
    rng = random.Random(f"cbn/{fuel}")
    outcomes = set()
    for _ in range(300):
        t = gen_raw(rng, 12, free=0)
        expected = _cbn_eval_by_steps(t, fuel)
        assert cbn_eval(t, fuel) == expected, t
        outcomes.add(expected[1])
    assert {EvalOutcome.VALUE, EvalOutcome.STUCK} <= outcomes
    assert (EvalOutcome.OUT_OF_FUEL in outcomes) == (fuel <= 1)


def test_cbn_eval_outcomes():
    assert cbn_eval(App(IDENT, Mty()), 10) == (Mty(), EvalOutcome.VALUE)
    stuck, outcome = cbn_eval(App(Mty(), Mty()), 10)
    assert outcome == EvalOutcome.STUCK
    _, outcome = cbn_eval(OMEGA_LOOP, 50)
    assert outcome == EvalOutcome.OUT_OF_FUEL


def test_whnf_exposes_head():
    t = App(Lam(Mty(), Pi(Var(0), Mty())), Univ(Lvl(Finite(0))))
    head, done = whnf(t)
    assert done and head == Pi(Univ(Lvl(Finite(0))), Mty())


def test_convertible_frozen_yes():
    lhs = Univ(App(Lam(LevelLt(Lvl(OmegaPlus(0))), Var(0)), Lvl(Finite(0))))
    assert convertible(lhs, Univ(Lvl(Finite(0))), 10) == Convertibility.YES


def test_convertible_frozen_no():
    assert convertible(Pi(Mty(), Mty()), Mty(), 10) == Convertibility.NO


def test_convertible_undecided_on_loop():
    assert convertible(OMEGA_LOOP, Mty(), 10) == Convertibility.UNDECIDED


@given(terms(free=2, budget=5))
def test_convertible_reflexive(t):
    assert convertible(t, t, 100) == Convertibility.YES


@given(terms(free=2, budget=5), terms(free=2, budget=5))
def test_convertible_symmetric(a, b):
    assert convertible(a, b, 200) == convertible(b, a, 200)
