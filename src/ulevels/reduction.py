"""Parallel reduction, complete development, and call-by-name evaluation.

A parallel step is decided structurally. At a redex the complete
development, always a parallel reduct (Takahashi 1995), is tried before
any reduct set is enumerated. Enumeration is capped by the reduct pairs
it combines; past the cap ``ParExplosion`` is raised, which is no answer.

Conversion is joinability: normalize both sides as far as the fuel
allows and compare. Running out of fuel is a third verdict, distinct
from inequality, and callers must treat it as such. ``convertible`` is
the validator's ``Conv`` relation; the type checker compares its own
memoized normal forms instead, and reads every head it needs from them.
Call-by-name (``whnf``, ``cbn_step``, ``cbn_eval``) serves evaluation
alone.
"""

from __future__ import annotations

from enum import Enum

from .terms import (
    Absurd,
    App,
    Lam,
    Term,
    children,
    is_value,
)
from . import subst

__all__ = [
    "DEFAULT_FUEL",
    "ParExplosion",
    "par_reducts",
    "par_step_check",
    "complete_development",
    "pars",
    "whnf",
    "cbn_step",
    "EvalOutcome",
    "cbn_eval",
    "Convertibility",
    "convertible",
]

DEFAULT_FUEL = 10_000


class ParExplosion(Exception):
    """A parallel-reduct enumeration passed the requested cap."""


def par_reducts(term: Term, cap: int = 1_000_000) -> frozenset[Term]:
    """Every one-step parallel reduct of ``term`` (including ``term``:
    the relation is reflexive by congruence).

    Exhaustive, so worst-case exponential in the number of nested
    applications. A binary node pairs its children's reducts, and a
    redex ``App(Lam(A, b), s)`` also fires each reduct of ``b`` (built
    once for both) at each reduct of ``s``. ``cap`` bounds the pairs of
    the whole call; each product is charged before it is enumerated."""
    left = cap

    def product(make, xs, ys) -> list[Term]:
        nonlocal left
        left -= len(xs) * len(ys)
        if left < 0:
            raise ParExplosion(f"more than {cap} reduct pairs")
        return [make(x, y) for x in xs for y in ys]

    def go(t: Term) -> frozenset[Term]:
        kids = children(t)
        if not kids:
            return frozenset((t,))
        make = type(t)
        if len(kids) == 1:
            return frozenset(make(x) for x in go(kids[0]))
        if make is not App or type(kids[0]) is not Lam:
            return frozenset(product(make, go(kids[0]), go(kids[1])))
        # Firing the redex drops the annotation and substitutes a
        # reduct of the argument into a reduct of the body.
        ann, body = kids[0]
        bodies, args = go(body), go(kids[1])
        fns = product(Lam, go(ann), bodies)
        return frozenset(
            product(App, fns, args) + product(subst.subst1, bodies, args)
        )

    return go(term)


def par_step_check(before: Term, after: Term, cap: int = 1_000_000) -> bool:
    """Does ``before`` parallel-step to ``after``? Decided by structural
    recursion on ``before`` (Takahashi's definition of the relation):
    congruence compares heads and recurses. A redex ``App(Lam(A, b), s)``
    that does not step to ``after`` by congruence is compared with its
    complete development, and only when that misses are the reducts of
    ``b`` and ``s`` enumerated (each within ``cap``) and each ``subst1``
    compared; their product is charged to ``cap`` before enumerating."""
    kids = children(before)
    if not kids:
        return before == after
    if (
        type(after) is type(before)
        and par_step_check(kids[0], after[0], cap)
        and (len(kids) == 1 or par_step_check(kids[1], after[1], cap))
    ):
        return True
    fn = kids[0]
    if type(before) is not App or type(fn) is not Lam:
        return False
    if complete_development(before) == after:
        return True
    bodies, args = par_reducts(fn.body, cap), par_reducts(kids[1], cap)
    if len(bodies) * len(args) > cap:
        raise ParExplosion(f"more than {cap} reduct pairs")
    return any(subst.subst1(b, a) == after for b in bodies for a in args)


def complete_development(term: Term) -> Term:
    """Fire every redex visible in ``term`` at once, innermost results
    feeding outer ones. A subterm without a redex comes back as is."""
    kids = children(term)
    if not kids:
        return term
    if type(term) is App and type(kids[0]) is Lam:
        return subst.subst1(
            complete_development(kids[0].body), complete_development(kids[1])
        )
    first = complete_development(kids[0])
    if len(kids) == 1:
        return term if first is kids[0] else type(term)(first)
    second = complete_development(kids[1])
    if first is kids[0] and second is kids[1]:
        return term
    return type(term)(first, second)


def pars(term: Term, fuel: int = DEFAULT_FUEL) -> tuple[Term, bool]:
    """Iterate complete developments until one returns its argument
    itself, which happens exactly when it has no beta redex. Identity
    is the test, not equality: a self-replicating redex develops to an
    equal but new term, which is not normal. Each step to a new reduct
    costs one unit of fuel. Returns the last reduct and whether it is a
    normal form; False means the fuel ran out."""
    while (nxt := complete_development(term)) is not term:
        if fuel <= 0:
            return term, False
        term = nxt
        fuel -= 1
    return term, True


def whnf(term: Term, fuel: int = DEFAULT_FUEL) -> tuple[Term, bool]:
    """Weak-head normalize by call-by-name steps. The flag reports
    whether stepping finished within the fuel."""
    while fuel > 0:
        nxt = cbn_step(term)
        if nxt is None:
            return term, True
        term = nxt
        fuel -= 1
    return term, cbn_step(term) is None


def cbn_step(term: Term) -> Term | None:
    """One call-by-name step, or None when none applies (value or
    stuck)."""
    match term:
        case App(Lam(_, body), arg):
            return subst.subst1(body, arg)
        case App(fn, arg):
            stepped = cbn_step(fn)
            return None if stepped is None else App(stepped, arg)
        case Absurd(ann, scrut):
            stepped = cbn_step(scrut)
            return None if stepped is None else Absurd(ann, stepped)
        case _:
            return None


class EvalOutcome(Enum):
    VALUE = "value"
    STUCK = "stuck"
    OUT_OF_FUEL = "out-of-fuel"


def cbn_eval(term: Term, fuel: int = DEFAULT_FUEL) -> tuple[Term, EvalOutcome]:
    """Drive call-by-name evaluation to a value, stuckness, or fuel
    exhaustion: ``whnf``, then a weak-head normal form is a value or
    stuck, since a value never steps."""
    term, done = whnf(term, fuel)
    if not done:
        return term, EvalOutcome.OUT_OF_FUEL
    return term, EvalOutcome.VALUE if is_value(term) else EvalOutcome.STUCK


class Convertibility(Enum):
    YES = "yes"
    NO = "no"
    UNDECIDED = "undecided"


def convertible(a: Term, b: Term, fuel: int = DEFAULT_FUEL) -> Convertibility:
    """Joinability of ``a`` and ``b``. Each side gets the full fuel."""
    na, done_a = pars(a, fuel)
    nb, done_b = pars(b, fuel)
    if na == nb:
        return Convertibility.YES
    if done_a and done_b:
        return Convertibility.NO
    return Convertibility.UNDECIDED
