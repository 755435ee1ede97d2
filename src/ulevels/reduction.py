"""Parallel reduction, complete development, and call-by-name evaluation.

Conversion is joinability: normalize both sides as far as the fuel
allows and compare. Running out of fuel is a third verdict, distinct
from inequality, and callers must treat it as such.
"""

from __future__ import annotations

from enum import Enum

from .terms import (
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
    alpha_equal,
    is_value,
    iter_subterms,
)
from . import subst

__all__ = [
    "DEFAULT_FUEL",
    "ParExplosion",
    "par_reducts",
    "par_step_check",
    "complete_development",
    "is_normal",
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
    """The one-step parallel reduct set exceeded the requested cap."""


def _pairs(xs, ys, guard):
    for x in xs:
        for y in ys:
            guard()
            yield x, y


def _spender(cap: int):
    """A guard for ``_pairs`` that raises ParExplosion on call cap+1."""
    left = [cap]

    def spend():
        left[0] -= 1
        if left[0] < 0:
            raise ParExplosion(f"more than {cap} parallel reducts")

    return spend


def par_reducts(term: Term, cap: int = 1_000_000) -> frozenset[Term]:
    """Every one-step parallel reduct of ``term`` (including ``term``:
    the relation is reflexive by congruence).

    Exhaustive, so worst-case exponential in the number of nested
    applications; ``cap`` bounds the total work.
    """
    spend = _spender(cap)

    def go(t: Term) -> frozenset[Term]:
        match t:
            case Var(_) | Lvl(_) | Mty():
                return frozenset((t,))
            case Pi(a, b):
                return frozenset(
                    Pi(x, y) for x, y in _pairs(go(a), go(b), spend)
                )
            case Lam(a, b):
                return frozenset(
                    Lam(x, y) for x, y in _pairs(go(a), go(b), spend)
                )
            case Absurd(a, b):
                return frozenset(
                    Absurd(x, y) for x, y in _pairs(go(a), go(b), spend)
                )
            case Univ(a):
                return frozenset(Univ(x) for x in go(a))
            case LevelLt(a):
                return frozenset(LevelLt(x) for x in go(a))
            case App(fn, arg):
                args = go(arg)
                out = set(App(x, y) for x, y in _pairs(go(fn), args, spend))
                if isinstance(fn, Lam):
                    # Firing the redex drops the annotation and
                    # substitutes a reduct of the argument into a
                    # reduct of the body.
                    for body, a in _pairs(go(fn.body), args, spend):
                        out.add(subst.subst1(body, a))
                return frozenset(out)
        raise TypeError(f"Unexpected term in par_reducts: {t!r}")

    return go(term)


def par_step_check(before: Term, after: Term, cap: int = 1_000_000) -> bool:
    """Does ``before`` parallel-step to ``after``? Decided by structural
    recursion on ``before`` (Takahashi's definition of the relation):
    congruence compares heads and recurses. Only at a redex
    ``App(Lam(A, b), s)`` that does not step to ``after`` by congruence
    are the reducts of ``b`` and ``s`` enumerated and each ``subst1``
    compared with ``after``; ``cap`` bounds each of those enumerations
    and their product, as in ``par_reducts``."""
    match before, after:
        case (Var(_) | Lvl(_) | Mty()), _:
            return before == after
        case (
            (Pi(a, b), Pi(x, y)) | (Lam(a, b), Lam(x, y)) | (Absurd(a, b), Absurd(x, y))
        ):
            return par_step_check(a, x, cap) and par_step_check(b, y, cap)
        case (Univ(a), Univ(x)) | (LevelLt(a), LevelLt(x)):
            return par_step_check(a, x, cap)
        case App(fn, arg), _:
            if (
                isinstance(after, App)
                and par_step_check(fn, after.fn, cap)
                and par_step_check(arg, after.arg, cap)
            ):
                return True
            if not isinstance(fn, Lam):
                return False
            bodies, args = par_reducts(fn.body, cap), par_reducts(arg, cap)
            pairs = _pairs(bodies, args, _spender(cap))
            return any(subst.subst1(body, a) == after for body, a in pairs)
        case (Pi() | Lam() | Absurd() | Univ() | LevelLt()), _:
            return False
    raise TypeError(f"Unexpected term in par_step_check: {before!r}")


def complete_development(term: Term) -> Term:
    """Fire every redex visible in ``term`` at once, innermost results
    feeding outer ones."""
    match term:
        case Var(_) | Lvl(_) | Mty():
            return term
        case Pi(a, b):
            return Pi(complete_development(a), complete_development(b))
        case Lam(a, b):
            return Lam(complete_development(a), complete_development(b))
        case Absurd(a, b):
            return Absurd(complete_development(a), complete_development(b))
        case Univ(a):
            return Univ(complete_development(a))
        case LevelLt(a):
            return LevelLt(complete_development(a))
        case App(Lam(_, body), arg):
            return subst.subst1(
                complete_development(body), complete_development(arg)
            )
        case App(fn, arg):
            return App(complete_development(fn), complete_development(arg))
    raise TypeError(f"Unexpected term in complete_development: {term!r}")


def is_normal(term: Term) -> bool:
    """No beta redex anywhere. Developments can have fixpoints that are
    not normal (a self-replicating redex), so this is the real test."""
    return not any(
        isinstance(t, App) and isinstance(t.fn, Lam) for t in iter_subterms(term)
    )


def pars(term: Term, fuel: int = DEFAULT_FUEL) -> tuple[Term, bool]:
    """Iterate complete developments. Returns the last reduct and
    whether it is a normal form; False means the fuel ran out."""
    while not is_normal(term):
        if fuel <= 0:
            return term, False
        term = complete_development(term)
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
    exhaustion."""
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


class Convertibility(Enum):
    YES = "yes"
    NO = "no"
    UNDECIDED = "undecided"


def convertible(a: Term, b: Term, fuel: int = DEFAULT_FUEL) -> Convertibility:
    """Joinability of ``a`` and ``b``. Each side gets the full fuel."""
    na, done_a = pars(a, fuel)
    nb, done_b = pars(b, fuel)
    if alpha_equal(na, nb):
        return Convertibility.YES
    if done_a and done_b:
        return Convertibility.NO
    return Convertibility.UNDECIDED
