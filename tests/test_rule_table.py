"""Relation mutants generated from the rule table.

Dropping one check of one rule (one equation of an equation group, or
one predicate) gives a weaker validator. A derivation kills that
relation mutant when the full table rejects it and the weaker one
accepts it: when the dropped check is the only check that fails, at any
of its nodes, and every node has its rule's shape. Each derivation
mutant is walked once with every check evaluated on its own, so one
walk tells which relation mutant, if any, it kills. Every check must
have a killer, and the validator run with that check taken out of its
table entry must accept the first one.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter

import pytest

from ulevels.checker import (
    _RULES,
    Derivation,
    TypeChecker,
    _equations,
    _shape_error,
    check_derivation,
    postorder,
)
from ulevels.harness import GenConfig, gen_case
from ulevels.levels import NAT_OMEGA, Finite
from ulevels.terms import BINDS, Lam, Lvl, Mty, Pi, Univ, Var

CFG = GenConfig(seed=3, cases=100)
DOMAIN, FUEL = NAT_OMEGA, CFG.fuel
PREMISES = attrgetter("premises")
FAR = Var(7)  # a part that no generated judgment has in the place it is put
SHAPE = ("shape", "")


def _droppable(rule) -> list:
    """``rule``'s checks one by one, in table order, by name: each
    equation compiled on its own, and each predicate."""
    out = []
    for check in rule[1:]:
        if hasattr(check, "equations"):
            out.extend((eq, _equations("fails", eq)) for eq in check.equations)
        else:
            out.append((check.__name__, check))
    return out


DROPPABLE = {r: _droppable(rule) for r, rule in _RULES.items()}

# Derivation mutants validated in full, per kind, to confirm the walk.
VALIDATED_PER_KIND = 40

# Pinned at CFG: derivation mutants per kind, ...
MUTANTS_PER_KIND = {
    "context": 438,
    "subject": 1778,
    "type": 1778,
    "type field": 1865,
    "subject field": 1178,
    "premise type": 533,
    "premise subject": 668,
    "annotation": 1,
}

# ... what each one fails: some rule's shape, exactly one check (and so
# kills that check's relation mutant), several checks, or nothing ...
OUTCOMES = {
    "one check": 4464,
    "shape": 3320,
    "valid": 120,
    "several checks": 335,
}

# ... and the killers of each relation mutant, in table order. Only the
# hand-built mutant kills `t.ann = ty.dom`: a generated `Lam` node's
# type is typed by a premise, so a changed domain breaks `p1.term = ty`
# too.
KILLS = {
    ("Nil", "ctx = ()"): 100,
    ("Cons", "ctx[-1:] = (p1.term,)"): 338,
    ("Var", "_var_lookup"): 380,
    ("Pi", "p0.term = t.dom"): 126,
    ("Pi", "p0.ty.level = ty.level"): 64,
    ("Pi", "p1.term = t.cod"): 163,
    ("Pi", "p1.ty.level = subst.shift(ty.level, 1, 0)"): 43,
    ("Lam", "t.ann = ty.dom"): 1,
    ("Lam", "p0.term = t.ann"): 66,
    ("Lam", "p1.term = ty"): 66,
    ("Lam", "p0.ty.level = p1.ty.level"): 21,
    ("Lam", "p2.term = t.body"): 73,
    ("Lam", "p2.ty = ty.cod"): 2,
    ("App", "p0.term = t.fn"): 48,
    ("App", "p1.term = t.arg"): 85,
    ("App", "p1.ty = p0.ty.dom"): 7,
    ("App", "ty = subst.subst1(p0.ty.cod, t.arg)"): 97,
    ("Mty", "p0.term = ty"): 127,
    ("Abs", "ty = t.ann"): 17,
    ("Abs", "p0.term = t.ann"): 3,
    ("Abs", "p1.term = t.scrut"): 9,
    ("Conv", "p0.term = t"): 54,
    ("Conv", "p1.term = ty"): 23,
    ("Conv", "_conversion"): 8,
    ("Univ", "p0.term = t.level"): 519,
    ("Univ", "p0.ty.bound = ty.level"): 595,
    ("LevelLt", "p0.term = ty"): 224,
    ("LevelLt", "p1.term = t.bound"): 188,
    ("Lvl", "_lvl_order"): 636,
    ("Trans", "p0.term = t"): 26,
    ("Trans", "p1.term = p0.ty.bound"): 20,
    ("Trans", "p1.ty.bound = ty.bound"): 13,
    ("Cumul", "p0.term = t"): 142,
    ("Cumul", "p1.term = p0.ty.level"): 81,
    ("Cumul", "p1.ty.bound = ty.level"): 99,
}


def _failing(node: Derivation) -> frozenset:
    """The checks ``node`` fails, each as (rule, name), or {SHAPE}."""
    r, ctx, t, ty, ps = node
    if _shape_error(r, ctx, t, ty, ps) is not None:
        return frozenset((SHAPE,))
    fails = frozenset(
        (r, name) for name, check in DROPPABLE[r]
        if check(ctx, t, ty, ps, DOMAIN, FUEL) is not None
    )
    # The validator's own checks, equations grouped, fail exactly when
    # one of them fails on its own.
    grouped = any(c(ctx, t, ty, ps, DOMAIN, FUEL) is not None for c in _RULES[r][1:])
    assert grouped == bool(fails), (node, fails)
    return fails


def _with(node: Derivation, i: int, value) -> Derivation:
    fields = list(node)
    fields[i] = value
    return Derivation(*fields)


def _mutants(node: Derivation, by_type: dict, by_subject: dict):
    """Derivation mutants of ``node``, a valid node, by kind: one part
    of it changed, or one premise swapped for a valid derivation that
    differs from it in its subject only or in its type only."""
    r, ctx, t, ty, ps = node
    if t is None:
        yield "context", _with(node, 1, ctx[:-1] + (FAR,))
        return
    for i, part in ((2, t), (3, ty)):
        name = "subject" if i == 2 else "type"
        yield name, _with(node, i, FAR)
        for k, field in enumerate(part):
            if type(field) in BINDS:
                fields = list(part)
                fields[k] = FAR
                yield f"{name} field", _with(node, i, type(part)(*fields))
    for k, p in enumerate(ps):
        if p.term is None:
            continue
        swaps = (
            ("premise subject", by_type.get((p.ctx, p.ty), ()),
             lambda q: q.term != p.term),
            ("premise type", by_subject.get((p.ctx, p.term), ()),
             lambda q: q.ty != p.ty and type(q.ty) is type(p.ty)),
        )
        for kind, pool, differs in swaps:
            q = next(filter(differs, pool), None)
            if q is not None:
                yield kind, _with(node, 4, ps[:k] + (q,) + ps[k + 1:])


def _annotation_mutant() -> Derivation:
    """``fun (x : U 0) . x : Pi (x : Bot) . U 0``: a `Lam` node whose
    premises all agree with its conclusion, and whose annotation is not
    its type's domain."""
    tc = TypeChecker(DOMAIN)
    u0, u1 = Univ(Lvl(Finite(0))), Univ(Lvl(Finite(1)))
    lam = tc.check((), Lam(u0, Var(0)), Pi(u0, u0)).derivation
    pi = tc.check((), Pi(Mty(), u0), u1).derivation
    assert lam.rule == "Lam" and lam.premises[1].ty == u1 and pi.ty == u1
    d_ann, _, d_body = lam.premises
    return Derivation("Lam", (), lam.term, pi.term, (d_ann, pi, d_body))


def _sample() -> list[Derivation]:
    """Each distinct node of the derivations generated at CFG, once."""
    seen: dict[Derivation, None] = {}
    for index in range(CFG.cases):
        for node in postorder(gen_case(CFG, index, DOMAIN).derivation, PREMISES):
            seen.setdefault(node)
    return list(seen)


def _walk(nodes: list[Derivation]):
    """Each derivation mutant of ``nodes``, by kind, with the checks it
    fails: one walk each, every node's checks evaluated once."""
    by_type: dict = {}
    by_subject: dict = {}
    for node in nodes:
        if node.term is not None:
            by_type.setdefault((node.ctx, node.ty), []).append(node)
            by_subject.setdefault((node.ctx, node.term), []).append(node)
    cache: dict[Derivation, frozenset] = {}

    def failures(d: Derivation) -> frozenset:
        out = frozenset()
        for node in postorder(d, PREMISES):
            if node not in cache:
                cache[node] = _failing(node)
            out |= cache[node]
        return out

    assert not any(failures(node) for node in nodes)
    for node in nodes:
        for kind, mutant in _mutants(node, by_type, by_subject):
            yield kind, mutant, failures(mutant)
    mutant = _annotation_mutant()
    yield "annotation", mutant, failures(mutant)


def _without(rule, name: str):
    """``rule`` with its check ``name`` dropped: one equation of a group,
    or a whole predicate."""
    shape, *checks = rule
    out = [shape]
    for check in checks:
        if not hasattr(check, "equations"):
            if check.__name__ != name:
                out.append(check)
            continue
        rest = [eq for eq in check.equations if eq != name]
        if rest:  # the message is not read: only the verdict is
            out.append(_equations("fails", *rest))
    return tuple(out)


def test_every_check_of_the_table_has_a_killing_mutant(monkeypatch):
    kinds: Counter[str] = Counter()
    outcomes: Counter[str] = Counter()
    kills: Counter[tuple[str, str]] = Counter()
    first: dict[tuple[str, str], Derivation] = {}
    for kind, mutant, fails in _walk(_sample()):
        if kinds[kind] < VALIDATED_PER_KIND:
            # The validator's verdict is the walk's.
            assert check_derivation(mutant, DOMAIN, FUEL).ok == (not fails), kind
        kinds[kind] += 1
        if SHAPE in fails:
            outcomes["shape"] += 1
        elif len(fails) == 1:
            outcomes["one check"] += 1
            (key,) = fails
            kills[key] += 1
            first.setdefault(key, mutant)
        else:
            outcomes["valid" if not fails else "several checks"] += 1
    every = [(r, name) for r, checks in DROPPABLE.items() for name, _ in checks]
    survivors = [key for key in every if not kills[key]]
    assert not survivors, f"relation mutants no derivation mutant kills: {survivors}"
    assert dict(kinds) == MUTANTS_PER_KIND
    assert dict(outcomes) == OUTCOMES
    assert {key: kills[key] for key in every} == KILLS
    # The validator with that check dropped accepts its first killer.
    for (r, name), mutant in first.items():
        assert not check_derivation(mutant, DOMAIN, FUEL).ok
        with monkeypatch.context() as m:
            m.setitem(_RULES, r, _without(_RULES[r], name))
            assert check_derivation(mutant, DOMAIN, FUEL).ok, (r, name)


def test_an_equation_must_have_exactly_two_sides():
    for equations in (("a = b", "c = d = e"), ("c = d = e",), ("a = b", "c")):
        with pytest.raises(ValueError):
            _equations("m", *equations)
