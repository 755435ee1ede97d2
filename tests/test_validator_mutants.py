"""The validator rejects one-node mutants of derivations the checker
emits: a seeded sample, gated on counts per mutation kind.

Each mutant changes one premise of a node and is validated inside that
node, the smallest subderivation whose rule can notice the change.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterator

from ulevels.checker import RULES, Derivation, check_derivation
from ulevels.harness import GenConfig, gen_case
from ulevels.levels import NAT_OMEGA, LevelDomain
from ulevels.reduction import Convertibility, convertible
from ulevels.terms import LevelLt, Lvl, Mty, Term, Univ, Var

CFG = GenConfig(seed=5, cases=150)
NODES_PER_CASE = 3


def _retarget(ty: Term, domain: LevelDomain, fuel: int) -> Term | None:
    """A type not convertible to ``ty``, of its class when one is."""
    zero = domain.zero()
    one = domain.next_above(zero)
    candidates = (
        Univ(Lvl(zero)), Univ(Lvl(one)), LevelLt(Lvl(zero)), LevelLt(Lvl(one)), Mty()
    )
    for cand in sorted(candidates, key=lambda c: type(c) is not type(ty)):
        if convertible(cand, ty, fuel) is Convertibility.NO:
            return cand
    return None


def _lowered(d: Derivation, domain: LevelDomain) -> Term | None:
    """``d``'s literal bound lowered: to the subject itself at a ``Lvl``
    node, to the least level elsewhere."""
    match d.ty:
        case LevelLt(Lvl(j)):
            if d.rule == "Lvl":
                return LevelLt(d.term)
            if j != domain.zero():
                return LevelLt(Lvl(domain.zero()))
    return None


def edit(d: Derivation, **changes) -> Derivation:
    """``d`` rebuilt with the named fields changed."""
    return Derivation(**{**dict(zip(d.__match_args__, d)), **changes})


def mutations(
    d: Derivation, rng: random.Random, domain: LevelDomain, fuel: int
) -> Iterator[tuple[str, Derivation]]:
    """One mutant of ``d`` per mutation kind that applies to it."""
    ps = d.premises
    if d.ty is not None:
        target = _retarget(d.ty, domain, fuel)
        if target is not None:
            yield "retarget", edit(d, ty=target)
        yield "type-none", edit(d, ty=None)
    if d.term is not None:
        if d.term != Var(7):
            yield "subject-var7", edit(d, term=Var(7))
        yield "subject-none", edit(d, term=None)
    if ps:
        k = rng.randrange(len(ps))
        yield "drop-premise", edit(d, premises=ps[:k] + ps[k + 1:])
        yield "duplicate-premise", edit(d, premises=ps[:k + 1] + ps[k:])
    if len(ps) >= 2:
        a, b = rng.sample(range(len(ps)), 2)
        if ps[a] != ps[b]:
            swapped = list(ps)
            swapped[a], swapped[b] = ps[b], ps[a]
            yield "swap-premises", edit(d, premises=tuple(swapped))
    if d.ctx:
        yield "drop-ctx-entry", edit(d, ctx=d.ctx[:-1])
    other = rng.choice([r for r in RULES if r != d.rule])
    yield "rename-rule", edit(d, rule=other)
    lowered = _lowered(d, domain)
    if lowered is not None:
        yield "lower-bound", edit(d, ty=lowered)


def _edges(d: Derivation) -> list[tuple[Derivation, int]]:
    """Each (node, premise index) of ``d`` once, in a fixed order."""
    seen: set[int] = set()
    out: list[tuple[Derivation, int]] = []
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.extend((node, i) for i in range(len(node.premises)))
        stack.extend(node.premises)
    return out


def mutants(
    d: Derivation, rng: random.Random, domain: LevelDomain, fuel: int,
    nodes: int = NODES_PER_CASE,
) -> Iterator[tuple[str, Derivation]]:
    """Mutants of up to ``nodes`` premises of ``d``, each returned in
    the node that has it as a premise."""
    edges = _edges(d)
    for parent, i in rng.sample(edges, min(nodes, len(edges))):
        ps = parent.premises
        for kind, m in mutations(ps[i], rng, domain, fuel):
            yield kind, edit(parent, premises=ps[:i] + (m,) + ps[i + 1:])


# Mutants per kind at CFG; the gate is a floor near those counts, so a
# change to the generator that thins a kind out shows.
MIN_PER_KIND = {
    "retarget": 220,
    "type-none": 220,
    "subject-var7": 220,
    "subject-none": 220,
    "drop-premise": 310,
    "duplicate-premise": 310,
    "swap-premises": 150,
    "drop-ctx-entry": 240,
    "rename-rule": 370,
    "lower-bound": 75,
}


def test_validator_rejects_every_mutant():
    domain, fuel = NAT_OMEGA, CFG.fuel
    counts: Counter[str] = Counter()
    accepted: list[str] = []
    raised: list[str] = []
    for index in range(CFG.cases):
        d = gen_case(CFG, index, domain).derivation
        rng = random.Random(f"mutants/{CFG.seed}/{index}")
        for kind, mutant in mutants(d, rng, domain, fuel):
            counts[kind] += 1
            try:
                report = check_derivation(mutant, domain, fuel)
            except Exception as e:
                raised.append(f"case {index} {kind}: {e!r}")
                continue
            if report.ok:
                accepted.append(f"case {index} {kind}")
    assert not raised, f"{len(raised)} mutants made the validator raise: {raised[:3]}"
    assert not accepted, f"{len(accepted)} mutants validated: {accepted[:3]}"
    short = {k: n for k, n in MIN_PER_KIND.items() if counts[k] < n}
    assert not short, f"too few mutants: {short} (counts {dict(counts)})"
