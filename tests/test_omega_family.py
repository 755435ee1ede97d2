"""The Ω family: ill-typed judgments whose ill-typed part never normalizes.

Ω, ``(fun (x : Bot) . x x) (fun (x : Bot) . x x)``, does not type (``x x``
applies a refutation) and has no normal form. Put in place of any subterm
of a judgment's type, subject or context, it leaves a judgment no rule
derives, so the verdict must be REJECTED. An UNDECIDED verdict would mean
the checker normalized a term it had not typed; the checker types every
term before it normalizes it, so the fuel runs out only on well-typed terms.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from ulevels.checker import TypeChecker, Verdict
from ulevels.harness import GenConfig, gen_case
from ulevels.surface import check_module, parse
from ulevels.terms import App, Lam, Mty, Var, children

OMEGA = App(Lam(Mty(), App(Var(0), Var(0))), Lam(Mty(), App(Var(0), Var(0))))

# Low enough that a normalizer reaching Ω gives up at once.
FUEL = 50

# Judgments per part of the generated cases (400 per domain at seed 5),
# one for each subterm Ω replaces.
COUNTS = {
    "nat-omega": {"type": 1_617, "subject": 1_878, "context": 1_537},
    "nat": {"type": 1_674, "subject": 1_753, "context": 1_548},
}


def _holes(t):
    """``t`` with each of its subterms in turn replaced by Ω, in preorder."""
    yield OMEGA
    kids = children(t)
    for i, kid in enumerate(kids):
        for sub in _holes(kid):
            yield type(t)(*kids[:i], sub, *kids[i + 1 :])


def _family(ctx, term, ty):
    for t in _holes(ty):
        yield "type", ctx, term, t
    for t in _holes(term):
        yield "subject", ctx, t, ty
    for i, entry in enumerate(ctx):
        for e in _holes(entry):
            yield "context", ctx[:i] + (e,) + ctx[i + 1 :], term, ty


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_omega_anywhere_in_a_judgment_is_rejected(name):
    start = time.perf_counter()
    cfg = GenConfig(seed=5, cases=400, domain_name=name, fuel=FUEL)
    counts = Counter()
    for i in range(cfg.cases):
        case = gen_case(cfg, i)
        for part, ctx, term, ty in _family(case.ctx, case.term, case.ty):
            res = TypeChecker(cfg.domain, FUEL).check(ctx, term, ty)
            assert res.verdict is Verdict.REJECTED, (part, ctx, term, ty, res)
            counts[part] += 1
    assert counts == COUNTS[name]
    assert time.perf_counter() - start < 5


def test_omega_one_liners_are_rejected():
    # Ω as the whole type, a function type's domain, a universe's level
    # and a level bound: each is a failure, not undecided, at any fuel.
    omega = "((fun (x : Bot) . x x) (fun (x : Bot) . x x))"
    text = "\n".join(
        [
            f"def whole : {omega} := Bot",
            f"def dom : {omega} -> Bot := fun (y : Bot) . y",
            f"def univ : U {omega} := Bot",
            f"def lt : Level< {omega} := 0",
        ]
    )
    for fuel in (FUEL, 10_000):
        report = check_module(parse(text), fuel=fuel)
        assert [e.verdict for e in report.entries] == [Verdict.REJECTED] * 4
