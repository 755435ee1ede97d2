"""Randomized metatheory harness.

Generates well-typed judgments derivation-first (every case carries the
derivation the checker emitted for it) and runs the property suites:

- ``subject-reduction``: parallel reducts of well-typed terms keep their
  type.
- ``diamond``: every one-step parallel reduct of an arbitrary term
  reduces to its complete development (the triangle property, checked
  exhaustively on small terms).
- ``progress``: closed well-typed terms never get stuck under
  call-by-name evaluation.
- ``canonicity``: closed values match the head form their type demands,
  with concrete levels strictly below their bounds.
- ``consistency``: nothing closed checks against the empty type.
- ``coverage``: every typing rule appears in at least 1% of generated
  derivations.

Generation is deterministic: case ``i`` of seed ``s`` draws from
``random.Random(f"{s}/{i}")``, and each report carries a digest of the
generated stream so two runs with one seed are byte-comparable.
"""

from __future__ import annotations

import hashlib
import random
import time
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, Sequence

from . import subst
from .checker import (
    RULES,
    Derivation,
    FuelError,
    TypeChecker,
    TypingError,
    Verdict,
    check,
)
from .levels import (
    LevelDomain,
    LevelValue,
    NAT_OMEGA,
    OmegaPlus,
    domain_named,
    randbelow,
)
from .node import Node
from .reduction import (
    DEFAULT_FUEL,
    EvalOutcome,
    ParExplosion,
    cbn_eval,
    complete_development,
    par_reducts,
    par_step_check,
    pars,
)
from .terms import (
    Absurd,
    App,
    Context,
    Lam,
    LevelLt,
    Lvl,
    Mty,
    Pi,
    Term,
    Univ,
    Var,
    children,
    term_size,
)

__all__ = [
    "GenConfig",
    "GenError",
    "GenCase",
    "gen_case",
    "gen_well_typed",
    "gen_raw",
    "PropertyReport",
    "run_subject_reduction",
    "run_diamond",
    "run_progress",
    "run_canonicity",
    "run_consistency",
    "run_coverage",
    "SUITES",
    "run_suite",
    "shrink_term",
    "broken_substitution",
    "RULES",
]


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    cases: int = 200
    max_size: int = 14
    raw_size: int = 12
    domain_name: str = "nat-omega"
    fuel: int = DEFAULT_FUEL

    @property
    def domain(self) -> LevelDomain:
        return domain_named(self.domain_name)


class GenError(Exception):
    """The generator produced a candidate the checker would not accept;
    that is a generator bug and should never be masked."""


class GenCase(Node):
    __slots__ = ()
    __match_args__ = ("index", "ctx", "term", "ty", "derivation")

    def __new__(
        cls, index: int, ctx: Context, term: Term, ty: Term, derivation: Derivation
    ) -> GenCase:
        return tuple.__new__(cls, (index, ctx, term, ty, derivation))


def _rng_for(cfg: GenConfig, index: int) -> random.Random:
    return random.Random(f"{cfg.seed}/{index}")


_Options = tuple[tuple[str, int], ...]

# (total weight, cumulative weights, tags) of each option tuple drawn
# from. The generators build their option tuples from a fixed set of
# literals, a few dozen in all, so this holds at most that many entries.
_TABLES: dict[_Options, tuple[int, tuple[int, ...], tuple[str, ...]]] = {}


def _weighted(rng: random.Random, options: _Options) -> str:
    """A tag of ``options`` drawn with probability proportional to its
    weight: one ``randbelow`` over the total weight, the first tag whose
    cumulative weight exceeds it."""
    table = _TABLES.get(options)
    if table is None:
        cumulative = tuple(accumulate(w for _, w in options))
        tags = tuple(tag for tag, _ in options)
        table = _TABLES[options] = (cumulative[-1], cumulative, tags)
    total, cumulative, tags = table
    return tags[bisect_right(cumulative, randbelow(rng, total))]


def _choice(rng: random.Random, seq: Sequence[int]) -> int:
    return seq[randbelow(rng, len(seq))]


def _above(rng: random.Random, domain: LevelDomain, value: LevelValue) -> LevelValue:
    if domain is NAT_OMEGA and not isinstance(value, OmegaPlus) and rng.random() < 0.3:
        return OmegaPlus(randbelow(rng, 3))
    return domain.nth_above(value, 1 + randbelow(rng, 3))


# ---------------------------------------------------------------------------
# Context and term generation


def gen_context(rng: random.Random, domain: LevelDomain) -> Context:
    depth = randbelow(rng, 5)
    entries: list[Term] = []
    for i in range(depth):
        lt_ixs = [j for j, e in enumerate(entries) if isinstance(e, LevelLt)]
        ty_ixs = [j for j, e in enumerate(entries) if isinstance(e, Univ)]
        options: _Options = (("bot", 3), ("ulit", 3), ("ltlit", 3), ("arrow", 1))
        if lt_ixs:
            options += (("ltvar", 3), ("uvar", 2))
        if ty_ixs:
            options += (("tyvar", 2),)
        tag = _weighted(rng, options)
        if tag == "bot":
            entries.append(Mty())
        elif tag == "ulit":
            entries.append(Univ(Lvl(domain.sample(rng, 3))))
        elif tag == "ltlit":
            entries.append(LevelLt(Lvl(domain.sample(rng))))
        elif tag == "arrow":
            a = Univ(Lvl(domain.sample(rng, 2)))
            b = Univ(Lvl(domain.sample(rng, 2)))
            entries.append(Pi(a, subst.shift(b, 1, 0)))
        elif tag == "ltvar":
            j = _choice(rng, lt_ixs)
            entries.append(LevelLt(Var(i - 1 - j)))
        elif tag == "uvar":
            j = _choice(rng, lt_ixs)
            entries.append(Univ(Var(i - 1 - j)))
        else:
            j = _choice(rng, ty_ixs)
            entries.append(Var(i - 1 - j))
    return tuple(entries)


def _scope(ctx: Context) -> tuple[list[Term], dict[type, list[int]]]:
    """The type of each variable of ``ctx``, by index, and the indices
    grouped by the class of their type."""
    types: list[Term] = []
    by_class: dict[type, list[int]] = {}
    for ix in range(len(ctx)):
        ty = subst.ctx_lookup(ctx, ix)
        types.append(ty)
        by_class.setdefault(type(ty), []).append(ix)
    return types, by_class


def gen_type(rng: random.Random, ctx: Context, domain: LevelDomain, budget: int) -> Term:
    _, by_class = _scope(ctx)
    lt_ixs = by_class.get(LevelLt)
    ty_ixs = by_class.get(Univ)
    bot_ixs = by_class.get(Mty)
    options: _Options = (("bot", 2), ("ulit", 3), ("ltlit", 3))
    if budget > 2:
        options += (("pi", 3),)
    if lt_ixs:
        options += (("uvar", 2), ("ltvar", 2))
    if ty_ixs:
        options += (("tyvar", 2),)
    if bot_ixs:
        options += (("ustuck", 2),)
    tag = _weighted(rng, options)
    if tag == "bot":
        return Mty()
    if tag == "ulit":
        return Univ(Lvl(domain.sample(rng, 3)))
    if tag == "ltlit":
        return LevelLt(Lvl(domain.sample(rng)))
    if tag == "uvar":
        return Univ(Var(_choice(rng, lt_ixs)))
    if tag == "ltvar":
        return LevelLt(Var(_choice(rng, lt_ixs)))
    if tag == "tyvar":
        return Var(_choice(rng, ty_ixs))
    if tag == "ustuck":
        return Univ(Absurd(LevelLt(Lvl(domain.sample(rng))), Var(_choice(rng, bot_ixs))))
    dom = gen_type(rng, ctx, domain, budget // 2)
    cod = gen_type(rng, subst.ctx_extend(ctx, dom), domain, budget // 2)
    return Pi(dom, cod)


def _inhabit(
    rng: random.Random,
    types: list[Term],
    bot_ixs: list[int] | None,
    want: Term,
    domain: LevelDomain,
) -> Term | None:
    """Cheap inhabitant of ``want`` in a context whose variables have
    ``types`` (``bot_ixs`` those of type Bot), or None."""
    for ix, ty in enumerate(types):
        if ty == want:
            return Var(ix)
    match want:
        case Univ(_):
            return Mty()
        case LevelLt(Lvl(bound)):
            below = domain.sample_below(rng, bound)
            return Lvl(below) if below is not None else None
        case Mty():
            return Var(_choice(rng, bot_ixs)) if bot_ixs else None
    return None


def gen_term(rng: random.Random, ctx: Context, tc: TypeChecker, budget: int) -> Term:
    """Random well-typed term in ``ctx``; ``tc`` types redex arguments
    and supplies the level domain."""
    domain = tc.domain
    types, by_class = _scope(ctx)
    bot_ixs = by_class.get(Mty)
    pi_ixs = by_class.get(Pi)
    options: _Options = (("lvl", 4), ("type", 3))
    if ctx:
        options += (("var", 4),)
    if budget > 2:
        options += (("lam", 3),)
    if budget > 3:
        options += (("redex", 3),)
    if bot_ixs:
        options += (("absurd", 3),)
    if pi_ixs:
        options += (("appvar", 2),)
    tag = _weighted(rng, options)
    if tag == "lvl":
        a = domain.sample(rng)
        return Lvl(a)
    if tag == "var":
        return Var(randbelow(rng, len(ctx)))
    if tag == "type":
        return gen_type(rng, ctx, domain, budget)
    if tag == "lam":
        dom = gen_type(rng, ctx, domain, max(1, budget // 3))
        body = gen_term(rng, subst.ctx_extend(ctx, dom), tc, budget // 2)
        return Lam(dom, body)
    if tag == "redex":
        arg = gen_term(rng, ctx, tc, max(1, budget // 3))
        arg_ty, _ = tc.infer(ctx, arg)
        if rng.random() < 0.4:
            body: Term = Var(0)
        else:
            body = subst.shift(gen_term(rng, ctx, tc, max(1, budget // 3)), 1, 0)
        return App(Lam(arg_ty, body), arg)
    if tag == "absurd":
        ann = gen_type(rng, ctx, domain, max(1, budget - 1))
        return Absurd(ann, Var(_choice(rng, bot_ixs)))
    pix = _choice(rng, pi_ixs)
    arg = _inhabit(rng, types, bot_ixs, types[pix].dom, domain)
    if arg is None:
        return gen_term(rng, ctx, tc, max(1, budget - 1))
    return App(Var(pix), arg)


def _relax_type(rng: random.Random, ctx: Context, ty: Term, tc: TypeChecker) -> Term:
    """Loosen an inferred type so checking has to subsume or convert."""
    domain, fuel = tc.domain, tc.fuel
    roll = rng.random()
    if roll < 0.45:
        return ty
    n_ty, done = pars(ty, fuel)
    if not done:
        return ty
    out = n_ty
    match n_ty:
        case Univ(Lvl(v)):
            out = Univ(Lvl(_above(rng, domain, v)))
        case LevelLt(Lvl(v)):
            out = LevelLt(Lvl(_above(rng, domain, v)))
    if roll > 0.8:
        try:
            u_ty, _ = tc.infer(ctx, out)
        except TypingError:
            return out
        n_u, done_u = pars(u_ty, fuel)
        if done_u and isinstance(n_u, Univ) and isinstance(n_u.level, Lvl):
            wrapper = Lam(Univ(Lvl(domain.next_above(n_u.level.value))), Var(0))
            return App(wrapper, out)
    return out


def gen_case(
    cfg: GenConfig,
    index: int,
    domain: LevelDomain | None = None,
    closed: bool = False,
    *,
    tc: TypeChecker | None = None,
) -> GenCase:
    """Case ``index`` of ``cfg``. One checker types the whole case, so
    the final check reuses every inference made while generating: the
    caller's ``tc``, kept to check follow-up judgments with the same
    caches, or a fresh one over ``domain`` (default ``cfg.domain``).
    Raises FuelError when the fuel runs out before the judgment is
    settled, and GenError when the checker rejects it."""
    if tc is None:
        tc = TypeChecker(domain or cfg.domain, cfg.fuel)
    rng = _rng_for(cfg, index)
    ctx = () if closed else gen_context(rng, tc.domain)
    term = gen_term(rng, ctx, tc, cfg.max_size)
    try:
        inferred, _ = tc.infer(ctx, term)
    except FuelError:
        raise
    except TypingError as e:
        raise GenError(f"case {index}: generated term failed inference: {e}") from e
    ty = _relax_type(rng, ctx, inferred, tc)
    res = tc.check(ctx, term, ty)
    if res.verdict is Verdict.UNDECIDED:
        raise FuelError(f"case {index}: generated judgment undecided: {res.message}")
    if res.verdict is not Verdict.ACCEPTED or res.derivation is None:
        raise GenError(
            f"case {index}: generated judgment rejected: {res.message}"
        )
    return GenCase(index, ctx, term, ty, res.derivation)


def gen_well_typed(cfg: GenConfig, closed: bool = False) -> Iterator[GenCase]:
    domain = cfg.domain
    for i in range(cfg.cases):
        yield gen_case(cfg, i, domain, closed)


_RAW_LEAVES = (("var", 3), ("lvl", 2), ("bot", 2))
_RAW_NODES = (("app", 5), ("lam", 4), ("pi", 2), ("univ", 2), ("lt", 2), ("absurd", 1))


def gen_raw(rng: random.Random, size: int, free: int = 3) -> Term:
    """Arbitrary syntactically valid term; no typing discipline at all."""
    if size <= 1:
        tag = _weighted(rng, _RAW_LEAVES)
        if tag == "var":
            return Var(randbelow(rng, max(1, free + 1)))
        if tag == "lvl":
            return Lvl(NAT_OMEGA.sample(rng, 3))
        return Mty()
    tag = _weighted(rng, _RAW_NODES)
    half = size // 2
    if tag == "app":
        if rng.random() < 0.55:
            ann = gen_raw(rng, max(1, half // 2), free)
            body = gen_raw(rng, half, free + 1)
            return App(Lam(ann, body), gen_raw(rng, half, free))
        return App(gen_raw(rng, half, free), gen_raw(rng, half, free))
    if tag == "lam":
        return Lam(gen_raw(rng, max(1, half // 2), free), gen_raw(rng, size - 1, free + 1))
    if tag == "pi":
        return Pi(gen_raw(rng, half, free), gen_raw(rng, half, free + 1))
    if tag == "univ":
        return Univ(gen_raw(rng, size - 1, free))
    if tag == "lt":
        return LevelLt(gen_raw(rng, size - 1, free))
    return Absurd(gen_raw(rng, half, free), gen_raw(rng, half, free))


# ---------------------------------------------------------------------------
# Shrinking

_LEAF_SWAPS = (Mty(), Lvl(NAT_OMEGA.zero()))


def _shrink_candidates(t: Term) -> Iterator[Term]:
    for leaf in _LEAF_SWAPS:
        if t != leaf:
            yield leaf
    kids = children(t)
    for kid in kids:
        yield kid
    for i, kid in enumerate(kids):
        for smaller in _shrink_candidates(kid):
            if term_size(smaller) < term_size(kid):
                yield type(t)(*kids[:i], smaller, *kids[i + 1 :])


def shrink_term(t: Term, still_fails: Callable[[Term], bool], budget: int = 400) -> Term:
    spent = 0
    improved = True
    while improved and spent < budget:
        improved = False
        for cand in _shrink_candidates(t):
            spent += 1
            if spent >= budget:
                break
            if term_size(cand) >= term_size(t):
                continue
            try:
                bad = still_fails(cand)
            except Exception:
                bad = False
            if bad:
                t = cand
                improved = True
                break
    return t


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class PropertyReport:
    suite: str
    cases: int
    failures: tuple[str, ...]
    undecided: int
    # Cases checked against a substitute for the exhaustive reduct set
    # (subject reduction: the complete development, when it explodes).
    fallbacks: int
    digest: str
    elapsed: float
    coverage: tuple[tuple[str, float], ...] = ()
    # Gates the sample could not decide because cases ran out of fuel.
    inconclusive: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"suite={self.suite} cases={self.cases} "
            f"failures={len(self.failures)} undecided={self.undecided} "
            f"fallbacks={self.fallbacks} digest={self.digest} "
            f"elapsed={self.elapsed:.2f}s"
        ]
        for rule, frac in self.coverage:
            lines.append(f"  rule {rule}: {100.0 * frac:.2f}% of cases")
        for msg in self.inconclusive:
            lines.append(f"  UNDECIDED {msg}")
        for msg in self.failures[:10]:
            lines.append(f"  FAIL {msg}")
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more")
        return "\n".join(lines)


class _Tally:
    def __init__(self, suite: str):
        self.suite = suite
        self.failures: list[str] = []
        self.inconclusive: list[str] = []
        self.undecided = 0
        self.fallbacks = 0
        self._hash = hashlib.sha256()
        self._start = time.monotonic()

    def feed(self, payload: object) -> None:
        self._hash.update(repr(payload).encode())

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def run(self, cases: int, case: Callable[[int], None]) -> None:
        """Run ``case`` on each index. Running out of fuel or past a
        reduct cap counts as undecided, any other exception fails."""
        for i in range(cases):
            try:
                case(i)
            except (FuelError, ParExplosion):
                self.undecided += 1
            except Exception as e:
                self.fail(f"case {i}: internal error: {e!r}")

    def report(self, cases: int, coverage: tuple = ()) -> PropertyReport:
        return PropertyReport(
            suite=self.suite,
            cases=cases,
            failures=tuple(self.failures),
            undecided=self.undecided,
            fallbacks=self.fallbacks,
            digest=self._hash.hexdigest()[:16],
            elapsed=time.monotonic() - self._start,
            coverage=coverage,
            inconclusive=tuple(self.inconclusive),
        )


def rules_in(d: Derivation) -> frozenset[str]:
    """The rules ``d`` uses, visiting each distinct node once."""
    rules: set[str] = set()
    seen: set[int] = set()
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        rules.add(node.rule)
        stack.extend(node.premises)
    return frozenset(rules)


# ---------------------------------------------------------------------------
# Suites


def _reducts(t: Term, cap: int) -> tuple[frozenset[Term], bool]:
    """The parallel reducts of ``t``, and False; or, when they pass
    ``cap``, its complete development alone, and True."""
    try:
        return par_reducts(t, cap=cap), False
    except ParExplosion:
        return frozenset({complete_development(t)}), True


def run_subject_reduction(cfg: GenConfig) -> PropertyReport:
    tally = _Tally("subject-reduction")
    domain = cfg.domain

    def one(i: int) -> None:
        tc = TypeChecker(domain, cfg.fuel)
        case = gen_case(cfg, i, tc=tc)
        tally.feed((case.ctx, case.term, case.ty))

        def loses_type(t: Term) -> bool:
            def verdict(u: Term) -> Verdict:
                return check(case.ctx, u, case.ty, domain, cfg.fuel).verdict

            return verdict(t) is Verdict.ACCEPTED and any(
                verdict(u) is Verdict.REJECTED for u in _reducts(t, 2000)[0] if u != t
            )

        reducts, fell_back = _reducts(case.term, 4000)
        tally.fallbacks += fell_back
        for u in reducts:
            if u == case.term:
                continue
            res = tc.check(case.ctx, u, case.ty)
            if res.verdict is Verdict.REJECTED:
                tally.fail(
                    f"case {i}: type lost after reduction; "
                    f"term {shrink_term(case.term, loses_type)!r} : {case.ty!r}"
                )
                break
            if res.verdict is Verdict.UNDECIDED:
                tally.undecided += 1

    tally.run(cfg.cases, one)
    return tally.report(cfg.cases)


def _breaks_diamond(t: Term, cap: int) -> bool:
    """Whether some parallel reduct of ``t`` does not rejoin its
    complete development in one parallel step."""
    developed = complete_development(t)
    return any(
        not par_step_check(u, developed, cap=cap) for u in par_reducts(t, cap=cap)
    )


def run_diamond(cfg: GenConfig) -> PropertyReport:
    tally = _Tally("diamond")

    def one(i: int) -> None:
        t = gen_raw(_rng_for(cfg, i), cfg.raw_size)
        tally.feed(t)
        if _breaks_diamond(t, 20000):
            shrunk = shrink_term(t, lambda s: _breaks_diamond(s, 5000))
            tally.fail(
                f"case {i}: reduct does not rejoin the complete "
                f"development of {shrunk!r}"
            )

    tally.run(cfg.cases, one)
    return tally.report(cfg.cases)


def run_progress(cfg: GenConfig) -> PropertyReport:
    tally = _Tally("progress")
    domain = cfg.domain

    def one(i: int) -> None:
        case = gen_case(cfg, i, domain, closed=True)
        tally.feed((case.term, case.ty))
        result, outcome = cbn_eval(case.term, cfg.fuel)
        if outcome is EvalOutcome.STUCK:
            tally.fail(
                f"case {i}: closed well-typed term got stuck at {result!r} "
                f"(from {case.term!r})"
            )
        elif outcome is EvalOutcome.OUT_OF_FUEL:
            tally.undecided += 1

    tally.run(cfg.cases, one)
    return tally.report(cfg.cases)


def run_canonicity(cfg: GenConfig) -> PropertyReport:
    tally = _Tally("canonicity")
    domain = cfg.domain

    def one(i: int) -> None:
        case = gen_case(cfg, i, domain, closed=True)
        tally.feed((case.term, case.ty))
        n_ty, ty_done = pars(case.ty, cfg.fuel)
        value, outcome = cbn_eval(case.term, cfg.fuel)
        if not ty_done or outcome is EvalOutcome.OUT_OF_FUEL:
            tally.undecided += 1
        elif outcome is EvalOutcome.STUCK:
            tally.fail(f"case {i}: closed term stuck at {value!r}")
        else:
            message = _canonical_mismatch(value, n_ty, domain, cfg.fuel)
            if message:
                tally.fail(f"case {i}: {message} (term {case.term!r} : {n_ty!r})")

    tally.run(cfg.cases, one)
    return tally.report(cfg.cases)


def _canonical_mismatch(value: Term, n_ty: Term, domain, fuel: int) -> str | None:
    match n_ty:
        case Univ(_):
            if not isinstance(value, (Pi, Mty, Univ, LevelLt)):
                return f"value of a universe is not a type former: {value!r}"
            return None
        case LevelLt(bound):
            if not isinstance(value, Lvl):
                return f"value of a bound type is not a level literal: {value!r}"
            n_bound, done = pars(bound, fuel)
            if not done or not isinstance(n_bound, Lvl):
                return f"closed level bound did not normalize to a literal: {bound!r}"
            if not domain.lt(value.value, n_bound.value):
                return (
                    f"level {value!r} is not strictly below its bound {n_bound!r}"
                )
            return None
        case Pi(_, _):
            if not isinstance(value, Lam):
                return f"value of a function type is not an abstraction: {value!r}"
            return None
        case Mty():
            return "closed inhabitant of the empty type"
    return f"closed type did not normalize to a recognized former: {n_ty!r}"


def run_consistency(cfg: GenConfig) -> PropertyReport:
    tally = _Tally("consistency")
    domain = cfg.domain

    def one(i: int) -> None:
        tc = TypeChecker(domain, cfg.fuel)
        if i % 2 == 0:
            candidate = gen_raw(_rng_for(cfg, i), cfg.raw_size, free=0)
        else:
            candidate = gen_case(cfg, i, closed=True, tc=tc).term
        tally.feed(candidate)
        res = tc.check((), candidate, Mty())
        if res.verdict is Verdict.ACCEPTED:
            tally.fail(
                f"case {i}: closed proof of the empty type accepted: "
                f"{candidate!r}"
            )
        elif res.verdict is Verdict.UNDECIDED:
            tally.undecided += 1

    tally.run(cfg.cases, one)
    return tally.report(cfg.cases)


def run_coverage(cfg: GenConfig) -> PropertyReport:
    tally = _Tally("coverage")
    domain = cfg.domain
    counts: Counter[str] = Counter()
    produced = 0

    def one(i: int) -> None:
        nonlocal produced
        case = gen_case(cfg, i, domain)
        tally.feed((case.ctx, case.term, case.ty))
        produced += 1
        counts.update(rules_in(case.derivation))

    tally.run(cfg.cases, one)
    coverage = tuple(
        (rule, counts[rule] / produced if produced else 0.0) for rule in RULES
    )
    # Cases that ran out of fuel are missing from the sample, so a rare
    # rule may be rare only because the fuel was short; an empty sample
    # shows no rule at all.
    if tally.undecided:
        short = f"{tally.undecided} cases ran out of fuel"
    elif not produced:
        short = "no case was generated"
    else:
        short = None
    for rule, frac in coverage:
        if frac < 0.01:
            msg = f"rule {rule} appears in {100.0 * frac:.2f}% of cases (< 1%)"
            if short:
                tally.inconclusive.append(f"{msg}; {short}")
            else:
                tally.fail(msg)
    return tally.report(cfg.cases, coverage)


SUITES: dict[str, Callable[[GenConfig], PropertyReport]] = {
    "subject-reduction": run_subject_reduction,
    "diamond": run_diamond,
    "progress": run_progress,
    "canonicity": run_canonicity,
    "consistency": run_consistency,
    "coverage": run_coverage,
}


def run_suite(name: str, cfg: GenConfig) -> PropertyReport:
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r} (known: {known})")
    return SUITES[name](cfg)


# ---------------------------------------------------------------------------
# Mutation canary


@contextmanager
def broken_substitution():
    """Swap in a deliberately wrong weakening (off-by-one cutoff).

    A harness that still reports zero failures under this breakage is
    not exercising substitution; the test suite runs the reduced suites
    inside this context and demands failures.
    """
    original = subst.shift

    def skewed(term: Term, by: int, cutoff: int = 0) -> Term:
        return original(term, by, cutoff + 1)

    subst.shift = skewed
    try:
        yield
    finally:
        subst.shift = original
