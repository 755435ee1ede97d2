"""Typing: derivation trees, a derivation checker, and an algorithmic
infer/check pair that emits derivations.

The derivation checker is the ground truth: it validates each node
against exactly one rule, first the rule's shape, read from one table
(``_SHAPES``), then the rule's relations between the node's parts. The
algorithmic checker is sound against it (every acceptance carries a
derivation that validates) but makes no completeness claim;
transitivity and cumulativity are not syntax directed, so it decides
``a : Level< b`` with one bounded search that normalizes, climbs the
bounds above ``a`` a capped number of times, and at each level
compares with ``b``, compares literals, and walks the context-declared
bounds. The same search answers ``level_below``, builds the
derivation, and supplies the levels that joining and strengthening
universes climb. ``level_lt_check`` gives its answer once ``lo`` types
as a level.

Three outcomes everywhere: accepted, rejected, and undecided (fuel ran
out inside conversion). Rejections carry diagnostics.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .levels import Finite, LevelDomain, NAT_OMEGA, OmegaPlus, domain_named
from .node import Node
from .reduction import (
    Convertibility,
    DEFAULT_FUEL,
    convertible,
    pars,
    whnf,
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
    alpha_equal,
    iter_subterms,
)
from . import subst

__all__ = [
    "Derivation",
    "DerivationReport",
    "check_derivation",
    "derivation_to_doc",
    "derivation_from_doc",
    "DERIVATION_FORMAT",
    "RULES",
    "Verdict",
    "CheckResult",
    "TypingError",
    "FuelError",
    "TypeChecker",
    "LevelOrder",
    "infer",
    "infer_with_derivation",
    "check",
    "check_context",
    "level_lt_check",
    "elaborate_lam_prime",
    "search_derivation",
    "pretty",
]

CLIMB_CAP = 64

# ---------------------------------------------------------------------------
# Derivation trees


class Derivation(Node):
    """One rule application. Context judgments (Nil/Cons) leave term and
    ty as None; typing judgments fill both."""

    __slots__ = ()
    __match_args__ = ("rule", "ctx", "term", "ty", "premises")

    def __new__(
        cls,
        rule: str,
        ctx: Context,
        term: Term | None,
        ty: Term | None,
        premises: tuple[Derivation, ...] = (),
    ) -> Derivation:
        return tuple.__new__(cls, (rule, ctx, term, ty, premises))


@dataclass(frozen=True)
class DerivationReport:
    ok: bool
    errors: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Printing (inverse of surface parse/resolve on closed terms)

_PREC_EXPR = 0
_PREC_ARROW = 1
_PREC_APP = 2
_PREC_ATOM = 3

_NAME_POOL = ["x", "y", "z", "u", "v", "w", "k", "A", "B", "C", "f", "g"]


def _fresh(stack: tuple[str | None, ...]) -> str:
    for cand in _NAME_POOL:
        if cand not in stack:
            return cand
    n = 0
    while f"x{n}" in stack:
        n += 1
    return f"x{n}"


def pretty(term: Term | None, names: tuple[str | None, ...] = ()) -> str:
    """Surface syntax for ``term``, naming binders afresh; ``names``
    names the free variables, innermost first. The subject of a context
    judgment (None) prints as ``-``."""
    return _pretty(term, names, _PREC_EXPR)


def _wrap(text: str, prec: int, required: int) -> str:
    return f"({text})" if prec < required else text


def _pretty(term: Term | None, names: tuple[str | None, ...], required: int) -> str:
    match term:
        case None:
            return "-"
        case Var(ix):
            if 0 <= ix < len(names) and names[ix] is not None:
                return names[ix]
            return f"?{ix - len(names)}" if ix >= len(names) else f"?{ix}"
        case Lvl(v):
            return NAT_OMEGA.format_literal(v)
        case Mty():
            return "Bot"
        case Univ(level):
            text = f"U {_pretty(level, names, _PREC_ATOM)}"
            return _wrap(text, _PREC_APP, required)
        case LevelLt(bound):
            text = f"Level< {_pretty(bound, names, _PREC_ATOM)}"
            return _wrap(text, _PREC_APP, required)
        case Absurd(ann, scrut):
            text = (
                f"absurd [{_pretty(ann, names, _PREC_EXPR)}] "
                f"{_pretty(scrut, names, _PREC_ATOM)}"
            )
            return _wrap(text, _PREC_APP, required)
        case App(fn, arg):
            text = (
                f"{_pretty(fn, names, _PREC_APP)} "
                f"{_pretty(arg, names, _PREC_ATOM)}"
            )
            return _wrap(text, _PREC_APP, required)
        case Pi(dom, cod):
            # An arrow when the codomain does not mention the binder.
            if subst.strengthen(cod) is not None:
                text = (
                    f"{_pretty(dom, names, _PREC_APP)} -> "
                    f"{_pretty(cod, (None,) + names, _PREC_ARROW)}"
                )
                return _wrap(text, _PREC_ARROW, required)
            x = _fresh(names)
            text = (
                f"Pi ({x} : {_pretty(dom, names, _PREC_EXPR)}) . "
                f"{_pretty(cod, (x,) + names, _PREC_EXPR)}"
            )
            return _wrap(text, _PREC_EXPR, required)
        case Lam(ann, body):
            x = _fresh(names)
            text = (
                f"fun ({x} : {_pretty(ann, names, _PREC_EXPR)}) . "
                f"{_pretty(body, (x,) + names, _PREC_EXPR)}"
            )
            return _wrap(text, _PREC_EXPR, required)
    raise TypeError(f"Unexpected term in pretty: {term!r}")


class _Premise(NamedTuple):
    """One premise of a rule: the class its type must have (None: any
    term), whether it sits under the subject's binder, and whether it is
    a typing judgment or a context judgment."""

    ty: type | None = None
    binder: bool = False
    typing: bool = True


class _Shape(NamedTuple):
    """The form of a rule: whether it concludes a typing judgment
    (context judgments have no subject and no type), the classes of its
    subject and type (None: any term), and its premises."""

    typing: bool
    subject: type | None = None
    ty: type | None = None
    premises: tuple[_Premise, ...] = ()


_CTX = _Premise(typing=False)


# The rules of the system, one shape each. A premise sits in the
# conclusion's context; a context judgment's premises sit in its prefix,
# and a binder premise (``binder=True``) in the context extended by the
# binder's type, the subject's first field (``Pi.dom``, ``Lam.ann``).
_SHAPES: dict[str, _Shape] = {
    "Nil": _Shape(False),
    "Cons": _Shape(False, premises=(_CTX, _Premise(Univ))),
    "Var": _Shape(True, Var, None, (_CTX,)),
    "Pi": _Shape(True, Pi, Univ, (_Premise(Univ), _Premise(Univ, binder=True))),
    "Lam": _Shape(
        True, Lam, Pi, (_Premise(Univ), _Premise(Univ), _Premise(binder=True))
    ),
    "App": _Shape(True, App, None, (_Premise(Pi), _Premise())),
    "Mty": _Shape(True, Mty, Univ, (_Premise(Univ),)),
    "Abs": _Shape(True, Absurd, None, (_Premise(Univ), _Premise(Mty))),
    "Conv": _Shape(True, None, None, (_Premise(), _Premise(Univ))),
    "Univ": _Shape(True, Univ, Univ, (_Premise(LevelLt),)),
    "LevelLt": _Shape(True, LevelLt, Univ, (_Premise(Univ), _Premise(LevelLt))),
    "Lvl": _Shape(True, Lvl, LevelLt, (_CTX,)),
    "Trans": _Shape(True, None, LevelLt, (_Premise(LevelLt), _Premise(LevelLt))),
    "Cumul": _Shape(True, None, Univ, (_Premise(Univ), _Premise(LevelLt))),
}

RULES = tuple(_SHAPES)


def _shape_error(
    r: str,
    ctx: Context,
    term: Term | None,
    ty: Term | None,
    ps: tuple[Derivation, ...],
) -> str | None:
    """How a node, given by its fields, departs from the shape of its
    rule, or None."""
    shape = _SHAPES.get(r)
    if shape is None:
        return f"{r}: unknown rule"
    typing, subject, ty_class, wanted = shape
    if not typing:
        if term is not None or ty is not None:
            return f"{r}: not a typing judgment"
    elif term is None or ty is None:
        return f"{r}: missing subject or type"
    elif subject is not None and not isinstance(term, subject):
        return f"{r}: subject must be {subject.__name__}"
    elif ty_class is not None and not isinstance(ty, ty_class):
        return f"{r}: type must be {ty_class.__name__}"
    if len(ps) != len(wanted):
        return f"{r}: has {len(ps)} premises, not {len(wanted)}"
    if not typing:
        ctx = ctx[:-1]
    for i, p in enumerate(ps):
        p_class, binder, p_typing = wanted[i]
        p_rule, p_ctx, p_term, p_ty, _ = p
        kind = _SHAPES.get(p_rule)
        if kind is None or kind.typing != p_typing:
            judgment = "typing" if p_typing else "context"
            return f"{r}: premises[{i}] must be a {judgment} judgment"
        if p_ctx != (ctx + (term[0],) if binder else ctx):
            return f"{r}: premises[{i}] is in the wrong context"
        if p_typing:
            if p_term is None or p_ty is None:
                return f"{r}: premises[{i}] has no subject or type"
            if p_class is not None and not isinstance(p_ty, p_class):
                return f"{r}: premises[{i}] type must be {p_class.__name__}"
    return None


def _relation_error(
    r: str,
    ctx: Context,
    t: Term,
    ty: Term,
    ps: tuple[Derivation, ...],
    domain: LevelDomain,
    fuel: int,
) -> str | None:
    """Which relation between the parts of a node, given by its fields,
    fails, or None; the node has the shape of its rule. Most relations
    are equalities, parts of the premises on the left and what they must
    equal on the right; ``==`` is alpha-equivalence on de Bruijn syntax.
    Each premise is unpacked once, to its subject and type."""
    if r == "Nil":
        if ctx != ():
            return "Nil: context must be empty"
    elif r == "Cons":
        _, (_, _, entry, _, _) = ps
        if ctx == () or entry != ctx[-1]:
            return "Cons: entry must be typed in the prefix"
    elif r == "Var":
        try:
            entry = subst.ctx_lookup(ctx, t.ix)
        except IndexError:
            return "Var: index out of scope"
        if entry != ty:
            return "Var: type differs from the context entry"
    elif r == "Lvl":
        if not isinstance(ty.bound, Lvl):
            return "Lvl: bound must be a literal"
        i, j = t.value, ty.bound.value
        if not (domain.contains(i) and domain.contains(j)):
            return "Lvl: level outside the domain"
        if not domain.lt(i, j):
            return "Lvl: i < j fails"
    elif r == "Pi":
        (_, _, dom, dom_ty, _), (_, _, cod, cod_ty, _) = ps
        if (dom, dom_ty.level, cod, cod_ty.level) != (
            t.dom, ty.level, t.cod, subst.shift(ty.level, 1, 0)
        ):
            return "Pi: domain and codomain must share the universe"
    elif r == "Lam":
        if t.ann != ty.dom:
            return "Lam: annotation differs from the domain"
        (_, _, dom, dom_ty, _), (_, _, pi, pi_ty, _), (_, _, body, body_ty, _) = ps
        if (dom, pi, dom_ty.level, body, body_ty) != (
            t.ann, ty, pi_ty.level, t.body, ty.cod
        ):
            return "Lam: premises disagree with the conclusion"
    elif r == "App":
        (_, _, fn, fn_ty, _), (_, _, arg, arg_ty, _) = ps
        if (fn, arg, arg_ty, ty) != (
            t.fn, t.arg, fn_ty.dom, subst.subst1(fn_ty.cod, t.arg)
        ):
            return "App: instantiated codomain mismatch"
    elif r == "Mty":
        ((_, _, univ, _, _),) = ps
        if univ != ty:
            return "Mty: premise must type the target universe"
    elif r == "Abs":
        (_, _, ann, _, _), (_, _, prf, _, _) = ps
        if (ty, ann, prf) != (t.ann, t.ann, t.scrut):
            return "Abs: annotation or scrutinee premise mismatch"
    elif r == "Conv":
        (_, _, subj, subj_ty, _), (_, _, target, _, _) = ps
        if (subj, target) != (t, ty):
            return "Conv: premises disagree with the conclusion"
        verdict = convertible(subj_ty, ty, fuel)
        if verdict is Convertibility.NO:
            return "Conv: types are not convertible"
        if verdict is Convertibility.UNDECIDED:
            return "Conv: conversion undecided within fuel"
    elif r == "Univ":
        ((_, _, level, level_ty, _),) = ps
        if (level, level_ty.bound) != (t.level, ty.level):
            return "Univ: level premise must bound the index"
    elif r == "LevelLt":
        (_, _, univ, _, _), (_, _, bound, _, _) = ps
        if (univ, bound) != (ty, t.bound):
            return "LevelLt: premises must type the universe and the bound"
    elif r == "Trans":
        (_, _, lo, lo_ty, _), (_, _, hi, hi_ty, _) = ps
        if (lo, hi, hi_ty.bound) != (t, lo_ty.bound, ty.bound):
            return "Trans: middle bound must match both premises"
    elif r == "Cumul":
        (_, _, subj, subj_ty, _), (_, _, lt, lt_ty, _) = ps
        if (subj, lt, lt_ty.bound) != (t, subj_ty.level, ty.level):
            return "Cumul: level premise must lift to the target universe"
    return None


def check_derivation(
    d: Derivation,
    domain: LevelDomain = NAT_OMEGA,
    fuel: int = DEFAULT_FUEL,
) -> DerivationReport:
    """Validate every node of ``d``, premises first: its shape against
    its rule's entry in ``_SHAPES``, then the relations between its
    parts. An error names the node by its ``premises[i]`` path."""
    errors: list[str] = []

    def go(node: Derivation, path: str) -> None:
        # Unpacked once here, a node's fields reach both checks as
        # locals, which read faster than field getters.
        r, ctx, t, ty, ps = node
        for i, p in enumerate(ps):
            go(p, f"{path}.premises[{i}]" if path else f"premises[{i}]")
        msg = _shape_error(r, ctx, t, ty, ps) or _relation_error(
            r, ctx, t, ty, ps, domain, fuel
        )
        if msg is not None:
            errors.append(f"{path}: {msg}" if path else msg)

    go(d, "")
    return DerivationReport(not errors, tuple(errors))


# ---------------------------------------------------------------------------
# JSON documents
#
# A derivation is written as three tables whose entries refer to earlier
# entries by index: ``terms`` (each distinct term once), ``ctxs`` (each
# distinct context once, as a list of term indices) and ``nodes`` (each
# distinct Derivation object once, in post-order, so the root is last).
# Shared subderivations, which the checker emits in large numbers, are
# therefore written and rebuilt once.

DERIVATION_FORMAT = "ulevels-derivation-tables"

_TERM_CLASSES = {
    cls.__name__: cls for cls in (Mty, Pi, Lam, App, Absurd, Univ, LevelLt)
}
_LEVEL_TIERS = {"finite": Finite, "omega": OmegaPlus}


def derivation_to_doc(d: Derivation, domain: LevelDomain = NAT_OMEGA) -> dict:
    """Table document for ``d``; see :func:`derivation_from_doc`."""
    tables: dict[str, list] = {"terms": [], "ctxs": [], "nodes": []}
    written: dict[str, dict] = {name: {} for name in tables}

    def add(table: str, key, build) -> int:
        ix = written[table].get(key)
        if ix is None:
            entry = build()
            ix = written[table][key] = len(tables[table])
            tables[table].append(entry)
        return ix

    def term_entry(t: Term) -> dict:
        match t:
            case Var(i):
                return {"k": "Var", "ix": i}
            case Lvl(v):
                tier = "finite" if isinstance(v, Finite) else "omega"
                return {"k": "Lvl", "tier": tier, "n": v.n}
        return {"k": type(t).__name__} | dict(zip(t.__match_args__, map(term, t)))

    def term(t: Term | None) -> int | None:
        return None if t is None else add("terms", t, lambda: term_entry(t))

    def node(n: Derivation) -> int:
        return add("nodes", id(n), lambda: {
            "rule": n.rule,
            "ctx": add("ctxs", n.ctx, lambda: [term(t) for t in n.ctx]),
            "term": term(n.term),
            "ty": term(n.ty),
            "premises": [node(p) for p in n.premises],
        })

    node(d)
    return {"format": DERIVATION_FORMAT, "domain": domain.name, **tables}


def _natural(value: object) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative int, got {value!r}")
    return value


def _ref(table: list, value: object):
    """The entry of ``table`` (the entries loaded so far) at ``value``."""
    if _natural(value) >= len(table):
        raise ValueError(f"index {value} does not point to an earlier entry")
    return table[value]


def _term_from_entry(
    entry: dict, terms: list[Term], depths: list[int]
) -> tuple[Term, int]:
    """The term of ``entry`` and its nesting depth; ``depths`` holds the
    depths of ``terms``."""
    k = entry["k"]
    if k == "Var":
        return Var(_natural(entry["ix"])), 1
    if k == "Lvl":
        return Lvl(_LEVEL_TIERS[entry["tier"]](_natural(entry["n"]))), 1
    cls = _TERM_CLASSES.get(k)
    if cls is None:
        raise ValueError(f"unknown term tag: {k!r}")
    refs = [entry[name] for name in cls.__match_args__]
    subterms = [_ref(terms, i) for i in refs]
    return cls(*subterms), 1 + max((depths[i] for i in refs), default=0)


def derivation_from_doc(doc: dict) -> tuple[Derivation, LevelDomain]:
    """Rebuild the derivation and domain of a :func:`derivation_to_doc`
    document, sharing each node, context and term as the tables do.
    Raises ValueError on anything else, including indices that do not
    point to an earlier entry."""
    if not isinstance(doc, dict) or doc.get("format") != DERIVATION_FORMAT:
        raise ValueError("not a derivation document: no known format marker")
    try:
        terms: list[Term] = []
        depths: list[int] = []
        # Hashing a term or a derivation node recurses in C, past Python's
        # recursion limit, and can overflow the stack; no recursive pass
        # that writes documents reaches that limit, so a deeper term or
        # node is refused, not built.
        limit = sys.getrecursionlimit()
        for entry in doc["terms"]:
            term, depth = _term_from_entry(entry, terms, depths)
            if depth > limit:
                raise ValueError(f"term nested deeper than {limit}")
            terms.append(term)
            depths.append(depth)
        ctxs = [tuple(_ref(terms, i) for i in c) for c in doc["ctxs"]]
        nodes: list[Derivation] = []
        node_depths: list[int] = []
        for entry in doc["nodes"]:
            if entry["rule"] not in RULES:
                raise ValueError(f"unknown rule: {entry['rule']!r}")
            ctx = _ref(ctxs, entry["ctx"])
            term, ty = (
                None if entry[k] is None else _ref(terms, entry[k])
                for k in ("term", "ty")
            )
            refs = entry["premises"]
            premises = tuple(_ref(nodes, p) for p in refs)
            depth = 1 + max((node_depths[p] for p in refs), default=0)
            if depth > limit:
                raise ValueError(f"derivation node nested deeper than {limit}")
            nodes.append(Derivation(entry["rule"], ctx, term, ty, premises))
            node_depths.append(depth)
        return nodes[-1], domain_named(doc["domain"])
    except (KeyError, IndexError, TypeError) as e:
        raise ValueError(f"malformed derivation document: {e!r}") from None


# ---------------------------------------------------------------------------
# Algorithmic checking


class Verdict(Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    UNDECIDED = "undecided"


class CheckResult(Node):
    __slots__ = ()
    __match_args__ = ("verdict", "message", "derivation")

    def __new__(
        cls,
        verdict: Verdict,
        message: str = "",
        derivation: Derivation | None = None,
    ) -> CheckResult:
        return tuple.__new__(cls, (verdict, message, derivation))

    def __bool__(self) -> bool:
        return self.verdict is Verdict.ACCEPTED


class TypingError(Exception):
    """Rejection with a diagnostic."""


class FuelError(TypingError):
    """Conversion or normalization ran out of fuel: undecided."""


class LevelOrder:
    """Reachability between normalized level terms along the bounds the
    context declares. An entry x : Level< b contributes the edge
    x -> normalize(b); concrete literals step to any larger literal.

    Paths witness chains of the transitivity rule. This is the last
    test the checker's one level search (``TypeChecker._level_trail``)
    makes at each level it climbs; a miss here is not proof of
    underivability, since bounds also come from typing.
    """

    def __init__(self, ctx: Context, domain: LevelDomain, fuel: int = DEFAULT_FUEL):
        self.domain = domain
        self.edges: dict[Term, Term] = {}
        for ix in range(len(ctx)):
            entry, done = pars(subst.ctx_lookup(ctx, ix), fuel)
            if done and isinstance(entry, LevelLt):
                bound, bdone = pars(entry.bound, fuel)
                if bdone:
                    self.edges[Var(ix)] = bound

    def path(self, src: Term, dst: Term) -> list[Term] | None:
        """Nodes visited from ``src`` to ``dst`` inclusive, over at least
        one hop (so ``src`` is never below itself for free), or None.
        A node has at most one declared edge and a literal hop lands on
        ``dst``, so the search is a walk along one chain."""
        trail = [src]
        seen = {src}
        node = src
        while True:
            nxt = self.edges.get(node)
            if nxt is not None and alpha_equal(nxt, dst):
                return trail + [nxt]
            match (node, dst):
                case (Lvl(a), Lvl(b)) if self.domain.lt(a, b):
                    return trail + [dst]
            if nxt is None or nxt in seen:
                return None
            seen.add(nxt)
            trail.append(nxt)
            node = nxt


class TypeChecker:
    """Bidirectional checker emitting derivations.

    ``infer`` synthesizes a type; ``check`` pushes an expected type into
    introduction forms and otherwise subsumes the inferred type through
    conversion, cumulativity, and bound transitivity.

    A checker is a cache scope: it keeps the derivation of every context,
    every successful inference and normal form, and the level order of
    every context it has seen, so judgments that share subterms should
    share one checker. Each cached value depends only on the domain, the
    fuel and its key; failures are never cached.
    """

    def __init__(self, domain: LevelDomain = NAT_OMEGA, fuel: int = DEFAULT_FUEL):
        self.domain = domain
        self.fuel = fuel
        self._ctx_cache: dict[Context, Derivation] = {}
        self._infer_cache: dict[tuple[Context, Term], tuple[Term, Derivation]] = {}
        self._norm_cache: dict[Term, Term] = {}
        self._orders: dict[Context, LevelOrder] = {}

    # -- small utilities

    def _norm(self, t: Term) -> Term:
        out = self._norm_cache.get(t)
        if out is None:
            out, done = pars(t, self.fuel)
            if not done:
                raise FuelError(f"normalization ran out of fuel on {pretty(t)}")
            self._norm_cache[t] = out
        return out

    def _whnf(self, t: Term) -> Term:
        out, done = whnf(t, self.fuel)
        if not done:
            raise FuelError(f"head normalization ran out of fuel on {pretty(t)}")
        return out

    def _conv(self, a: Term, b: Term) -> bool:
        # Equal sides are convertible and two distinct literals are not,
        # whatever the fuel; ``convertible`` would normalize both sides
        # to give the same answer.
        if a == b:
            return True
        if type(a) is Lvl and type(b) is Lvl:
            return False
        verdict = convertible(a, b, self.fuel)
        if verdict is Convertibility.UNDECIDED:
            raise FuelError(
                f"conversion undecided between {pretty(a)} and {pretty(b)}"
            )
        return verdict is Convertibility.YES

    def _order(self, ctx: Context) -> LevelOrder:
        order = self._orders.get(ctx)
        if order is None:
            order = self._orders[ctx] = LevelOrder(ctx, self.domain, self.fuel)
        return order

    # -- context judgments

    def ctx_derivation(self, ctx: Context) -> Derivation:
        cached = self._ctx_cache.get(ctx)
        if cached is not None:
            return cached
        if not ctx:
            d = Derivation("Nil", (), None, None)
        else:
            prefix = ctx[:-1]
            d_prefix = self.ctx_derivation(prefix)
            _, d_entry = self.infer_universe(prefix, ctx[-1])
            d = Derivation("Cons", ctx, None, None, (d_prefix, d_entry))
        self._ctx_cache[ctx] = d
        return d

    # -- derivation post-processing

    def _conv_to(self, d: Derivation, target: Term) -> Derivation:
        """Reuse ``d`` at a convertible type, inserting Conv if needed."""
        if alpha_equal(d.ty, target):
            return d
        if not self._conv(d.ty, target):
            raise TypingError(
                f"type mismatch: expected {pretty(target)}, got {pretty(d.ty)}"
            )
        _, d_target = self.infer_universe(d.ctx, target)
        return Derivation(
            "Conv",
            d.ctx,
            d.term,
            target,
            (d, d_target),
        )

    def _univ_typing(self, ctx: Context, level: Term) -> Derivation:
        """Derivation of U level : U bound, for a well-typed level."""
        _, d = self.infer(ctx, Univ(level))
        return d

    # -- level machinery

    def infer_level(self, ctx: Context, t: Term) -> tuple[Term, Derivation]:
        """Type ``t`` as a level: a derivation of t : Level< bound."""
        ty, d = self.infer(ctx, t)
        if isinstance(ty, LevelLt):
            return ty.bound, d
        n = self._whnf(ty)
        if isinstance(n, LevelLt):
            return n.bound, self._conv_to(d, n)
        raise TypingError(f"not a level: {pretty(t)} has type {pretty(ty)}")

    def _bound_typing(self, ctx: Context, t: Term) -> Term | None:
        """A bound strictly above the level term ``t``, if one can be
        synthesized cheaply: context entry, literal successor, or the
        annotation of a stuck elimination; otherwise full inference."""
        match t:
            case Var(ix):
                try:
                    entry = self._whnf(subst.ctx_lookup(ctx, ix))
                except IndexError:
                    return None
                return entry.bound if isinstance(entry, LevelLt) else None
            case Lvl(v):
                return Lvl(self.domain.next_above(v))
            case Absurd(ann, _):
                n = self._whnf(ann)
                return n.bound if isinstance(n, LevelLt) else None
            case _:
                try:
                    bound, _ = self.infer_level(ctx, t)
                except FuelError:
                    raise
                except TypingError:
                    return None
                return bound

    def _climb(self, ctx: Context, k: Term) -> Iterator[Term]:
        """``k`` normalized, then each bound ``_bound_typing`` finds above
        the level before it, normalized: at most CLIMB_CAP steps, stopping
        before a level repeats."""
        cur = self._norm(k)
        seen = {cur}
        yield cur
        for _ in range(CLIMB_CAP):
            bound = self._bound_typing(ctx, cur)
            if bound is None:
                return
            cur = self._norm(bound)
            if cur in seen:
                return
            seen.add(cur)
            yield cur

    def _level_trail(
        self, ctx: Context, a: Term, b: Term
    ) -> tuple[list[Term], list[Term] | None] | None:
        """The level search: how ``a : Level< b`` is derivable, or None.

        At each level of ``_climb(ctx, a)`` it tries, in order: (below
        the first level) whether the level is ``b``; whether both are
        literals in order; a ``LevelOrder`` path to ``b``. The answer is
        the levels climbed and the hops of the decision that ended the
        search, or None for the hops when the last level climbed is
        ``b``. A literal's bounds are only larger literals, so the search
        decides at the first literal it meets."""
        nb = self._norm(b)
        levels: list[Term] = []
        for cur in self._climb(ctx, a):
            # Both are normal forms, so convertible means equal.
            if levels and cur == nb:
                return levels + [cur], None
            levels.append(cur)
            if isinstance(cur, Lvl):
                if isinstance(nb, Lvl) and self.domain.lt(cur.value, nb.value):
                    return levels, [cur, nb]
                return None
            hops = self._order(ctx).path(cur, nb)
            if hops is not None:
                return levels, hops
        return None

    def level_below(self, ctx: Context, a: Term, b: Term) -> bool:
        """Whether the level search shows ``a : Level< b`` derivable;
        sound, not complete."""
        return self._level_trail(ctx, a, b) is not None

    def _edge_derivation(self, ctx: Context, lo: Term, hi: Term) -> Derivation:
        """Derivation of lo : Level< hi for one hop the search took: the
        declared bound of the variable ``lo``, or the literal ``lo`` below
        the literal ``hi``, which the caller has compared."""
        if isinstance(lo, Var):
            d = Derivation(
                "Var",
                ctx,
                lo,
                subst.ctx_lookup(ctx, lo.ix),
                (self.ctx_derivation(ctx),),
            )
            return self._conv_to(d, LevelLt(hi))
        return Derivation("Lvl", ctx, lo, LevelLt(hi), (self.ctx_derivation(ctx),))

    def _derive_level_below(self, ctx: Context, a: Term, b: Term) -> Derivation:
        """Derivation of a : Level< b along the trail of the level search:
        each climb a Trans over the inferred bound, then the hops as a
        chain of Trans. ``a`` and ``b`` should be normalized; raises
        TypingError when the search finds nothing."""
        trail = self._level_trail(ctx, a, b)
        if trail is None:
            if isinstance(a, Lvl) and isinstance(b, Lvl):
                raise TypingError(
                    f"level bound fails: {pretty(a)} is not below {pretty(b)}"
                )
            raise TypingError(
                f"level bound not established: {pretty(a)} below {pretty(b)}"
            )
        levels, hops = trail
        climbs = [
            self._conv_to(self.infer_level(ctx, lo)[1], LevelLt(hi))
            for lo, hi in zip(levels, levels[1:])
        ]
        if hops is None:
            d = climbs.pop()
        else:
            d = self._edge_derivation(ctx, hops[0], hops[1])
            for nxt in hops[2:]:
                step = self._edge_derivation(ctx, d.ty.bound, nxt)
                d = Derivation("Trans", ctx, hops[0], LevelLt(nxt), (d, step))
        for lo, d_lo in reversed(list(zip(levels, climbs))):
            d = Derivation("Trans", ctx, lo, LevelLt(b), (d_lo, d))
        return d

    def _cumul_to(self, d: Derivation, target_level: Term) -> Derivation:
        """Lift d : A : U k to A : U target_level."""
        assert isinstance(d.ty, Univ)
        k = d.ty.level
        if self._conv(k, target_level):
            return self._conv_to(d, Univ(target_level))
        nk = self._norm(k)
        nt = self._norm(target_level)
        d_lt = self._derive_level_below(d.ctx, nk, nt)
        d_at_nk = self._conv_to(d, Univ(nk))
        lifted = Derivation(
            "Cumul", d.ctx, d.term, Univ(nt), (d_at_nk, d_lt)
        )
        return self._conv_to(lifted, Univ(target_level))

    # -- universe joining (for Pi and Lam)

    def _level_le(self, ctx: Context, a: Term, b: Term) -> bool:
        return self._conv(a, b) or self.level_below(ctx, a, b)

    def _join_levels(self, ctx: Context, a: Term, b: Term) -> Term:
        """``b`` if ``a`` is below it, ``a`` if ``b`` is below it, else
        the first level of ``a``'s climb above ``b``, else the first of
        ``b``'s climb above ``a``."""
        if self._level_le(ctx, a, b):
            return b
        if self._level_le(ctx, b, a):
            return a
        for lo, hi in ((a, b), (b, a)):
            cand = self._first_above(ctx, lo, hi)
            if cand is not None:
                return cand
        raise TypingError(
            f"no common universe above {pretty(a)} and {pretty(b)}"
        )

    def _first_above(self, ctx: Context, lo: Term, hi: Term) -> Term | None:
        """The first level of ``_climb(ctx, lo)`` past ``lo`` at or above
        ``hi``; the caller has compared ``lo`` itself.

        Past its first literal a climb meets only the next literals of
        the same tier, ``nth_above(first, k)``, and a level below one
        literal is below every larger one. So that tail is searched by
        bisection on ``k``."""
        # Every level up to the first literal is climbed before any is
        # compared, so a climb that raises does so first.
        levels = []
        for cand in self._climb(ctx, lo):
            levels.append(cand)
            if isinstance(cand, Lvl):
                break
        for cand in levels[1:]:
            if self._level_le(ctx, hi, cand):
                return cand
        first = levels[-1]
        if not isinstance(first, Lvl):
            return None

        def nth(k: int) -> Term:
            return Lvl(self.domain.nth_above(first.value, k))

        # The climb takes at most CLIMB_CAP steps in all.
        tail = range(1, CLIMB_CAP + 2 - len(levels))
        i = bisect_left(tail, True, key=lambda k: self._level_le(ctx, hi, nth(k)))
        return nth(tail[i]) if i < len(tail) else None

    def _strengthen_level(self, ctx2: Context, k: Term) -> Term:
        """Rewrite a level valid under one extra binder into one that
        does not mention it, climbing bounds as needed; result is in the
        scope of ctx2 minus its last entry."""
        for cur in self._climb(ctx2, k):
            dropped = subst.strengthen(cur, 0)
            if dropped is not None:
                return dropped
        raise TypingError(
            f"universe level {pretty(k)} depends on the binder with no bound above it"
        )

    # -- inference

    def infer_universe(self, ctx: Context, t: Term) -> tuple[Term, Derivation]:
        """Type ``t`` as a type: a derivation of t : U k."""
        ty, d = self.infer(ctx, t)
        if isinstance(ty, Univ):
            return ty.level, d
        n = self._whnf(ty)
        if isinstance(n, Univ):
            return n.level, self._conv_to(d, n)
        raise TypingError(f"not a type: {pretty(t)} has type {pretty(ty)}")

    def infer(self, ctx: Context, t: Term) -> tuple[Term, Derivation]:
        """Synthesize a type and its derivation. Raises TypingError on
        failure and FuelError when conversion gives out.

        Successes are memoized per checker: the result depends only on
        the domain, the fuel, ``ctx`` and ``t``, so a repeated call
        returns the same pair and emitted derivations share the node.
        Failures are not cached."""
        key = (ctx, t)
        hit = self._infer_cache.get(key)
        if hit is not None:
            return hit
        match t:
            case Var(ix):
                try:
                    ty = subst.ctx_lookup(ctx, ix)
                except IndexError:
                    raise TypingError(
                        f"unbound variable: index {ix} at depth {len(ctx)}"
                    ) from None
                d = Derivation("Var", ctx, t, ty, (self.ctx_derivation(ctx),))
            case Lvl(v):
                if not self.domain.contains(v):
                    raise TypingError(
                        f"level literal outside domain {self.domain.name}: {pretty(t)}"
                    )
                up = Lvl(self.domain.next_above(v))
                ty = LevelLt(up)
                d = Derivation(
                    "Lvl",
                    ctx,
                    t,
                    ty,
                    (self.ctx_derivation(ctx),),
                )
            case Mty():
                zero = Lvl(self.domain.zero())
                d_univ = self._univ_typing(ctx, zero)
                ty = Univ(zero)
                d = Derivation("Mty", ctx, t, ty, (d_univ,))
            case Pi(dom, cod):
                k_dom, d_dom = self.infer_universe(ctx, dom)
                ctx2 = subst.ctx_extend(ctx, dom)
                k_cod, d_cod = self.infer_universe(ctx2, cod)
                k_cod0 = self._strengthen_level(ctx2, k_cod)
                k = self._join_levels(ctx, self._norm(k_dom), k_cod0)
                d_dom2 = self._cumul_to(d_dom, k)
                d_cod2 = self._cumul_to(d_cod, subst.shift(k, 1, 0))
                ty = Univ(k)
                d = Derivation("Pi", ctx, t, ty, (d_dom2, d_cod2))
            case Lam(ann, body):
                _, d_ann = self.infer_universe(ctx, ann)
                ctx2 = subst.ctx_extend(ctx, ann)
                body_ty, d_body = self.infer(ctx2, body)
                ty = Pi(ann, body_ty)
                k_pi, d_pi = self.infer_universe(ctx, ty)
                d_ann2 = self._cumul_to(d_ann, k_pi)
                d = Derivation("Lam", ctx, t, ty, (d_ann2, d_pi, d_body))
            case App(fn, arg):
                fn_ty, d_fn = self.infer(ctx, fn)
                head = self._whnf(fn_ty)
                if not isinstance(head, Pi):
                    raise TypingError(
                        f"application of a non-function: {pretty(fn)} "
                        f"has type {pretty(fn_ty)}"
                    )
                d_fn2 = self._conv_to(d_fn, head)
                res = self.check(ctx, arg, head.dom)
                if res.verdict is Verdict.UNDECIDED:
                    raise FuelError(res.message)
                if not res:
                    raise TypingError(f"argument mismatch: {res.message}")
                ty = subst.subst1(head.cod, arg)
                d = Derivation("App", ctx, t, ty, (d_fn2, res.derivation))
            case Absurd(ann, scrut):
                _, d_ann = self.infer_universe(ctx, ann)
                res = self.check(ctx, scrut, Mty())
                if res.verdict is Verdict.UNDECIDED:
                    raise FuelError(res.message)
                if not res:
                    raise TypingError(
                        f"absurdity scrutinee is not a refutation: {res.message}"
                    )
                ty = ann
                d = Derivation("Abs", ctx, t, ty, (d_ann, res.derivation))
            case Univ(level):
                bound, d_level = self.infer_level(ctx, level)
                ty = Univ(bound)
                d = Derivation("Univ", ctx, t, ty, (d_level,))
            case LevelLt(bound):
                _, d_bound = self.infer_level(ctx, bound)
                zero = Lvl(self.domain.zero())
                d_univ = self._univ_typing(ctx, zero)
                ty = Univ(zero)
                d = Derivation("LevelLt", ctx, t, ty, (d_univ, d_bound))
            case _:
                raise TypeError(f"Unexpected term in infer: {t!r}")
        hit = self._infer_cache[key] = (ty, d)
        return hit

    # -- checking

    def check(self, ctx: Context, t: Term, expected: Term) -> CheckResult:
        """Accepted with a derivation, rejected with a diagnostic, or
        undecided when the fuel or the interpreter's recursion limit
        (input nested too deeply) gave out first."""
        try:
            d = self._check(ctx, t, expected)
        except FuelError as e:
            return CheckResult(Verdict.UNDECIDED, str(e))
        except TypingError as e:
            return CheckResult(Verdict.REJECTED, str(e))
        except RecursionError:
            return CheckResult(
                Verdict.UNDECIDED, "resource limit: term nested too deeply to check"
            )
        return CheckResult(Verdict.ACCEPTED, derivation=d)

    def _check(self, ctx: Context, t: Term, expected: Term) -> Derivation:
        head = self._whnf(expected)
        match (t, head):
            case (Lam(ann, body), Pi(dom, cod)):
                if not self._conv(ann, dom):
                    raise TypingError(
                        f"domain annotation mismatch: {pretty(ann)} vs {pretty(dom)}"
                    )
                _, d_ann = self.infer_universe(ctx, ann)
                ctx2 = subst.ctx_extend(ctx, ann)
                d_body = self._must(self.check(ctx2, body, cod))
                own_ty = Pi(ann, cod)
                k_pi, d_pi = self.infer_universe(ctx, own_ty)
                d_ann2 = self._cumul_to(d_ann, k_pi)
                d = Derivation(
                    "Lam", ctx, t, own_ty, (d_ann2, d_pi, d_body)
                )
                return self._conv_to(d, expected)
            case (Pi(dom, cod), Univ(level)):
                d_dom = self._must(self.check(ctx, dom, Univ(level)))
                ctx2 = subst.ctx_extend(ctx, dom)
                lifted = Univ(subst.shift(level, 1, 0))
                d_cod = self._must(self.check(ctx2, cod, lifted))
                d = Derivation("Pi", ctx, t, Univ(level), (d_dom, d_cod))
                return self._conv_to(d, expected)
            case (Mty(), Univ(level)):
                d_univ = self._univ_typing(ctx, level)
                d = Derivation("Mty", ctx, t, Univ(level), (d_univ,))
                return self._conv_to(d, expected)
            case (LevelLt(bound), Univ(level)):
                d_univ = self._univ_typing(ctx, level)
                _, d_bound = self.infer_level(ctx, bound)
                d = Derivation(
                    "LevelLt", ctx, t, Univ(level), (d_univ, d_bound)
                )
                return self._conv_to(d, expected)
            case (Univ(k), Univ(level)):
                d_lt = self._must(self.check(ctx, k, LevelLt(level)))
                d = Derivation("Univ", ctx, t, Univ(level), (d_lt,))
                return self._conv_to(d, expected)
            case (Lvl(v), LevelLt(bound)):
                nb = self._norm(bound)
                if not isinstance(nb, Lvl):
                    return self._subsume(ctx, t, expected)
                if not self.domain.lt(v, nb.value):
                    raise TypingError(
                        f"level bound fails: {pretty(t)} is not below {pretty(nb)}"
                    )
                return self._conv_to(self._edge_derivation(ctx, t, nb), expected)
            case _:
                return self._subsume(ctx, t, expected)

    def _must(self, res: CheckResult) -> Derivation:
        if res.verdict is Verdict.UNDECIDED:
            raise FuelError(res.message)
        if not res:
            raise TypingError(res.message)
        assert res.derivation is not None
        return res.derivation

    def _subsume(self, ctx: Context, t: Term, expected: Term) -> Derivation:
        actual, d = self.infer(ctx, t)
        if self._conv(actual, expected):
            return self._conv_to(d, expected)
        n_actual = self._norm(actual)
        n_expected = self._norm(expected)
        match (n_actual, n_expected):
            case (Univ(_), Univ(target)):
                d_at = self._conv_to(d, n_actual)
                lifted = self._cumul_to(d_at, target)
                return self._conv_to(lifted, expected)
            case (LevelLt(lo), LevelLt(hi)):
                d_at = self._conv_to(d, n_actual)
                d_hi = self._derive_level_below(ctx, self._norm(lo), self._norm(hi))
                d2 = Derivation(
                    "Trans", ctx, t, LevelLt(self._norm(hi)), (d_at, d_hi)
                )
                return self._conv_to(d2, expected)
            case _:
                raise TypingError(
                    f"type mismatch: expected {pretty(expected)}, got {pretty(actual)}"
                )

    def check_context(self, ctx: Context) -> CheckResult:
        try:
            d = self.ctx_derivation(ctx)
        except FuelError as e:
            return CheckResult(Verdict.UNDECIDED, str(e))
        except TypingError as e:
            return CheckResult(Verdict.REJECTED, str(e))
        return CheckResult(Verdict.ACCEPTED, derivation=d)


# ---------------------------------------------------------------------------
# Module-level entry points


def infer(
    ctx: Context,
    t: Term,
    domain: LevelDomain = NAT_OMEGA,
    fuel: int = DEFAULT_FUEL,
) -> Term:
    """Synthesized type of ``t``; raises TypingError (or FuelError)."""
    ty, _ = TypeChecker(domain, fuel).infer(ctx, t)
    return ty


def infer_with_derivation(
    ctx: Context,
    t: Term,
    domain: LevelDomain = NAT_OMEGA,
    fuel: int = DEFAULT_FUEL,
) -> tuple[Term, Derivation]:
    return TypeChecker(domain, fuel).infer(ctx, t)


def check(
    ctx: Context,
    t: Term,
    expected: Term,
    domain: LevelDomain = NAT_OMEGA,
    fuel: int = DEFAULT_FUEL,
) -> CheckResult:
    return TypeChecker(domain, fuel).check(ctx, t, expected)


def check_context(
    ctx: Context,
    domain: LevelDomain = NAT_OMEGA,
    fuel: int = DEFAULT_FUEL,
) -> CheckResult:
    return TypeChecker(domain, fuel).check_context(ctx)


def level_lt_check(
    ctx: Context,
    lo: Term,
    hi: Term,
    domain: LevelDomain = NAT_OMEGA,
    fuel: int = DEFAULT_FUEL,
) -> bool:
    """Whether ``lo : Level< hi`` is derivable in ``ctx``: ``lo`` types as
    a level and the level search the checker itself uses
    (``TypeChecker.level_below``) finds ``hi`` above it. False when
    either fails or the fuel runs out first. Sound; incomplete by
    design."""
    tc = TypeChecker(domain, fuel)
    try:
        tc.infer_level(ctx, lo)
        return tc.level_below(ctx, lo, hi)
    except TypingError:
        return False


def elaborate_lam_prime(
    d_pi: Derivation,
    d_body: Derivation,
    domain: LevelDomain = NAT_OMEGA,
    fuel: int = DEFAULT_FUEL,
) -> Derivation:
    """Assemble the abstraction rule from a function-type derivation and
    a body derivation, inverting the former for the shared universe.

    d_pi must conclude ctx |- Pi A B : U k by the function-type rule
    (peeling conversions and cumulativity steps), and d_body must
    conclude ctx, A |- b : B.
    """
    core = d_pi
    while core.rule in ("Conv", "Cumul"):
        core = core.premises[0]
    if core.rule != "Pi":
        raise TypingError(
            f"inversion failed: expected a function-type conclusion, "
            f"got rule {core.rule} concluding {pretty(core.term)} : {pretty(core.ty)}"
        )
    match (core.term, core.ty):
        case (Pi(dom, cod), Univ(_)):
            pass
        case _:
            raise TypingError("inversion failed: malformed function-type node")
    d_dom = core.premises[0]
    if d_body.ctx != subst.ctx_extend(core.ctx, dom):
        raise TypingError("body judgment context does not extend the domain")
    if not alpha_equal(d_body.ty, cod):
        raise TypingError(
            f"body type {pretty(d_body.ty)} differs from the codomain {pretty(cod)}"
        )
    lam = Lam(dom, d_body.term)
    return Derivation(
        "Lam",
        core.ctx,
        lam,
        core.term,
        (d_dom, core, d_body),
    )


# ---------------------------------------------------------------------------
# Bounded derivation search


def search_derivation(
    ctx: Context,
    t: Term,
    ty: Term,
    domain: LevelDomain = NAT_OMEGA,
    depth: int = 8,
    fuel: int = DEFAULT_FUEL,
) -> Derivation | None:
    """Backward search for a derivation of ctx |- t : ty, up to
    ``depth`` nested rule applications. Exhaustive over a finite
    candidate set for the non-syntax-directed rules, so a None answer
    means no derivation exists within the depth for that candidate
    universe of intermediate levels."""
    checker = TypeChecker(domain, fuel)

    def conv_ok(a: Term, b: Term) -> bool:
        return convertible(a, b, fuel) is Convertibility.YES

    candidates: list[Term] = []
    seen_c: set[Term] = set()
    for root in [t, ty, *ctx]:
        for sub in iter_subterms(root):
            n, done = pars(sub, fuel)
            if done and n not in seen_c:
                seen_c.add(n)
                candidates.append(n)

    # Memo: (subject, type) -> (settled_depth, derivation or None). A
    # success is final; a failure at depth d also covers every d' <= d.
    memo: dict[tuple[Term, Term], tuple[int, Derivation | None]] = {}

    def attempt(goal_t: Term, goal_ty: Term, d: int) -> Derivation | None:
        if d <= 0:
            return None
        key = (goal_t, goal_ty)
        hit = memo.get(key)
        if hit is not None:
            settled, found = hit
            if found is not None or settled >= d:
                return found
        res = checker.check(ctx, goal_t, goal_ty)
        if res and check_derivation(res.derivation, domain, fuel).ok:
            memo[key] = (d, res.derivation)
            return res.derivation
        n_ty, done = pars(goal_ty, fuel)
        if done:
            # Transitivity / cumulativity through candidate middles.
            for mid in candidates:
                if isinstance(n_ty, LevelLt) and not conv_ok(mid, n_ty.bound):
                    lo = attempt(goal_t, LevelLt(mid), d - 1)
                    hi = lo and attempt(mid, LevelLt(n_ty.bound), d - 1)
                    if lo and hi:
                        trans = Derivation(
                            "Trans", ctx, goal_t, LevelLt(n_ty.bound), (lo, hi)
                        )
                        if check_derivation(trans, domain, fuel).ok:
                            memo[key] = (d, trans)
                            return trans
                if isinstance(n_ty, Univ) and not conv_ok(mid, n_ty.level):
                    at = attempt(goal_t, Univ(mid), d - 1)
                    lt = at and attempt(mid, LevelLt(n_ty.level), d - 1)
                    if at and lt:
                        cum = Derivation(
                            "Cumul", ctx, goal_t, Univ(n_ty.level), (at, lt)
                        )
                        if check_derivation(cum, domain, fuel).ok:
                            memo[key] = (d, cum)
                            return cum
        memo[key] = (d, None)
        return None

    return attempt(t, ty, depth)
