"""Typing: derivation trees, a derivation checker, and an algorithmic
infer/check pair that emits derivations.

The derivation checker is the ground truth: it validates each node
against exactly one rule. Each rule is stated once, in one table
(``_RULES``): its shape, then its checks in order. A check is a group
of equations between the node's parts, compared as two tuples at once
(``p0.term = t.fn`` reads "premise 0's subject is the subject's
function"), or a named predicate: the ``Var`` lookup, the ``Lvl`` side
condition, ``Conv``'s convertibility. The algorithmic checker is sound
against it (every acceptance carries a derivation that validates) but
makes no completeness claim;
transitivity and cumulativity are not syntax directed, so it decides
``a : Level< b`` with one bounded search that normalizes, climbs the
bounds typing gives above ``a`` up to the first literal, with a capped
number of steps from levels that are not variables, compares each
level with ``b``, and compares the literal the climb ends at with
``b``. The same search answers ``level_below``, builds the
derivation, check mode's literal against a literal included, and
supplies the levels that joining and strengthening universes climb; a
join looks at no level past either climb. ``level_below`` gives its
answer once ``b`` types as a level, ``level_lt_check`` once ``lo`` does
too.

Three outcomes everywhere: accepted, rejected, and undecided (fuel ran
out inside normalization). Rejections carry diagnostics.
"""

from __future__ import annotations

import functools
import re
import sys
from collections.abc import Iterator
from enum import Enum

from .levels import Finite, LevelDomain, LevelValue, NAT_OMEGA, OmegaPlus, domain_named
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
    children,
)
from . import subst

__all__ = [
    "Derivation",
    "DerivationReport",
    "check_derivation",
    "derivation_to_doc",
    "derivation_from_doc",
    "postorder",
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
    ty as None; typing judgments fill both. A node hashes and compares
    by identity; compare structure through :func:`derivation_to_doc`."""

    __slots__ = ()
    __match_args__ = ("rule", "ctx", "term", "ty", "premises")
    __hash__ = object.__hash__

    # Not object.__eq__, whose NotImplemented lets tuple.__eq__ compare fields.
    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    def __new__(
        cls,
        rule: str,
        ctx: Context,
        term: Term | None,
        ty: Term | None,
        premises: tuple[Derivation, ...] = (),
    ) -> Derivation:
        return tuple.__new__(cls, (rule, ctx, term, ty, premises))


class DerivationReport(Node):
    __slots__ = ()
    __match_args__ = ("ok", "errors")

    def __new__(cls, ok: bool, errors: tuple[str, ...] = ()) -> DerivationReport:
        return tuple.__new__(cls, (ok, errors))


def _parts(part: Derivation | Context | Term) -> tuple:
    """What ``part`` holds: a node its context, subject, type and
    premises; a context its entries; a term its subterms."""
    if isinstance(part, Derivation):
        return (part.ctx, part.term, part.ty, *part.premises)
    return part if type(part) is tuple else children(part)


def postorder(root: Derivation, parts=_parts) -> Iterator:
    """Each distinct part reachable from ``root`` through ``parts``,
    once, after the parts it holds, without recursing. Nodes are
    distinct by identity, contexts and terms by value."""
    seen = {root, None}  # None, a missing subject or type, is no part
    stack = [(root, iter(parts(root)))]
    while stack:
        part, held = stack[-1]
        for kid in held:
            if kid not in seen:
                seen.add(kid)
                stack.append((kid, iter(parts(kid))))
                break
        else:
            stack.pop()
            yield part


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


class _Premise(Node):
    """One premise of a rule: the class its type must have (None: any
    term), whether it sits under the subject's binder, and whether it is
    a typing judgment or a context judgment."""

    __slots__ = ()
    __match_args__ = ("ty", "binder", "typing")

    def __new__(
        cls, ty: type | None = None, binder: bool = False, typing: bool = True
    ) -> _Premise:
        return tuple.__new__(cls, (ty, binder, typing))


class _Shape(Node):
    """The form of a rule: whether it concludes a typing judgment
    (context judgments have no subject and no type), the classes of its
    subject and type (None: any term), and its premises."""

    __slots__ = ()
    __match_args__ = ("typing", "subject", "ty", "premises")

    def __new__(
        cls,
        typing: bool,
        subject: type | None = None,
        ty: type | None = None,
        premises: tuple[_Premise, ...] = (),
    ) -> _Shape:
        return tuple.__new__(cls, (typing, subject, ty, premises))


_CTX = _Premise(typing=False)

# Premise i, ``pi`` in an equation, is ``ps[i]``.
_PREMISE = re.compile(r"\bp(\d)\b")


def _equations(message: str, *equations: str):
    """A check that each ``left = right`` holds, ``=`` being ``==``
    (alpha-equivalence on de Bruijn syntax); the lefts and the rights are
    compared as two tuples at once. It keeps its text as ``.equations``.
    An equation that does not have exactly two sides raises ValueError."""
    left, right = (
        _PREMISE.sub(r"ps[\1]", ", ".join(side))
        for side in zip(*(eq.split(" = ") for eq in equations), strict=True)
    )
    check = eval(  # the table's own text, compiled once
        f"lambda ctx, t, ty, ps, domain, fuel: "
        f"None if ({left},) == ({right},) else {message!r}",
        globals(),
    )
    check.equations = equations
    return check


# The checks that are not equations. Each takes a node's parts and
# returns what fails, the message after the rule's name, or None.


def _var_lookup(ctx, t, ty, ps, domain, fuel) -> str | None:
    if not 0 <= t.ix < len(ctx):
        return "index out of scope"
    if subst.ctx_lookup(ctx, t.ix) != ty:
        return "type differs from the context entry"
    return None


def _lvl_order(ctx, t, ty, ps, domain, fuel) -> str | None:
    if not isinstance(ty.bound, Lvl):
        return "bound must be a literal"
    i, j = t.value, ty.bound.value
    if not (domain.contains(i) and domain.contains(j)):
        return "level outside the domain"
    return None if domain.lt(i, j) else "i < j fails"


def _conversion(ctx, t, ty, ps, domain, fuel) -> str | None:
    verdict = convertible(ps[0].ty, ty, fuel)
    if verdict is Convertibility.NO:
        return "types are not convertible"
    if verdict is Convertibility.UNDECIDED:
        return "conversion undecided within fuel"
    return None


# The rules of the system, each stated once: its shape, then its checks
# in the order they are made. A premise sits in the conclusion's
# context; a context judgment's premises sit in its prefix, and a binder
# premise (``binder=True``) in the context extended by the binder's
# type, the subject's first field (``Pi.dom``, ``Lam.ann``). In a check,
# ``t`` and ``ty`` are the node's subject and type, and ``pi`` its
# premise i.
_RULES: dict[str, tuple] = {
    "Nil": (_Shape(False), _equations("context must be empty", "ctx = ()")),
    "Cons": (
        _Shape(False, premises=(_CTX, _Premise(Univ))),
        _equations("entry must be typed in the prefix", "ctx[-1:] = (p1.term,)"),
    ),
    "Var": (_Shape(True, Var, None, (_CTX,)), _var_lookup),
    "Pi": (
        _Shape(True, Pi, Univ, (_Premise(Univ), _Premise(Univ, binder=True))),
        _equations(
            "domain and codomain must share the universe",
            "p0.term = t.dom",
            "p0.ty.level = ty.level",
            "p1.term = t.cod",
            "p1.ty.level = subst.shift(ty.level, 1, 0)",
        ),
    ),
    "Lam": (
        _Shape(
            True, Lam, Pi, (_Premise(Univ), _Premise(Univ), _Premise(binder=True))
        ),
        _equations("annotation differs from the domain", "t.ann = ty.dom"),
        _equations(
            "premises disagree with the conclusion",
            "p0.term = t.ann",
            "p1.term = ty",
            "p0.ty.level = p1.ty.level",
            "p2.term = t.body",
            "p2.ty = ty.cod",
        ),
    ),
    "App": (
        _Shape(True, App, None, (_Premise(Pi), _Premise())),
        _equations(
            "instantiated codomain mismatch",
            "p0.term = t.fn",
            "p1.term = t.arg",
            "p1.ty = p0.ty.dom",
            "ty = subst.subst1(p0.ty.cod, t.arg)",
        ),
    ),
    "Mty": (
        _Shape(True, Mty, Univ, (_Premise(Univ),)),
        _equations("premise must type the target universe", "p0.term = ty"),
    ),
    "Abs": (
        _Shape(True, Absurd, None, (_Premise(Univ), _Premise(Mty))),
        _equations(
            "annotation or scrutinee premise mismatch",
            "ty = t.ann",
            "p0.term = t.ann",
            "p1.term = t.scrut",
        ),
    ),
    "Conv": (
        _Shape(True, None, None, (_Premise(), _Premise(Univ))),
        _equations(
            "premises disagree with the conclusion", "p0.term = t", "p1.term = ty"
        ),
        _conversion,
    ),
    "Univ": (
        _Shape(True, Univ, Univ, (_Premise(LevelLt),)),
        _equations(
            "level premise must bound the index",
            "p0.term = t.level",
            "p0.ty.bound = ty.level",
        ),
    ),
    "LevelLt": (
        _Shape(True, LevelLt, Univ, (_Premise(Univ), _Premise(LevelLt))),
        _equations(
            "premises must type the universe and the bound",
            "p0.term = ty",
            "p1.term = t.bound",
        ),
    ),
    "Lvl": (_Shape(True, Lvl, LevelLt, (_CTX,)), _lvl_order),
    "Trans": (
        _Shape(True, None, LevelLt, (_Premise(LevelLt), _Premise(LevelLt))),
        _equations(
            "middle bound must match both premises",
            "p0.term = t",
            "p1.term = p0.ty.bound",
            "p1.ty.bound = ty.bound",
        ),
    ),
    "Cumul": (
        _Shape(True, None, Univ, (_Premise(Univ), _Premise(LevelLt))),
        _equations(
            "level premise must lift to the target universe",
            "p0.term = t",
            "p1.term = p0.ty.level",
            "p1.ty.bound = ty.level",
        ),
    ),
}

RULES = tuple(_RULES)


def _shape_error(
    r: str,
    ctx: Context,
    term: Term | None,
    ty: Term | None,
    ps: tuple[Derivation, ...],
) -> str | None:
    """How a node, given by its fields, departs from the shape of its
    rule, or None."""
    rule = _RULES.get(r)
    if rule is None:
        return f"{r}: unknown rule"
    typing, subject, ty_class, wanted = rule[0]
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
        kind = _RULES.get(p_rule)
        if kind is None or kind[0].typing != p_typing:
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


def check_derivation(
    d: Derivation,
    domain: LevelDomain = NAT_OMEGA,
    fuel: int = DEFAULT_FUEL,
) -> DerivationReport:
    """Validate every node of ``d``, premises first, against its entry
    in ``_RULES``: its shape, then each of its checks until one fails.
    An error names the node by its ``premises[i]`` path."""
    errors: list[str] = []

    # ``up`` is None at the root, else (the parent's ``up``, the node's
    # premise index); ``_path`` spells it out only for a node in error.
    def go(node: Derivation, up: tuple | None) -> None:
        # Unpacked once here, a node's fields reach the checks as
        # locals, which read faster than field getters.
        r, ctx, t, ty, ps = node
        for i, p in enumerate(ps):
            go(p, (up, i))
        msg = _shape_error(r, ctx, t, ty, ps)
        if msg is None:
            for check in _RULES[r][1:]:
                msg = check(ctx, t, ty, ps, domain, fuel)
                if msg is not None:
                    msg = f"{r}: {msg}"
                    break
        if msg is not None:
            errors.append(f"{_path(up)}: {msg}" if up else msg)

    try:
        go(d, None)
    except RecursionError:
        return DerivationReport(
            False, ("resource limit: derivation nested too deeply to validate",)
        )
    return DerivationReport(not errors, tuple(errors))


def _path(up: tuple | None) -> str:
    steps = []
    while up is not None:
        up, i = up
        steps.append(f"premises[{i}]")
    return ".".join(reversed(steps))


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
    """Table document for ``d``; see :func:`derivation_from_doc`. Raises
    RecursionError where that reader would refuse the document."""
    tables: dict[str, list] = {"terms": [], "ctxs": [], "nodes": []}
    ix: dict = {None: None}  # each part's index in its table
    for part in postorder(d):
        if isinstance(part, Derivation):
            rule, ctx, t, ty, ps = part
            table = "nodes"
            entry = {"rule": rule, "ctx": ix[ctx], "term": ix[t], "ty": ix[ty]}
            entry["premises"] = [ix[p] for p in ps]
        elif type(part) is tuple:
            table, entry = "ctxs", [ix[t] for t in part]
        else:
            table, entry = "terms", _term_entry(part, ix)
        ix[part] = len(tables[table])
        tables[table].append(entry)
    _within_bound(tables["terms"])
    return {"format": DERIVATION_FORMAT, "domain": domain.name, **tables}


def _term_entry(t: Term, ix: dict) -> dict:
    match t:
        case Var(i):
            return {"k": "Var", "ix": i}
        case Lvl(v):
            tier = "finite" if isinstance(v, Finite) else "omega"
            return {"k": "Lvl", "tier": tier, "n": v.n}
    return {"k": type(t).__name__} | dict(zip(t.__match_args__, map(ix.__getitem__, t)))


def _term_refs(entry: dict) -> list:
    """The indices of the subterms of a term entry."""
    cls = _TERM_CLASSES.get(entry["k"])
    return [] if cls is None else [entry[name] for name in cls.__match_args__]


def _within_bound(terms: list) -> None:
    """Raise RecursionError if an entry of the term table ``terms`` nests
    deeper than Python's recursion limit. This is the one bound on
    documents, both ways: hashing a term recurses in C, past that limit,
    and can overflow the stack, so ``derive`` writes no deeper term and
    the loader returns none (derivation nodes hash by identity)."""
    limit = sys.getrecursionlimit()
    # An entry n deep holds a chain of n distinct entries of its table.
    if len(terms) <= limit:
        return
    depths: list[int] = []
    for entry in terms:
        depths.append(1 + max((depths[i] for i in _term_refs(entry)), default=0))
        if depths[-1] > limit:
            raise RecursionError(f"term nested deeper than {limit}")


def _natural(value: object) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative int, got {value!r}")
    return value


def _ref(table: list, value: object):
    """The entry of ``table`` (the entries loaded so far) at ``value``."""
    if _natural(value) >= len(table):
        raise ValueError(f"index {value} does not point to an earlier entry")
    return table[value]


def _term_from_entry(entry: dict, terms: list[Term]) -> Term:
    k = entry["k"]
    if k == "Var":
        return Var(_natural(entry["ix"]))
    if k == "Lvl":
        return Lvl(_LEVEL_TIERS[entry["tier"]](_natural(entry["n"])))
    if k not in _TERM_CLASSES:
        raise ValueError(f"unknown term tag: {k!r}")
    return _TERM_CLASSES[k](*[_ref(terms, i) for i in _term_refs(entry)])


def derivation_from_doc(doc: dict) -> tuple[Derivation, LevelDomain]:
    """Rebuild the derivation and domain of a :func:`derivation_to_doc`
    document, sharing each node, context and term as the tables do.
    Raises ValueError on anything else, including indices that do not
    point to an earlier entry and terms nested past
    :func:`_within_bound`."""
    if not isinstance(doc, dict) or doc.get("format") != DERIVATION_FORMAT:
        raise ValueError("not a derivation document: no known format marker")
    try:
        terms: list[Term] = []
        for entry in doc["terms"]:
            terms.append(_term_from_entry(entry, terms))
        # Building hashes nothing, so a term past the bound is refused
        # before anything reads it.
        _within_bound(doc["terms"])
        ctxs = [tuple(_ref(terms, i) for i in c) for c in doc["ctxs"]]
        nodes: list[Derivation] = []
        for entry in doc["nodes"]:
            if entry["rule"] not in RULES:
                raise ValueError(f"unknown rule: {entry['rule']!r}")
            ctx = _ref(ctxs, entry["ctx"])
            term, ty = (
                None if entry[k] is None else _ref(terms, entry[k])
                for k in ("term", "ty")
            )
            premises = tuple(_ref(nodes, p) for p in entry["premises"])
            nodes.append(Derivation(entry["rule"], ctx, term, ty, premises))
        return nodes[-1], domain_named(doc["domain"])
    except RecursionError as e:
        raise ValueError(str(e)) from None
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


class FuelError(Exception):
    """Conversion or normalization ran out of fuel: undecided, neither
    accepted nor rejected."""


def _lvl_holds(domain: LevelDomain, i: LevelValue, j: LevelValue) -> bool:
    """The side condition of the ``Lvl`` rule typing the literal ``i`` at
    ``Level< j``, which only the domain can answer: both in it, ``i < j``."""
    return domain.contains(i) and domain.contains(j) and domain.lt(i, j)


class LevelOrder:
    """Reachability between normalized level terms along the bounds the
    context declares, compared by ``==``. A normalized entry x : Level< b
    gives the edge x -> b; literals step as ``_lvl_holds`` allows.

    Nothing in the package builds one: the checker's one level search is
    ``TypeChecker._level_trail``, which follows the bounds typing gives.
    The class is kept because the benchmark's tracer
    (``perfbench/tracing.py``) patches its ``__init__`` to count builds.
    """

    def __init__(self, ctx: Context, domain: LevelDomain, fuel: int = DEFAULT_FUEL):
        self.domain = domain
        self.edges: dict[Term, Term] = {}
        for ix in range(len(ctx)):
            entry, done = pars(subst.ctx_lookup(ctx, ix), fuel)
            if done and isinstance(entry, LevelLt):
                self.edges[Var(ix)] = entry.bound

    def path(self, src: Term, dst: Term) -> list[Term] | None:
        """Nodes visited from ``src`` to ``dst`` inclusive, over at least
        one hop (so ``src`` is never below itself for free), or None.
        A node has at most one declared edge and a literal hop lands on
        ``dst``, so the search is a walk along one chain."""
        trail = [src]
        node = src
        # Only variables have edges, and a declared bound mentions only
        # variables declared before its own, at larger indices: the walk
        # moves strictly outward and stops within len(ctx) hops.
        while True:
            nxt = self.edges.get(node)
            if nxt is not None and nxt == dst:
                return trail + [nxt]
            match (node, dst):
                case (Lvl(a), Lvl(b)) if _lvl_holds(self.domain, a, b):
                    return trail + [dst]
            if nxt is None:
                return None
            trail.append(nxt)
            node = nxt


@functools.cache
def _literal_type(domain: LevelDomain, v: LevelValue) -> LevelLt:
    """The type the ``Lvl`` rule gives the literal ``v`` in ``domain``:
    ``Level< j`` for the next level ``j`` above ``v``, which must be in
    the domain too. One object per domain object and literal, shared by
    every checker of that domain; a literal the domain cannot type
    raises TypingError, which the cache never stores."""
    if not domain.contains(v):
        raise TypingError(f"level literal outside domain {domain.name}: {pretty(Lvl(v))}")
    above = domain.next_above(v)
    if not domain.contains(above):
        raise TypingError(
            f"level literal {pretty(Lvl(v))} has no level above it "
            f"in domain {domain.name}"
        )
    return LevelLt(Lvl(above))


def _trans(d_lo: Derivation, d_hi: Derivation) -> Derivation:
    """Transitivity: ``d_lo.term : Level< d_hi.ty.bound`` from ``d_lo``
    (``lo : Level< mid``) and ``d_hi`` (``mid : Level< hi``)."""
    return Derivation("Trans", d_lo.ctx, d_lo.term, d_hi.ty, (d_lo, d_hi))


class TypeChecker:
    """Bidirectional checker emitting derivations.

    ``infer`` synthesizes a type; ``check`` builds an introduction node
    at the expected type's head where one applies, else infers, and then
    takes one subsumption step (Conv, Cumul or Trans). Both dispatch on
    the term's exact class, as ``terms.children`` does: a subclass of a
    term class, or a non-term, raises TypeError. Terms compare by ``==``.
    ``_conv`` decides conversion on memoized normal forms; the validator
    alone calls ``reduction.convertible``.

    It normalizes only terms it has typed: ``check`` types the expected
    type first, and the ``fun`` arm types the annotation before it
    compares it with the domain. So UNDECIDED comes only from well-typed
    terms whose normalization outlasts the fuel (or the recursion limit).

    A checker is a cache scope: it keeps the derivation of every context
    and every successful inference and normal form it has seen, so
    judgments that share subterms should share one checker. Each cached
    value depends only on the domain, the fuel and its key; failures are
    never cached. The type of a level
    literal is wider: it is kept per domain object (``_literal_type``)
    and shared by every checker of that domain, so a domain variant must
    be a domain object of its own; patching ``LevelDomain`` methods after
    a literal has been typed does not reach its cached type.
    """

    def __init__(self, domain: LevelDomain = NAT_OMEGA, fuel: int = DEFAULT_FUEL):
        self.domain = domain
        self.fuel = fuel
        self._ctx_cache: dict[Context, Derivation] = {}
        self._infer_cache: dict[tuple[Context, Term], tuple[Term, Derivation]] = {}
        self._norm_cache: dict[Term, Term] = {}
        self._zero = Lvl(domain.zero())

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
        """Convertibility decided on the memoized normal forms (``_norm``,
        which raises FuelError); equal sides need none. Two distinct sides
        that run out of fuel at equal reducts are undecided here, though
        ``reduction.convertible`` (the validator's) says YES: well-typed
        types normalize, so no accepted judgment contains such a pair."""
        return a == b or self._norm(a) == self._norm(b)

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
        """Reuse ``d`` at a convertible type, inserting Conv unless ``==``."""
        if d.ty == target:
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

    # -- level machinery

    def _infer_head(
        self, ctx: Context, t: Term, head: type, what: str
    ) -> tuple[Term, Derivation]:
        """Type ``t`` at a ``Univ`` or ``LevelLt`` (``head``): its field, and
        the derivation."""
        ty, d = self.infer(ctx, t)
        if not isinstance(ty, head):
            n = self._whnf(ty)
            if not isinstance(n, head):
                raise TypingError(
                    f"not a {what}: {pretty(t)} has type {pretty(ty)}"
                )
            ty, d = n, self._conv_to(d, n)
        return ty[0], d

    def infer_level(self, ctx: Context, t: Term) -> tuple[Term, Derivation]:
        """Type ``t`` as a level: a derivation of t : Level< bound."""
        return self._infer_head(ctx, t, LevelLt, "level")

    def _climb(self, ctx: Context, k: Term) -> Iterator[Term]:
        """``k`` normalized, then the bound that typing gives each level
        before it (``infer_level``), normalized, up to the first literal:
        above a literal the ``Lvl`` rule gives only the next literal.
        Stops at a level that does not type, or after CLIMB_CAP steps
        from levels that are not variables. Variable steps go uncounted:
        in a typed context a variable's bound mentions only variables
        declared before it, so ``len(ctx)`` bounds a run of them."""
        cur = self._norm(k)
        yield cur
        steps = 0
        while not isinstance(cur, Lvl):
            if not isinstance(cur, Var):
                if steps == CLIMB_CAP:
                    return
                steps += 1
            try:
                bound, _ = self.infer_level(ctx, cur)
            except TypingError:
                return
            cur = self._norm(bound)
            yield cur

    def _level_trail(self, ctx: Context, a: Term, b: Term) -> list[Term] | None:
        """The level search: the levels from ``a`` to ``b`` along which
        ``a : Level< b`` is derivable in the typed context ``ctx``, or
        None.

        The levels are those of ``_climb(ctx, a)`` up to the first one
        past ``a`` that is ``b``. Failing that, where the climb ends at a
        literal that ``_lvl_holds`` puts below a literal ``b``, they are
        the whole climb and then ``b``."""
        nb = self._norm(b)
        levels: list[Term] = []
        for cur in self._climb(ctx, a):
            # Both are normal forms, so convertible means equal.
            if levels and cur == nb:
                return levels + [cur]
            levels.append(cur)
        top = levels[-1]
        if type(top) is type(nb) is Lvl and _lvl_holds(self.domain, top.value, nb.value):
            return levels + [nb]
        return None

    def level_below(self, ctx: Context, a: Term, b: Term) -> bool:
        """Whether the level search shows ``a : Level< b`` derivable;
        sound, not complete. False where ``b`` does not type as a level
        (so where the context does not type), which is found before
        ``b`` is normalized."""
        try:
            self.infer_level(ctx, b)
        except TypingError:
            return False
        return self._level_trail(ctx, a, b) is not None

    def _step(self, ctx: Context, lo: Term, hi: Term) -> Derivation:
        """Derivation of lo : Level< hi for one step of a trail: the
        ``Lvl`` rule for a literal ``lo`` below the literal ``hi``, which
        the caller has compared; else ``lo``'s inferred type, whose bound
        is ``hi``, converted to ``Level< hi``."""
        if isinstance(lo, Lvl):
            return Derivation("Lvl", ctx, lo, LevelLt(hi), (self.ctx_derivation(ctx),))
        return self._conv_to(self.infer_level(ctx, lo)[1], LevelLt(hi))

    def _derive_level_below(self, ctx: Context, a: Term, b: Term) -> Derivation:
        """Derivation of a : Level< b along the trail of the level search:
        its steps as one right-nested chain of Trans. ``a`` and ``b``
        should be normalized; raises TypingError when the search finds
        nothing."""
        trail = self._level_trail(ctx, a, b)
        if trail is None:
            raise self._not_below(a, b)
        *steps, d = [self._step(ctx, lo, hi) for lo, hi in zip(trail, trail[1:])]
        for d_lo in reversed(steps):
            d = _trans(d_lo, d)
        return d

    def _not_below(self, a: Term, b: Term) -> TypingError:
        """Why ``a : Level< b`` has no derivation, a bound outside the domain first."""
        if isinstance(b, Lvl) and not self.domain.contains(b.value):
            why = f"level literal outside domain {self.domain.name}: {pretty(b)}"
        elif isinstance(a, Lvl) and isinstance(b, Lvl):
            why = f"level bound fails: {pretty(a)} is not below {pretty(b)}"
        else:
            why = f"level bound not established: {pretty(a)} below {pretty(b)}"
        return TypingError(why)

    def _type_at(self, ctx: Context, t: Mty | LevelLt, level: Term) -> Derivation:
        """Derivation of ``t : U level`` for ``Bot`` or ``Level< bound``,
        which live in every universe: the premise types ``U level`` and,
        for ``Level< bound``, ``bound`` as a level."""
        d_univ = self.infer(ctx, Univ(level))[1]
        if isinstance(t, Mty):
            return Derivation("Mty", ctx, t, Univ(level), (d_univ,))
        _, d_bound = self.infer_level(ctx, t.bound)
        return Derivation("LevelLt", ctx, t, Univ(level), (d_univ, d_bound))

    def _lam(self, t: Lam, d_ann: Derivation, d_body: Derivation) -> Derivation:
        """Derivation of ``t`` at ``Pi(t.ann, d_body.ty)`` from those of its
        annotation (``t.ann : U k``) and body: the annotation is lifted to
        the universe the function type infers to."""
        ctx = d_ann.ctx
        ty = Pi(t.ann, d_body.ty)
        k_pi, d_pi = self.infer_universe(ctx, ty)
        return Derivation(
            "Lam", ctx, t, ty, (self._subsume(d_ann, Univ(k_pi)), d_pi, d_body)
        )

    # -- universe joining (for Pi and Lam)

    def _level_le(self, ctx: Context, a: Term, b: Term) -> bool:
        """``a`` is ``b`` or the level search finds it below ``b``, in a
        context the join's caller has typed."""
        return self._conv(a, b) or self._level_trail(ctx, a, b) is not None

    def _join_levels(self, ctx: Context, a: Term, b: Term) -> Term:
        """``b`` if ``a`` is below it, ``a`` if ``b`` is below it, else
        the first level of ``a``'s climb at or above ``b``, else the first
        of ``b``'s climb at or above ``a``.

        No literal past a climb's end is needed where the domain's order
        is total. Say the first pass finds nothing, ``a``'s climb ends
        at the literal ``A``, and a literal past ``A`` is at or above
        ``b``. Then ``b``'s climb ends at a literal ``B``, above ``A``:
        were ``B`` at or below ``A``, ``b`` would be below ``A``, which
        the second test or the first pass finds. So ``a`` is below ``B``.
        Where ``b`` is ``B``, the first test returns it; else the second
        pass returns ``B``, as no earlier level of ``b``'s climb is above
        ``a``: one that is no literal is above ``a`` only on ``a``'s
        climb, where the first pass would have returned it."""
        if self._level_le(ctx, a, b):
            return b
        if self._level_le(ctx, b, a):
            return a
        for lo, hi in ((a, b), (b, a)):
            # Every level is climbed before any is compared, so a climb
            # that raises does so first.
            for cand in list(self._climb(ctx, lo))[1:]:
                if self._level_le(ctx, hi, cand):
                    return cand
        raise TypingError(
            f"no common universe above {pretty(a)} and {pretty(b)}"
        )

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
        return self._infer_head(ctx, t, Univ, "type")

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
        # Dispatch on the exact class, the arms in the order they run
        # most often in the metatheory suites.
        cls = type(t)
        if cls is Lvl:
            (v,) = t
            ty = _literal_type(self.domain, v)
            d = Derivation("Lvl", ctx, t, ty, (self.ctx_derivation(ctx),))
        elif cls is Univ:
            (level,) = t
            bound, d_level = self.infer_level(ctx, level)
            ty = Univ(bound)
            d = Derivation("Univ", ctx, t, ty, (d_level,))
        elif cls is LevelLt or cls is Mty:
            d = self._type_at(ctx, t, self._zero)
            ty = d.ty
        elif cls is Lam:
            ann, body = t
            _, d_ann = self.infer_universe(ctx, ann)
            _, d_body = self.infer(subst.ctx_extend(ctx, ann), body)
            d = self._lam(t, d_ann, d_body)
            ty = d.ty
        elif cls is Pi:
            dom, cod = t
            k_dom, d_dom = self.infer_universe(ctx, dom)
            ctx2 = subst.ctx_extend(ctx, dom)
            k_cod, d_cod = self.infer_universe(ctx2, cod)
            k_cod0 = self._strengthen_level(ctx2, k_cod)
            k = self._join_levels(ctx, self._norm(k_dom), k_cod0)
            d_dom2 = self._subsume(d_dom, Univ(k))
            d_cod2 = self._subsume(d_cod, Univ(subst.shift(k, 1, 0)))
            ty = Univ(k)
            d = Derivation("Pi", ctx, t, ty, (d_dom2, d_cod2))
        elif cls is Var:
            (ix,) = t
            try:
                ty = subst.ctx_lookup(ctx, ix)
            except IndexError:
                raise TypingError(
                    f"unbound variable: index {ix} at depth {len(ctx)}"
                ) from None
            d = Derivation("Var", ctx, t, ty, (self.ctx_derivation(ctx),))
        elif cls is App:
            fn, arg = t
            fn_ty, d_fn = self.infer(ctx, fn)
            head = self._whnf(fn_ty)
            if type(head) is not Pi:
                raise TypingError(
                    f"application of a non-function: {pretty(fn)} "
                    f"has type {pretty(fn_ty)}"
                )
            d_fn2 = self._conv_to(d_fn, head)
            dom, cod = head
            d_arg = self._premise(ctx, arg, dom, "argument mismatch")
            ty = subst.subst1(cod, arg)
            d = Derivation("App", ctx, t, ty, (d_fn2, d_arg))
        elif cls is Absurd:
            ann, scrut = t
            _, d_ann = self.infer_universe(ctx, ann)
            d_scrut = self._premise(
                ctx, scrut, Mty(), "absurdity scrutinee is not a refutation"
            )
            ty = ann
            d = Derivation("Abs", ctx, t, ty, (d_ann, d_scrut))
        else:
            raise TypeError(f"Unexpected term in infer: {t!r}")
        hit = self._infer_cache[key] = (ty, d)
        return hit

    # -- checking

    def check(self, ctx: Context, t: Term, expected: Term) -> CheckResult:
        """Accepted with a derivation, rejected with a diagnostic, or
        undecided when the fuel or the interpreter's recursion limit
        (input nested too deeply) gave out first."""

        def derive() -> Derivation:
            self.infer_universe(ctx, expected)
            return self._check(ctx, t, expected)

        return _result(derive)

    def _check(self, ctx: Context, t: Term, expected: Term) -> Derivation:
        """Derivation of ``t : expected``: an introduction node at the head
        of ``expected`` where one applies (``U``, ``Level<``, ``Bot`` or
        Pi in a universe, a literal below a literal, ``fun`` at a Pi),
        else ``t`` inferred; then one subsumption step, ``_conv_to`` for
        the former and ``_subsume`` for the latter."""
        head = self._whnf(expected)
        cls, head_cls = type(t), type(head)
        if head_cls is Univ:
            (level,) = head
            if cls is Univ:
                (k,) = t
                d_lt = self._check(ctx, k, LevelLt(level))
                d = Derivation("Univ", ctx, t, head, (d_lt,))
                return self._conv_to(d, expected)
            if cls is LevelLt or cls is Mty:
                return self._conv_to(self._type_at(ctx, t, level), expected)
            if cls is Pi:
                dom, cod = t
                d_dom = self._check(ctx, dom, head)
                ctx2 = subst.ctx_extend(ctx, dom)
                lifted = Univ(subst.shift(level, 1, 0))
                d_cod = self._check(ctx2, cod, lifted)
                d = Derivation("Pi", ctx, t, head, (d_dom, d_cod))
                return self._conv_to(d, expected)
        elif cls is Lvl and head_cls is LevelLt:
            (bound,) = head
            nb = self._norm(bound)
            if type(nb) is Lvl:
                # ``_literal_type`` rejects a subject the domain cannot
                # type; the level search asks the Lvl rule's side condition.
                _literal_type(self.domain, t[0])
                return self._conv_to(self._derive_level_below(ctx, t, nb), expected)
        elif cls is Lam and head_cls is Pi:
            ann, body = t
            dom, cod = head
            _, d_ann = self.infer_universe(ctx, ann)
            if not self._conv(ann, dom):
                raise TypingError(
                    f"domain annotation mismatch: {pretty(ann)} vs {pretty(dom)}"
                )
            d_body = self._check(subst.ctx_extend(ctx, ann), body, cod)
            return self._conv_to(self._lam(t, d_ann, d_body), expected)
        return self._subsume(self.infer(ctx, t)[1], expected)

    def _premise(self, ctx: Context, t: Term, expected: Term, what: str) -> Derivation:
        """``_check`` of a premise whose rejection names the premise."""
        try:
            return self._check(ctx, t, expected)
        except TypingError as e:
            raise TypingError(f"{what}: {e}") from None

    def _subsume(self, d: Derivation, target: Term) -> Derivation:
        """Reuse ``d`` at ``target``: Conv when the types are convertible,
        else Cumul from ``U k`` to ``U j`` or Trans from ``Level< a`` to
        ``Level< b``, built at the normalized target over ``d`` at its
        normalized type and a derivation that the lower level is below
        the higher, then converted to ``target``."""
        if self._conv(d.ty, target):
            return self._conv_to(d, target)
        n_actual, n_target = self._norm(d.ty), self._norm(target)
        cls = type(n_actual)
        if cls is type(n_target) and (cls is Univ or cls is LevelLt):
            # Parts of a normal form are normal.
            ((lo,), (hi,)) = n_actual, n_target
            d_at = self._conv_to(d, n_actual)
            d_lt = self._derive_level_below(d.ctx, lo, hi)
            if cls is Univ:
                lifted = Derivation("Cumul", d.ctx, d.term, n_target, (d_at, d_lt))
            else:
                lifted = _trans(d_at, d_lt)
            return self._conv_to(lifted, target)
        raise TypingError(
            f"type mismatch: expected {pretty(target)}, got {pretty(d.ty)}"
        )

    def check_context(self, ctx: Context) -> CheckResult:
        """The verdict on ``ctx`` as ``check`` gives one."""
        return _result(self.ctx_derivation, ctx)


def _result(derive, *args) -> CheckResult:
    """The verdict on ``derive(*args)``, as ``TypeChecker.check`` states."""
    try:
        d = derive(*args)
    except FuelError as e:
        return CheckResult(Verdict.UNDECIDED, str(e))
    except TypingError as e:
        return CheckResult(Verdict.REJECTED, str(e))
    except RecursionError:
        return CheckResult(
            Verdict.UNDECIDED, "resource limit: term nested too deeply to check"
        )
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
    either fails, or the fuel or the recursion limit runs out first.
    Sound; incomplete by design."""
    tc = TypeChecker(domain, fuel)
    try:
        tc.infer_level(ctx, lo)
        return tc.level_below(ctx, lo, hi)
    except (TypingError, FuelError, RecursionError):
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
    if d_body.ty != cod:
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
# Validated derivation search


def search_derivation(
    ctx: Context,
    t: Term,
    ty: Term,
    domain: LevelDomain = NAT_OMEGA,
    fuel: int = DEFAULT_FUEL,
) -> Derivation | None:
    """The checker's derivation of ctx |- t : ty when the validator
    accepts it, None otherwise.

    Composing ``Trans`` or ``Cumul`` through a middle level finds nothing
    the checker misses, because the checker's level relation is
    transitive. Checking ``s : Level< n`` infers ``s : Level< b`` and
    climbs from ``b``; each climb step goes to the current level's
    inferred bound, which depends on that level alone, and at the
    climb's first literal the domain's order decides. So if the climb
    from ``b`` reaches ``m``, it goes on as the climb from ``m`` does,
    and reaches ``n`` where that one does; if it ends at a literal below
    the literal ``m``, that literal is below every literal above ``m``.
    Checking ``s : U n`` asks the same relation of ``s``'s universe
    index, or of its parts. The one exception is a chain longer than
    ``CLIMB_CAP`` non-variable steps.
    """
    res = TypeChecker(domain, fuel).check(ctx, t, ty)
    if res and check_derivation(res.derivation, domain, fuel).ok:
        return res.derivation
    return None
