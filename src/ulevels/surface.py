"""Surface syntax for ``.ttbfl`` files.

A file is a sequence of pragmas and definitions:

    -- comments run to the end of the line
    #domain nat-omega        -- or nat
    #fuel 10000
    def name : TYPE := BODY
    #fail
    def broken : TYPE := BODY   -- expected to be rejected

``#domain`` and ``#fuel`` may each appear once.

Terms:  ``Pi (x : A) . B``, ``fun (x : A) . b``, ``A -> B`` (sugar for a
function type that ignores its argument), application by adjacency,
``U t``, ``Level< t``, ``Bot``, ``absurd [T] t``, level literals
(``0``, ``42``, ``omega``, ``omega+3``), and parentheses. One name per
binder group; to bind several, repeat the group. Definition names are
transparent: later definitions see earlier bodies inlined.
"""

from __future__ import annotations

import re

from .checker import TypeChecker, Verdict, pretty
from .levels import (
    LevelDomain,
    LevelSyntaxError,
    NAT_OMEGA,
    domain_named,
)
from .node import Node
from .reduction import DEFAULT_FUEL
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
)

__all__ = [
    "SurfaceError",
    "SurfaceDef",
    "Module",
    "parse",
    "resolve",
    "pretty",
    "DefReport",
    "ModuleReport",
    "module_settings",
    "resolve_defs",
    "check_module",
    "format_report",
]


class SurfaceError(ValueError):
    """Lexical, syntactic, or scoping error in surface input."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# ---------------------------------------------------------------------------
# Lexer

# One match per token, after the blanks before it. No token spans a line,
# so ``lex`` scans each line on its own, with its trailing blanks cut off:
# a comment runs to the end of the line and is the one match that has no
# group; ``bad`` is the first character no token matches.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*
    (?:
        --.*
      | (?P<pragma>\#(?:domain|fuel|fail))
      | (?P<coloneq>:=)
      | (?P<arrow>->)
      | (?P<levellt>Level<)
      | (?P<level>omega\+[1-9][0-9]*|omega(?![A-Za-z0-9_'])|0(?![0-9])|[1-9][0-9]*)
      | (?P<kw>(?:def|Pi|fun|Bot|absurd|U)(?![A-Za-z0-9_']))
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<colon>:)
      | (?P<dot>\.)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<lbrack>\[)
      | (?P<rbrack>\])
      | (?P<minus>-)
      | (?P<bad>[^ \t\r])
    )
""",
    re.VERBOSE,
)


class Token(Node):
    __slots__ = ()
    __match_args__ = ("kind", "text", "line")

    def __new__(cls, kind: str, text: str, line: int) -> Token:
        return tuple.__new__(cls, (kind, text, line))


def lex(source: str) -> list[Token]:
    """The tokens of ``source``, ending with an ``eof`` token on the last
    line. Lines are separated by ``\\n`` alone; no token spans a line;
    blanks (space, tab, carriage return) and ``--`` comments are skipped.
    The first character no token matches raises :class:`SurfaceError`
    naming it and its line."""
    out: list[Token] = []
    append = out.append
    # Builds a Token without calling ``Token.__new__`` for each token.
    new = tuple.__new__
    finditer = _TOKEN_RE.finditer
    for line, text in enumerate(source.split("\n"), 1):
        for m in finditer(text.rstrip(" \t\r")):
            kind = m.lastgroup
            if kind is None:
                continue
            if kind == "bad":
                raise SurfaceError(f"unexpected character {m[kind]!r}", line)
            append(new(Token, (kind, m[kind], line)))
    append(new(Token, ("eof", "", line)))
    return out


# ---------------------------------------------------------------------------
# Parser: tokens -> surface expression trees (plain tuples)

class SurfaceDef(Node):
    __slots__ = ()
    __match_args__ = ("name", "ty", "body", "expect_fail", "line")

    def __new__(
        cls, name: str, ty: tuple, body: tuple, expect_fail: bool, line: int
    ) -> SurfaceDef:
        return tuple.__new__(cls, (name, ty, body, expect_fail, line))


class Module(Node):
    __slots__ = ()
    __match_args__ = ("domain_name", "fuel", "defs")

    def __new__(
        cls, domain_name: str | None, fuel: int | None, defs: tuple[SurfaceDef, ...]
    ) -> Module:
        return tuple.__new__(cls, (domain_name, fuel, defs))


# The tokens that can start an atom, and so another argument of an
# application.
_ATOM_KINDS = frozenset({"ident", "level", "lparen", "levellt"})
_ATOM_KEYWORDS = frozenset({"U", "Bot", "absurd"})


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise SurfaceError(
                f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}",
                tok.line,
            )
        self.pos += 1
        return tok

    # -- expressions: each reads the token at ``self.pos`` in place, as
    # ``(kind, text, line)``, instead of a method call per token.

    def expr(self) -> tuple:
        kind, text, _ = self.tokens[self.pos]
        if kind == "kw" and text in ("Pi", "fun"):
            return self.binder_expr()
        lhs = self.app()
        if self.tokens[self.pos][0] == "arrow":
            self.pos += 1
            return ("arrow", lhs, self.expr())
        return lhs

    def binder_expr(self) -> tuple:
        head = self.next()
        groups: list[tuple[str, tuple]] = []
        while self.tokens[self.pos][0] == "lparen":
            self.pos += 1
            name = self.expect("ident", "a binder name")
            self.expect("colon", "':'")
            ty = self.expr()
            self.expect("rparen", "')'")
            groups.append((name.text, ty))
        if not groups:
            raise SurfaceError(f"{head.text} needs at least one binder", head.line)
        self.expect("dot", "'.' after binders")
        body = self.expr()
        tag = "pi" if head.text == "Pi" else "fun"
        return (tag, tuple(groups), body)

    def app(self) -> tuple:
        node = self.atom()
        tokens = self.tokens
        while True:
            kind, text, _ = tokens[self.pos]
            if kind in _ATOM_KINDS or (kind == "kw" and text in _ATOM_KEYWORDS):
                node = ("app", node, self.atom())
            else:
                return node

    def atom(self) -> tuple:
        kind, text, line = self.tokens[self.pos]
        self.pos += 1
        if kind == "ident":
            return ("var", text, line)
        if kind == "level":
            return ("level", text, line)
        if kind == "lparen":
            inner = self.expr()
            self.expect("rparen", "')'")
            return inner
        if kind == "levellt":
            return ("lt", self.atom())
        if kind == "kw":
            if text == "U":
                return ("u", self.atom())
            if text == "Bot":
                return ("bot",)
            if text == "absurd":
                self.expect("lbrack", "'[' after absurd")
                ty = self.expr()
                self.expect("rbrack", "']'")
                return ("absurd", ty, self.atom())
        raise SurfaceError(
            f"expected a term, found {text!r}" if text else "expected a term", line
        )

    # -- module structure

    def module(self) -> Module:
        domain_name: str | None = None
        fuel: int | None = None
        defs: list[SurfaceDef] = []
        names: set[str] = set()
        pending_fail: Token | None = None
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind == "pragma":
                self.next()
                if tok.text == "#domain":
                    if domain_name is not None:
                        raise SurfaceError("duplicate #domain pragma", tok.line)
                    domain_name = self._domain_name()
                elif tok.text == "#fuel":
                    if fuel is not None:
                        raise SurfaceError("duplicate #fuel pragma", tok.line)
                    num = self.expect("level", "a fuel amount")
                    if not num.text.isdigit():
                        raise SurfaceError("fuel must be a number", num.line)
                    fuel = int(num.text)
                else:
                    pending_fail = tok
                continue
            if tok.kind == "kw" and tok.text == "def":
                self.next()
                name = self.expect("ident", "a definition name")
                if name.text in names:
                    raise SurfaceError(
                        f"duplicate definition: {name.text}", name.line
                    )
                names.add(name.text)
                self.expect("colon", "':' after the name")
                ty = self.expr()
                self.expect("coloneq", "':=' before the body")
                body = self.expr()
                defs.append(
                    SurfaceDef(
                        name.text, ty, body, pending_fail is not None, name.line
                    )
                )
                pending_fail = None
                continue
            raise SurfaceError(
                f"expected a pragma or definition, found {tok.text!r}", tok.line
            )
        if pending_fail is not None:
            raise SurfaceError("#fail is not followed by a definition", pending_fail.line)
        return Module(domain_name, fuel, tuple(defs))

    def _domain_name(self) -> str:
        parts = [self.expect("ident", "a domain name").text]
        while self.peek().kind == "minus":
            self.next()
            # ``omega`` lexes as a level literal, as in ``nat-omega``.
            kind = "level" if self.peek().text == "omega" else "ident"
            parts.append(self.expect(kind, "a domain name part").text)
        return "-".join(parts)


def parse(source: str) -> Module:
    parser = _Parser(lex(source))
    try:
        return parser.module()
    except RecursionError:
        raise SurfaceError(
            "input nested too deeply to parse", parser.peek().line
        ) from None


# ---------------------------------------------------------------------------
# Resolution: surface trees -> core terms


def resolve(
    node: tuple,
    stack: tuple[str | None, ...] = (),
    defs: dict[str, Term] | None = None,
    domain: LevelDomain = NAT_OMEGA,
) -> Term:
    """The core term of the surface tree ``node``. A name bound in
    ``stack`` (innermost first) becomes its de Bruijn index, any other
    name the term ``defs`` gives it; literals are read in ``domain``."""
    return _ARMS.get(node[0], _malformed)(node, stack, defs or {}, domain)


# One arm per tag of the trees ``_Parser`` builds, each called with the
# arguments of ``resolve``. An arm resolves a subtree by calling that
# subtree's arm itself, so a tree nested n deep takes n frames.


def _var(node, stack, defs, domain) -> Term:
    _, name, line = node
    if name in stack:
        return Var(stack.index(name))
    if name in defs:
        return defs[name]
    raise SurfaceError(f"unknown identifier: {name}", line)


def _level(node, stack, defs, domain) -> Term:
    _, text, line = node
    try:
        return Lvl(domain.parse_literal(text))
    except LevelSyntaxError as e:
        raise SurfaceError(str(e), line) from None


def _bot(node, stack, defs, domain) -> Term:
    return Mty()


def _univ(node, stack, defs, domain) -> Term:
    _, inner = node
    return Univ(_ARMS.get(inner[0], _malformed)(inner, stack, defs, domain))


def _level_lt(node, stack, defs, domain) -> Term:
    _, inner = node
    return LevelLt(_ARMS.get(inner[0], _malformed)(inner, stack, defs, domain))


def _absurd(node, stack, defs, domain) -> Term:
    _, ty, scrut = node
    return Absurd(
        _ARMS.get(ty[0], _malformed)(ty, stack, defs, domain),
        _ARMS.get(scrut[0], _malformed)(scrut, stack, defs, domain),
    )


def _app(node, stack, defs, domain) -> Term:
    _, fn, arg = node
    return App(
        _ARMS.get(fn[0], _malformed)(fn, stack, defs, domain),
        _ARMS.get(arg[0], _malformed)(arg, stack, defs, domain),
    )


def _arrow(node, stack, defs, domain) -> Term:
    _, lhs, rhs = node
    return Pi(
        _ARMS.get(lhs[0], _malformed)(lhs, stack, defs, domain),
        _ARMS.get(rhs[0], _malformed)(rhs, (None,) + stack, defs, domain),
    )


def _binders(node, stack, defs, domain) -> Term:
    # ``Pi (x : A) (y : B) . C`` is ``Pi (x : A) . Pi (y : B) . C``: each
    # group's type sees the names bound before it, the body sees them all.
    tag, groups, body = node
    ctor = Pi if tag == "pi" else Lam
    doms = []
    for name, ty in groups:
        doms.append(_ARMS.get(ty[0], _malformed)(ty, stack, defs, domain))
        stack = (name,) + stack
    term = _ARMS.get(body[0], _malformed)(body, stack, defs, domain)
    for dom in reversed(doms):
        term = ctor(dom, term)
    return term


def _malformed(node, stack, defs, domain) -> Term:
    raise SurfaceError(f"malformed surface tree: {node!r}")


_ARMS = {
    "var": _var,
    "level": _level,
    "bot": _bot,
    "u": _univ,
    "lt": _level_lt,
    "absurd": _absurd,
    "app": _app,
    "arrow": _arrow,
    "pi": _binders,
    "fun": _binders,
}


# ---------------------------------------------------------------------------
# Module checking


class DefReport(Node):
    __slots__ = ()
    __match_args__ = ("name", "verdict", "expect_fail", "type_text", "message")

    def __new__(
        cls,
        name: str,
        verdict: Verdict,
        expect_fail: bool,
        type_text: str = "",
        message: str = "",
    ) -> DefReport:
        return tuple.__new__(cls, (name, verdict, expect_fail, type_text, message))

    @property
    def passed(self) -> bool:
        if self.expect_fail:
            return self.verdict is Verdict.REJECTED
        return self.verdict is Verdict.ACCEPTED

    @property
    def status(self) -> str:
        """``ok``, ``FAIL`` or ``undecided``: the word that opens the
        definition's report line."""
        if self.verdict is Verdict.UNDECIDED:
            return "undecided"
        return "ok" if self.passed else "FAIL"


class ModuleReport(Node):
    __slots__ = ()
    __match_args__ = ("domain_name", "fuel", "entries")

    def __new__(
        cls, domain_name: str, fuel: int, entries: tuple[DefReport, ...]
    ) -> ModuleReport:
        return tuple.__new__(cls, (domain_name, fuel, entries))

    @property
    def failed(self) -> int:
        return sum(1 for e in self.entries if e.status == "FAIL")

    @property
    def undecided_count(self) -> int:
        return sum(1 for e in self.entries if e.status == "undecided")

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.undecided_count == 0


def module_settings(
    module: Module,
    domain_name: str | None = None,
    fuel: int | None = None,
) -> tuple[LevelDomain, int]:
    """Effective domain and fuel: explicit argument, then pragma, then
    the defaults."""
    chosen_domain = domain_name or module.domain_name or NAT_OMEGA.name
    chosen_fuel = fuel if fuel is not None else (
        module.fuel if module.fuel is not None else DEFAULT_FUEL
    )
    return domain_named(chosen_domain), chosen_fuel


def resolve_defs(
    module: Module, domain: LevelDomain
) -> list[tuple[SurfaceDef, Term, Term]]:
    """Resolved (definition, type, body) triples, the one name
    resolution every command uses: each definition not marked ``#fail``
    is inlined into later ones, whatever its verdict, so a later
    definition is judged on its own and a rejected one is reported once,
    where it stands."""
    defs: dict[str, Term] = {}
    out: list[tuple[SurfaceDef, Term, Term]] = []
    for d in module.defs:
        ty = resolve(d.ty, (), defs, domain)
        body = resolve(d.body, (), defs, domain)
        out.append((d, ty, body))
        if not d.expect_fail:
            defs[d.name] = body
    return out


def check_module(
    module: Module,
    domain_name: str | None = None,
    fuel: int | None = None,
) -> ModuleReport:
    """Check every definition in order, names resolved by
    :func:`resolve_defs`. One checker serves the whole module, so an
    inlined definition is typed once; the verdicts are those of a fresh
    check per definition."""
    domain, chosen_fuel = module_settings(module, domain_name, fuel)
    chosen_domain = domain.name
    checker = TypeChecker(domain, chosen_fuel)
    entries: list[DefReport] = []
    for d, ty, body in resolve_defs(module, domain):
        res = checker.check((), body, ty)
        entries.append(
            DefReport(
                name=d.name,
                verdict=res.verdict,
                expect_fail=d.expect_fail,
                type_text=pretty(ty),
                message=res.message,
            )
        )
    return ModuleReport(chosen_domain, chosen_fuel, tuple(entries))


def format_report(report: ModuleReport) -> str:
    """Stable, diffable text: one line per definition plus a summary."""
    lines = []
    for e in report.entries:
        if e.status == "undecided":
            detail = e.message
        elif e.expect_fail:
            detail = "fails as expected" if e.passed else "unexpectedly accepted"
        else:
            detail = e.type_text if e.passed else e.message
        lines.append(f"{e.status} {e.name} : {detail}")
    total = len(report.entries)
    lines.append(
        f"checked {total} definitions: "
        f"{total - report.failed - report.undecided_count} ok, "
        f"{report.failed} failed, {report.undecided_count} undecided"
    )
    return "\n".join(lines) + "\n"
