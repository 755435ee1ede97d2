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
from dataclasses import dataclass

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
    "parse_expr",
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

KEYWORDS = {"def", "Pi", "fun", "Bot", "absurd", "U"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<nl>\n)
  | (?P<comment>--[^\n]*)
  | (?P<pragma>\#(?:domain|fuel|fail))
  | (?P<coloneq>:=)
  | (?P<arrow>->)
  | (?P<levellt>Level<)
  | (?P<level>omega\+[1-9][0-9]*|omega(?![A-Za-z0-9_'])|0(?![0-9])|[1-9][0-9]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<colon>:)
  | (?P<dot>\.)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<lbrack>\[)
  | (?P<rbrack>\])
  | (?P<minus>-)
""",
    re.VERBOSE,
)


class Token(Node):
    __slots__ = ()
    __match_args__ = ("kind", "text", "line")

    def __new__(cls, kind: str, text: str, line: int) -> Token:
        return tuple.__new__(cls, (kind, text, line))


def lex(source: str) -> list[Token]:
    out: list[Token] = []
    pos = 0
    line = 1
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise SurfaceError(f"unexpected character {source[pos]!r}", line)
        kind = m.lastgroup
        text = m.group()
        pos = m.end()
        if kind == "nl":
            line += 1
            continue
        if kind in ("ws", "comment"):
            continue
        if kind == "ident" and text in KEYWORDS:
            kind = "kw"
        out.append(Token(kind, text, line))
    out.append(Token("eof", "", line))
    return out


# ---------------------------------------------------------------------------
# Parser: tokens -> surface expression trees (plain tuples)

@dataclass(frozen=True)
class SurfaceDef:
    name: str
    ty: tuple
    body: tuple
    expect_fail: bool
    line: int


@dataclass(frozen=True)
class Module:
    domain_name: str | None
    fuel: int | None
    defs: tuple[SurfaceDef, ...]


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
        tok = self.peek()
        if tok.kind != kind:
            raise SurfaceError(
                f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}",
                tok.line,
            )
        return self.next()

    # -- expressions

    def expr(self) -> tuple:
        tok = self.peek()
        if tok.kind == "kw" and tok.text in ("Pi", "fun"):
            return self.binder_expr()
        lhs = self.app()
        if self.peek().kind == "arrow":
            self.next()
            return ("arrow", lhs, self.expr())
        return lhs

    def binder_expr(self) -> tuple:
        head = self.next()
        groups: list[tuple[str, tuple]] = []
        while self.peek().kind == "lparen":
            self.next()
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
        while self._starts_atom():
            node = ("app", node, self.atom())
        return node

    def _starts_atom(self) -> bool:
        tok = self.peek()
        if tok.kind == "kw":
            return tok.text in ("Bot", "absurd", "U")
        return tok.kind in ("levellt", "level", "ident", "lparen")

    def atom(self) -> tuple:
        tok = self.next()
        if tok.kind == "kw" and tok.text == "U":
            return ("u", self.atom())
        if tok.kind == "levellt":
            return ("lt", self.atom())
        if tok.kind == "kw" and tok.text == "Bot":
            return ("bot",)
        if tok.kind == "kw" and tok.text == "absurd":
            self.expect("lbrack", "'[' after absurd")
            ty = self.expr()
            self.expect("rbrack", "']'")
            return ("absurd", ty, self.atom())
        if tok.kind == "level":
            return ("level", tok.text, tok.line)
        if tok.kind == "ident":
            return ("var", tok.text, tok.line)
        if tok.kind == "lparen":
            inner = self.expr()
            self.expect("rparen", "')'")
            return inner
        raise SurfaceError(
            f"expected a term, found {tok.text!r}" if tok.text else "expected a term",
            tok.line,
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


def parse_expr(source: str) -> tuple:
    parser = _Parser(lex(source))
    node = parser.expr()
    parser.expect("eof", "end of input")
    return node


# ---------------------------------------------------------------------------
# Resolution: surface trees -> core terms


def resolve(
    node: tuple,
    stack: tuple[str | None, ...] = (),
    defs: dict[str, Term] | None = None,
    domain: LevelDomain = NAT_OMEGA,
) -> Term:
    defs = defs or {}
    match node:
        case ("var", name, line):
            for ix, bound in enumerate(stack):
                if bound == name:
                    return Var(ix)
            if name in defs:
                return defs[name]
            raise SurfaceError(f"unknown identifier: {name}", line)
        case ("level", text, line):
            try:
                return Lvl(domain.parse_literal(text))
            except LevelSyntaxError as e:
                raise SurfaceError(str(e), line) from None
        case ("bot",):
            return Mty()
        case ("u", inner):
            return Univ(resolve(inner, stack, defs, domain))
        case ("lt", inner):
            return LevelLt(resolve(inner, stack, defs, domain))
        case ("absurd", ty, scrut):
            return Absurd(
                resolve(ty, stack, defs, domain),
                resolve(scrut, stack, defs, domain),
            )
        case ("app", fn, arg):
            return App(
                resolve(fn, stack, defs, domain),
                resolve(arg, stack, defs, domain),
            )
        case ("arrow", lhs, rhs):
            return Pi(
                resolve(lhs, stack, defs, domain),
                resolve(rhs, (None,) + stack, defs, domain),
            )
        case ("pi", groups, body) | ("fun", groups, body):
            ctor = Pi if node[0] == "pi" else Lam
            def build(i: int, inner_stack: tuple) -> Term:
                if i == len(groups):
                    return resolve(body, inner_stack, defs, domain)
                name, ty = groups[i]
                return ctor(
                    resolve(ty, inner_stack, defs, domain),
                    build(i + 1, (name,) + inner_stack),
                )
            return build(0, stack)
    raise SurfaceError(f"malformed surface tree: {node!r}")


# ---------------------------------------------------------------------------
# Module checking


@dataclass(frozen=True)
class DefReport:
    name: str
    verdict: Verdict
    expect_fail: bool
    type_text: str = ""
    message: str = ""

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


@dataclass(frozen=True)
class ModuleReport:
    domain_name: str
    fuel: int
    entries: tuple[DefReport, ...]

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
