"""Reference lexer for differential tests of ``ulevels.surface.lex``.

This is the straightforward lexer the surface syntax was first read
with: one anchored match per token, newlines, whitespace and comments
matched as tokens of their own and dropped. It is kept only as an
oracle; ``surface.lex`` must return the same tokens, or raise the same
``SurfaceError`` message at the same line, on every input.
"""

from __future__ import annotations

import re

from ulevels.surface import SurfaceError, Token

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
