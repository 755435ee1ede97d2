"""Core term syntax with de Bruijn indices.

Binders (``Pi``, ``Lam``) carry no names; ``Var(0)`` is the innermost
binding. Contexts are tuples of types, innermost entry last; an entry is
stated in the context prefix to its left, so lookups must shift (see the
substitution module).
"""

from __future__ import annotations

from typing import Iterator, Union

from .levels import LevelValue
from .node import Node

__all__ = [
    "Var",
    "Lvl",
    "Pi",
    "Lam",
    "App",
    "Mty",
    "Absurd",
    "Univ",
    "LevelLt",
    "Term",
    "Context",
    "is_value",
    "free_above",
    "is_closed",
    "alpha_equal",
    "term_size",
    "iter_subterms",
]


class Var(Node):
    """A bound or context variable, by de Bruijn index."""

    __slots__ = ()
    __match_args__ = ("ix",)

    def __new__(cls, ix: int) -> Var:
        return tuple.__new__(cls, (ix,))


class Lvl(Node):
    """A concrete level literal."""

    __slots__ = ()
    __match_args__ = ("value",)

    def __new__(cls, value: LevelValue) -> Lvl:
        return tuple.__new__(cls, (value,))


class Pi(Node):
    """Dependent function type; ``cod`` binds one variable."""

    __slots__ = ()
    __match_args__ = ("dom", "cod")

    def __new__(cls, dom: Term, cod: Term) -> Pi:
        return tuple.__new__(cls, (dom, cod))


class Lam(Node):
    """Annotated abstraction; ``body`` binds one variable."""

    __slots__ = ()
    __match_args__ = ("ann", "body")

    def __new__(cls, ann: Term, body: Term) -> Lam:
        return tuple.__new__(cls, (ann, body))


class App(Node):
    __slots__ = ()
    __match_args__ = ("fn", "arg")

    def __new__(cls, fn: Term, arg: Term) -> App:
        return tuple.__new__(cls, (fn, arg))


class Mty(Node):
    """The empty type."""

    __slots__ = ()

    def __new__(cls) -> Mty:
        return tuple.__new__(cls)


class Absurd(Node):
    """Eliminate a proof of the empty type at the annotated type."""

    __slots__ = ()
    __match_args__ = ("ann", "scrut")

    def __new__(cls, ann: Term, scrut: Term) -> Absurd:
        return tuple.__new__(cls, (ann, scrut))


class Univ(Node):
    """The universe at the given level term."""

    __slots__ = ()
    __match_args__ = ("level",)

    def __new__(cls, level: Term) -> Univ:
        return tuple.__new__(cls, (level,))


class LevelLt(Node):
    """The type of levels strictly below the given bound term."""

    __slots__ = ()
    __match_args__ = ("bound",)

    def __new__(cls, bound: Term) -> LevelLt:
        return tuple.__new__(cls, (bound,))


Term = Union[Var, Lvl, Pi, Lam, App, Mty, Absurd, Univ, LevelLt]

Context = tuple[Term, ...]


def is_value(term: Term) -> bool:
    """Weak-head values: every introduction and type former."""
    return isinstance(term, (Lvl, Pi, Lam, Mty, Univ, LevelLt))


def free_above(term: Term, depth: int) -> bool:
    """Does ``term`` mention a free variable with index >= ``depth``?"""
    match term:
        case Var(ix):
            return ix >= depth
        case Lvl(_) | Mty():
            return False
        case Pi(dom, cod):
            return free_above(dom, depth) or free_above(cod, depth + 1)
        case Lam(ann, body):
            return free_above(ann, depth) or free_above(body, depth + 1)
        case App(fn, arg):
            return free_above(fn, depth) or free_above(arg, depth)
        case Absurd(ann, scrut):
            return free_above(ann, depth) or free_above(scrut, depth)
        case Univ(level):
            return free_above(level, depth)
        case LevelLt(bound):
            return free_above(bound, depth)
    raise TypeError(f"Unexpected term in free_above: {term!r}")


def is_closed(term: Term) -> bool:
    return not free_above(term, 0)


def alpha_equal(a: Term, b: Term) -> bool:
    """Alpha equivalence; with de Bruijn syntax this is plain equality."""
    return a == b


def term_size(term: Term) -> int:
    match term:
        case Var(_) | Lvl(_) | Mty():
            return 1
        case Pi(a, b) | Lam(a, b) | App(a, b) | Absurd(a, b):
            return 1 + term_size(a) + term_size(b)
        case Univ(a) | LevelLt(a):
            return 1 + term_size(a)
    raise TypeError(f"Unexpected term in term_size: {term!r}")


def iter_subterms(term: Term) -> Iterator[Term]:
    """Yield ``term`` and every subterm, preorder."""
    yield term
    match term:
        case Var(_) | Lvl(_) | Mty():
            return
        case Pi(a, b) | Lam(a, b) | App(a, b) | Absurd(a, b):
            yield from iter_subterms(a)
            yield from iter_subterms(b)
        case Univ(a) | LevelLt(a):
            yield from iter_subterms(a)
        case _:
            raise TypeError(f"Unexpected term in iter_subterms: {term!r}")
