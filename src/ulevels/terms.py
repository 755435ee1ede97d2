"""Core term syntax with de Bruijn indices.

Binders (``Pi``, ``Lam``) carry no names; ``Var(0)`` is the innermost
binding. Contexts are tuples of types, innermost entry last; an entry is
stated in the context prefix to its left, so lookups must shift (see the
substitution module). With no names to rename, alpha-equivalence is
plain equality: terms are compared with ``==``.
"""

from __future__ import annotations

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
    "BINDS",
    "binders",
    "children",
    "is_value",
    "term_size",
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


Term = Var | Lvl | Pi | Lam | App | Mty | Absurd | Univ | LevelLt

Context = tuple[Term, ...]

# The binding structure of the syntax: for each term class, how many
# variables each subterm field binds, one entry per subterm field.
# Subterm fields come first in every class, so traversals read them by
# tuple index. Leaves have none: ``Var`` holds an index and ``Lvl`` a
# level value, not terms.
BINDS: dict[type, tuple[int, ...]] = {
    Var: (),
    Lvl: (),
    Mty: (),
    Pi: (0, 1),
    Lam: (0, 1),
    App: (0, 0),
    Absurd: (0, 0),
    Univ: (0,),
    LevelLt: (0,),
}


# How many subterm fields each term class has, read by ``children``.
_ARITY: dict[type, int] = {cls: len(binds) for cls, binds in BINDS.items()}


def binders(term: Term) -> tuple[int, ...]:
    """The ``BINDS`` entry of ``term``; TypeError for a non-term."""
    try:
        return BINDS[type(term)]
    except KeyError:
        raise TypeError(f"not a term: {term!r}") from None


def children(term: Term) -> tuple[Term, ...]:
    """The subterm fields of ``term`` in field order; () for a leaf.
    TypeError for a non-term, as ``binders``."""
    try:
        return term[: _ARITY[type(term)]]
    except KeyError:
        raise TypeError(f"not a term: {term!r}") from None


def is_value(term: Term) -> bool:
    """Weak-head values: every introduction and type former."""
    return isinstance(term, (Lvl, Pi, Lam, Mty, Univ, LevelLt))


def term_size(term: Term) -> int:
    size = 1
    for kid in children(term):
        size += term_size(kid)
    return size
