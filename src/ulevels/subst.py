"""Shifting and substitution for de Bruijn terms.

A ``Subst`` carries explicit images for the first ``len(prefix)``
indices and renames every later index ``len(prefix) + j`` to
``Var(shift + j)``. Composition stays in this representation, so the
usual simultaneous-substitution laws can be checked directly.

``apply`` counts the binders it passes and shifts an image once, where
the variable occurs, by that count. Every traversal here returns its
argument itself when no field changed, so unchanged subterms are
shared, not copied.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Context, Term, Var, binders

__all__ = [
    "shift",
    "Subst",
    "lift",
    "apply",
    "compose",
    "subst1",
    "strengthen",
    "ctx_extend",
    "ctx_lookup",
]


def shift(term: Term, by: int, cutoff: int = 0) -> Term:
    """Add ``by`` to every free variable index at or above ``cutoff``."""
    binds = binders(term)
    if binds:
        first = shift(term[0], by, cutoff + binds[0])
        if len(binds) == 1:
            return term if first is term[0] else type(term)(first)
        second = shift(term[1], by, cutoff + binds[1])
        if first is term[0] and second is term[1]:
            return term
        return type(term)(first, second)
    if type(term) is Var and term[0] >= cutoff:
        return Var(term[0] + by)
    return term


@dataclass(frozen=True)
class Subst:
    """Images for indices 0..k-1, then ``k + j -> Var(shift + j)``."""

    prefix: tuple[Term, ...]
    shift: int

    def image(self, ix: int) -> Term:
        if ix < len(self.prefix):
            return self.prefix[ix]
        return Var(ix - len(self.prefix) + self.shift)


def lift(s: Subst) -> Subst:
    """Push a substitution under one binder: 0 stays, images move up."""
    moved = tuple(shift(t, 1, 0) for t in s.prefix)
    return Subst((Var(0),) + moved, s.shift + 1)


def apply(s: Subst, term: Term) -> Term:
    return _apply(s, term, 0)


def _apply(s: Subst, term: Term, depth: int) -> Term:
    """``s`` applied to ``term`` under ``depth`` binders: indices below
    ``depth`` are bound here, and an image moves out by ``depth``. A
    variable whose image is itself comes back as is."""
    binds = binders(term)
    if binds:
        first = _apply(s, term[0], depth + binds[0])
        if len(binds) == 1:
            return term if first is term[0] else type(term)(first)
        second = _apply(s, term[1], depth + binds[1])
        if first is term[0] and second is term[1]:
            return term
        return type(term)(first, second)
    if type(term) is not Var or term[0] < depth:
        return term
    out = s.image(term[0] - depth)
    if depth:
        out = shift(out, depth, 0)
    return term if out == term else out


def compose(outer: Subst, inner: Subst) -> Subst:
    """The substitution applying ``inner`` first, then ``outer``.

    apply(compose(outer, inner), t) == apply(outer, apply(inner, t)).
    """
    k = len(inner.prefix)
    prefix = [apply(outer, t) for t in inner.prefix]
    # Tail of inner feeds Var(inner.shift + j) into outer; pull the
    # entries still covered by outer's prefix into the new prefix.
    extra = len(outer.prefix) - inner.shift
    if extra > 0:
        for j in range(extra):
            prefix.append(outer.image(inner.shift + j))
        return Subst(tuple(prefix), outer.shift)
    return Subst(tuple(prefix), inner.shift - len(outer.prefix) + outer.shift)


def subst1(body: Term, arg: Term) -> Term:
    """Replace Var(0) in ``body`` by ``arg``; later indices drop by one."""
    return apply(Subst((arg,), 0), body)


def strengthen(term: Term, depth: int = 0) -> Term | None:
    """Remove the binder at ``depth``: None if ``Var(depth)`` occurs free,
    otherwise the term with indices above ``depth`` decremented."""
    binds = binders(term)
    if binds:
        first = strengthen(term[0], depth + binds[0])
        if first is None:
            return None
        if len(binds) == 1:
            return term if first is term[0] else type(term)(first)
        second = strengthen(term[1], depth + binds[1])
        if second is None:
            return None
        if first is term[0] and second is term[1]:
            return term
        return type(term)(first, second)
    if type(term) is Var and term[0] >= depth:
        return None if term[0] == depth else Var(term[0] - 1)
    return term


def ctx_extend(ctx: Context, ty: Term) -> Context:
    return ctx + (ty,)


def ctx_lookup(ctx: Context, ix: int) -> Term:
    """Type of Var(ix), shifted past the binders declared after it."""
    if not 0 <= ix < len(ctx):
        raise IndexError(f"variable index {ix} out of scope (depth {len(ctx)})")
    return shift(ctx[-1 - ix], ix + 1, 0)
