"""Shifting and substitution against the named-variable reference."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import named_oracle as no
from gen import subst_image_scope, substs, terms
from ulevels import subst
from ulevels.levels import Finite
from ulevels.subst import (
    Subst,
    apply,
    compose,
    ctx_extend,
    ctx_lookup,
    lift,
    shift,
    strengthen,
    subst1,
)
from ulevels.terms import App, Lam, Lvl, Mty, Pi, Univ, Var, term_size


def _names(n: int) -> list[str]:
    return [no.fresh_name() for _ in range(n)]


def test_shift_frozen_values():
    assert shift(Lam(Mty(), Var(1)), 1, 0) == Lam(Mty(), Var(2))
    assert shift(Var(0), 2, 1) == Var(0)
    assert shift(Var(1), 2, 1) == Var(3)
    assert shift(Pi(Var(0), Var(0)), 1, 0) == Pi(Var(1), Var(0))


def test_apply_frozen_value():
    # Map index 0 to Var 3 and leave every later index alone.
    s = Subst((Var(3),), 1)
    t = Lam(Mty(), App(Var(0), Var(1)))
    assert apply(s, t) == Lam(Mty(), App(Var(0), Var(4)))


def test_subst1_frozen_value():
    body = App(Var(0), Var(1))
    arg = Lam(Mty(), Var(0))
    assert subst1(body, arg) == App(arg, Var(0))


def test_ctx_lookup_shifts_past_later_binders():
    u0 = Univ(Lvl(Finite(0)))
    ctx = ctx_extend(ctx_extend((), u0), Var(0))
    assert ctx_lookup(ctx, 0) == Var(1)
    assert ctx_lookup(ctx, 1) == u0


def test_ctx_lookup_out_of_scope():
    with pytest.raises(IndexError):
        ctx_lookup((), 0)
    with pytest.raises(IndexError):
        ctx_lookup((Mty(),), 1)


@given(terms(free=3), st.integers(0, 3), st.integers(0, 3))
def test_shift_agrees_with_named_weakening(t, by, cutoff):
    # Weakening inserts names at the cutoff; the rendering of the
    # shifted term through the widened environment must not change.
    inner = _names(3)
    widened = inner[:cutoff] + _names(by) + inner[cutoff:]
    assert no.alpha_eq_named(
        no.to_named(shift(t, by, cutoff), widened),
        no.to_named(t, inner),
    )


@given(terms(free=3), terms(free=2))
def test_subst1_agrees_with_named_substitution(body, arg):
    env = _names(2)
    x = no.fresh_name()
    expected = no.subst_named(no.to_named(body, [x] + env), {x: no.to_named(arg, env)})
    actual = no.to_named(subst1(body, arg), env)
    assert no.alpha_eq_named(actual, expected)


@given(terms(free=3), substs(free=3))
def test_apply_agrees_with_named_simultaneous_substitution(t, s):
    env_t = _names(3)
    env_img = _names(subst_image_scope(3))
    mapping = {name: no.to_named(s.image(i), env_img) for i, name in enumerate(env_t)}
    expected = no.subst_named(no.to_named(t, env_t), mapping)
    actual = no.to_named(apply(s, t), env_img)
    assert no.alpha_eq_named(actual, expected)


@given(terms(free=3), substs(free=3), substs(free=subst_image_scope(3)))
def test_apply_of_composition_is_nested_apply(t, s_inner, s_outer):
    assert apply(compose(s_outer, s_inner), t) == apply(s_outer, apply(s_inner, t))


@given(terms(free=3))
def test_identity_subst_is_identity(t):
    # Nothing changes, so the term itself comes back, not a copy.
    assert apply(Subst((), 0), t) is t


# Sharing: a traversal that changes nothing returns its argument (see
# also test_identity_subst_is_identity).


@given(terms(free=3), st.integers(0, 3))
def test_shift_above_every_free_variable_returns_its_argument(t, by):
    assert shift(t, by, 3) is t


@given(terms(free=3))
def test_strengthen_above_every_free_variable_returns_its_argument(t):
    assert strengthen(t, 3) is t


def test_subst1_shifts_only_where_the_variable_occurs(monkeypatch):
    calls = []
    original = subst.shift

    def counted(term, by, cutoff=0):
        calls.append(by)
        return original(term, by, cutoff)

    monkeypatch.setattr(subst, "shift", counted)
    arg = Lam(Mty(), Var(1))
    tower = Var(0)
    for _ in range(200):
        tower = Lam(Mty(), tower)
    # The innermost Var(0) is bound: the substituted variable never occurs.
    assert subst1(tower, arg) is tower
    assert calls == []
    # Where it occurs, under 200 binders, its image is shifted once:
    # one call per node of the image.
    occurs = Var(200)
    for _ in range(200):
        occurs = Lam(Mty(), occurs)
    out = subst1(occurs, arg)
    assert calls == [200] * term_size(arg)
    for _ in range(200):
        out = out.body
    assert out == shift(arg, 200, 0)


@given(terms(free=3), substs(free=3))
def test_lift_commutes_with_weakening(t, s):
    assert apply(lift(s), shift(t, 1, 0)) == shift(apply(s, t), 1, 0)


def test_compose_tail_arithmetic():
    # Pure renamings compose by adding shifts.
    s1 = Subst((), 2)
    s2 = Subst((), 3)
    t = App(Var(0), Var(5))
    assert apply(compose(s2, s1), t) == apply(s2, apply(s1, t)) == App(Var(5), Var(10))


def test_compose_prefix_consumes_outer():
    s_inner = Subst((), 1)
    s_outer = Subst((Mty(), Var(7)), 0)
    composed = compose(s_outer, s_inner)
    t = App(Var(0), Var(1))
    assert apply(composed, t) == apply(s_outer, apply(s_inner, t)) == App(Var(7), Var(0))
