"""Structural operations on the core syntax."""

from __future__ import annotations

import copy
import itertools
import os
import pickle
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import given

from gen import terms
from named_oracle import alpha_eq_named, to_named
from ulevels.checker import (
    CheckResult,
    Derivation,
    DerivationReport,
    Verdict,
    _Premise,
    _Shape,
    derivation_to_doc,
)
from ulevels.harness import GenCase, GenConfig, PropertyReport
from ulevels.levels import NAT_OMEGA, Finite, OmegaPlus
from ulevels.reduction import (
    complete_development,
    par_reducts,
    par_step_check,
)
from ulevels.subst import Subst, apply, shift, strengthen, subst1
from ulevels.surface import (
    DefReport,
    Module,
    ModuleReport,
    SurfaceDef,
    Token,
    parse,
)
from ulevels.terms import (
    BINDS,
    App,
    Absurd,
    Lam,
    LevelLt,
    Lvl,
    Mty,
    Pi,
    Term,
    Univ,
    Var,
    children,
    is_value,
    term_size,
)


def test_is_value_heads():
    assert is_value(Lvl(Finite(0)))
    assert is_value(Pi(Mty(), Mty()))
    assert is_value(Lam(Mty(), Var(0)))
    assert is_value(Mty())
    assert is_value(Univ(Lvl(Finite(0))))
    assert is_value(LevelLt(Lvl(Finite(1))))
    assert not is_value(Var(0))
    assert not is_value(App(Lam(Mty(), Var(0)), Mty()))
    assert not is_value(Absurd(Mty(), Var(0)))


@given(terms(free=0))
def test_generated_closed_terms_are_closed(t):
    # Weakening changes exactly the terms with a free variable.
    assert shift(t, 1) == t


@given(terms(free=2))
def test_alpha_equal_is_equality_and_matches_named_rendering(t):
    assert t == t
    env = ["a", "b"]
    assert alpha_eq_named(to_named(t, env), to_named(t, env))


def test_alpha_equal_distinguishes_structure():
    assert not Lam(Mty(), Var(0)) == Lam(Mty(), Var(1))
    assert not Pi(Mty(), Mty()) == Lam(Mty(), Mty())


@given(terms(free=2))
def test_term_size_counts_every_subterm(t):
    count, stack = 0, [t]
    while stack:
        count += 1
        stack.extend(children(stack.pop()))
    assert term_size(t) == count


def test_term_size_frozen():
    assert term_size(Mty()) == 1
    assert term_size(App(Lam(Mty(), Var(0)), Mty())) == 5


# ---------------------------------------------------------------------------
# The node contract: equality is same class and equal fields, the hash is
# the hash of the field tuple, and nodes are immutable and unordered.
# Every other record of the package (derivation nodes, check results,
# substitutions, generated cases, tokens, and the records built a few
# times per run: configurations, reports, rule shapes, parsed modules)
# keeps the same contract, except that a derivation node is its own
# identity: it hashes and compares as an object, and copies of it have
# the same structure (document).

ONE_OF_EACH = [
    Var(2),
    Lvl(Finite(1)),
    Pi(Univ(Lvl(Finite(0))), Var(0)),
    Lam(Mty(), Var(0)),
    App(Var(1), Mty()),
    Mty(),
    Absurd(Mty(), Var(0)),
    Univ(Lvl(OmegaPlus(2))),
    LevelLt(Var(1)),
]

NIL = Derivation("Nil", (), None, None)
LVL = Derivation("Lvl", (), Lvl(Finite(0)), LevelLt(Lvl(Finite(1))), (NIL,))
RECORDS = [
    LVL,
    CheckResult(Verdict.ACCEPTED, derivation=NIL),
    Subst((Var(3),), 1),
    GenCase(4, (Mty(),), Var(0), Mty(), NIL),
    Token("ident", "x", 3),
]
DEF = SurfaceDef("x", ("ident", "Bot"), ("ident", "Bot"), True, 2)
FAILED = DefReport("x", Verdict.REJECTED, True, message="m")
RECORDS += [
    GenConfig(seed=7, cases=3),
    PropertyReport("diamond", 3, ("x",), 1, 0, "abc", 0.5),
    DerivationReport(False, ("Nil: context must be empty",)),
    _Premise(Univ, binder=True),
    _Shape(True, Pi, Univ, (_Premise(Univ),)),
    DEF,
    Module("nat", 10, (DEF,)),
    FAILED,
    ModuleReport("nat-omega", 1000, (FAILED,)),
]
NODES = ONE_OF_EACH + RECORDS


def _name(node) -> str:
    return type(node).__name__


def _fields(node) -> tuple:
    return tuple(getattr(node, name) for name in node.__match_args__)


def _holds_derivation(node) -> bool:
    return type(node) is Derivation or Derivation in map(type, node)


def _structure(node):
    """``node``'s fields with each derivation node read as its document;
    a derivation node's own document."""
    if type(node) is Derivation:
        return derivation_to_doc(node)
    return tuple(derivation_to_doc(f) if type(f) is Derivation else f for f in node)


@pytest.mark.parametrize("t", [t for t in NODES if t is not LVL], ids=_name)
def test_hash_is_the_hash_of_the_field_tuple(t):
    assert hash(t) == hash(_fields(t)) == hash(tuple(t))
    assert t == type(t)(*_fields(t))
    # Yet no node equals that tuple, either way.
    assert not t == tuple(t) and t != tuple(t)
    assert not tuple(t) == t and tuple(t) != t


def test_derivation_nodes_hash_and_compare_by_identity():
    twin = Derivation(*_fields(LVL))
    assert hash(LVL) == object.__hash__(LVL)
    assert LVL == LVL and not LVL != LVL
    assert not twin == LVL and twin != LVL
    assert len({LVL, twin}) == 2
    assert derivation_to_doc(twin) == derivation_to_doc(LVL)
    # A record holding one compares that field by identity too.
    accepted = CheckResult(Verdict.ACCEPTED, derivation=LVL)
    assert accepted == CheckResult(Verdict.ACCEPTED, derivation=LVL)
    assert accepted != CheckResult(Verdict.ACCEPTED, derivation=twin)
    # Nor is a node equal to the plain tuple of its fields, either way.
    assert not LVL == tuple(LVL) and LVL != tuple(LVL)
    assert not tuple(LVL) == LVL and tuple(LVL) != LVL


@pytest.mark.parametrize(
    "t, text",
    [
        (Var(2), "Var(ix=2)"),
        (Mty(), "Mty()"),
        (
            Pi(Univ(Lvl(Finite(0))), Var(0)),
            "Pi(dom=Univ(level=Lvl(value=Finite(n=0))), cod=Var(ix=0))",
        ),
        (LevelLt(Lvl(OmegaPlus(3))), "LevelLt(bound=Lvl(value=OmegaPlus(n=3)))"),
        (
            Absurd(App(Var(1), Mty()), Lam(Mty(), Var(0))),
            "Absurd(ann=App(fn=Var(ix=1), arg=Mty()), "
            "scrut=Lam(ann=Mty(), body=Var(ix=0)))",
        ),
        (
            LVL,
            "Derivation(rule='Lvl', ctx=(), term=Lvl(value=Finite(n=0)), "
            "ty=LevelLt(bound=Lvl(value=Finite(n=1))), premises=(Derivation("
            "rule='Nil', ctx=(), term=None, ty=None, premises=()),))",
        ),
        (
            CheckResult(Verdict.REJECTED, "bad"),
            "CheckResult(verdict=<Verdict.REJECTED: 'rejected'>, message='bad', "
            "derivation=None)",
        ),
        (Subst((Var(3),), 1), "Subst(prefix=(Var(ix=3),), shift=1)"),
        (
            GenCase(4, (Mty(),), Var(0), Mty(), NIL),
            "GenCase(index=4, ctx=(Mty(),), term=Var(ix=0), ty=Mty(), "
            "derivation=Derivation(rule='Nil', ctx=(), term=None, ty=None, "
            "premises=()))",
        ),
        (Token("ident", "x", 3), "Token(kind='ident', text='x', line=3)"),
        # The records that were frozen dataclasses or named tuples print
        # as they did.
        (
            GenConfig(seed=7, cases=3),
            "GenConfig(seed=7, cases=3, max_size=14, raw_size=12, "
            "domain_name='nat-omega', fuel=10000)",
        ),
        (
            PropertyReport("diamond", 3, ("x",), 1, 0, "abc", 0.5),
            "PropertyReport(suite='diamond', cases=3, failures=('x',), "
            "undecided=1, fallbacks=0, digest='abc', elapsed=0.5, coverage=(), "
            "inconclusive=())",
        ),
        (
            DerivationReport(False, ("Nil: context must be empty",)),
            "DerivationReport(ok=False, errors=('Nil: context must be empty',))",
        ),
        (
            _Premise(Univ, binder=True),
            "_Premise(ty=<class 'ulevels.terms.Univ'>, binder=True, typing=True)",
        ),
        (
            _Shape(True, Pi, Univ, (_Premise(Univ),)),
            "_Shape(typing=True, subject=<class 'ulevels.terms.Pi'>, "
            "ty=<class 'ulevels.terms.Univ'>, premises=(_Premise(ty=<class "
            "'ulevels.terms.Univ'>, binder=False, typing=True),))",
        ),
        (
            DEF,
            "SurfaceDef(name='x', ty=('ident', 'Bot'), body=('ident', 'Bot'), "
            "expect_fail=True, line=2)",
        ),
        (
            Module("nat", 10, (DEF,)),
            "Module(domain_name='nat', fuel=10, defs=(SurfaceDef(name='x', "
            "ty=('ident', 'Bot'), body=('ident', 'Bot'), expect_fail=True, "
            "line=2),))",
        ),
        (
            FAILED,
            "DefReport(name='x', verdict=<Verdict.REJECTED: 'rejected'>, "
            "expect_fail=True, type_text='', message='m')",
        ),
        (
            ModuleReport("nat-omega", 1000, (FAILED,)),
            "ModuleReport(domain_name='nat-omega', fuel=1000, entries=(DefReport("
            "name='x', verdict=<Verdict.REJECTED: 'rejected'>, expect_fail=True, "
            "type_text='', message='m'),))",
        ),
    ],
)
def test_repr_is_pinned(t, text):
    assert repr(t) == text


SAME_ARITY = [
    pair
    for group in (
        (Var, Lvl, Univ, LevelLt),
        (Pi, Lam, App, Absurd),
        (Derivation, GenCase),
        (CheckResult, Token),
        (Subst, DerivationReport),
        (CheckResult, _Premise, Module, ModuleReport),
        (GenCase, SurfaceDef, DefReport),
    )
    for pair in itertools.combinations(group, 2)
]


@pytest.mark.parametrize(
    "a, b", SAME_ARITY, ids=[f"{a.__name__}-{b.__name__}" for a, b in SAME_ARITY]
)
def test_nodes_of_different_classes_are_unequal(a, b):
    fields = (Mty(),) * len(a.__match_args__)
    x, y = a(*fields), b(*fields)
    if a is not Derivation:  # a derivation node hashes by identity
        assert hash(x) == hash(y)
    assert not x == y and x != y
    assert not y == x and y != x
    assert len({x, y}) == 2
    # Nor is a node equal to the plain tuple of its fields.
    assert not x == fields and x != fields
    assert not fields == x and fields != x


@pytest.mark.parametrize("t", NODES, ids=_name)
def test_nodes_are_immutable_and_unordered(t):
    for name in t.__match_args__:
        with pytest.raises(AttributeError):
            setattr(t, name, Mty())
    with pytest.raises(AttributeError):
        t.extra = 0
    with pytest.raises(TypeError):
        t < t
    with pytest.raises(TypeError):
        t + t
    assert bool(t)


def test_empty_type_is_truthy():
    assert bool(Mty())


def test_check_result_is_true_only_when_accepted():
    # The checker's ``if not res:`` reads the verdict through this.
    assert bool(CheckResult(Verdict.ACCEPTED, derivation=NIL))
    assert not CheckResult(Verdict.REJECTED, "bad")
    assert not CheckResult(Verdict.UNDECIDED, "out of fuel")


@pytest.mark.parametrize("t", NODES, ids=_name)
def test_copies_and_pickles_are_equal(t):
    # A copied derivation node is another object of the same structure.
    by_value = not _holds_derivation(t)
    for clone in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert type(clone) is type(t)
        assert _structure(clone) == _structure(t)
        assert (clone == t) is by_value
        if by_value:
            assert hash(clone) == hash(t)


def test_records_take_keywords_and_defaults():
    nil = Derivation(rule="Nil", ctx=(), term=None, ty=None)
    assert derivation_to_doc(nil) == derivation_to_doc(NIL)
    assert NIL.premises == ()
    res = CheckResult(Verdict.REJECTED)
    assert (res.message, res.derivation) == ("", None)
    assert CheckResult(verdict=Verdict.ACCEPTED, derivation=NIL).derivation is NIL
    assert Subst(prefix=(), shift=2) == Subst((), 2)
    case = GenCase(index=4, ctx=(), term=Var(0), ty=Mty(), derivation=NIL)
    assert case == GenCase(4, (), Var(0), Mty(), NIL)
    assert Token(kind="eof", text="", line=1) == Token("eof", "", 1)
    defaults = dict(seed=0, cases=200, max_size=14, raw_size=12, fuel=10_000)
    assert GenConfig() == GenConfig(**defaults, domain_name="nat-omega")
    assert GenConfig().domain is NAT_OMEGA
    accepted = DefReport("x", Verdict.ACCEPTED, False)
    assert (accepted.type_text, accepted.message) == ("", "")
    assert DefReport(name="x", verdict=Verdict.ACCEPTED, expect_fail=False) == accepted
    suite = PropertyReport("diamond", 3, (), 0, 0, "abc", 0.5)
    assert (suite.coverage, suite.inconclusive) == ((), ())
    assert DerivationReport(ok=True) == DerivationReport(True, ())
    assert _Premise() == _Premise(None, False, True)
    assert _Shape(typing=False) == _Shape(False, None, None, ())
    surface_def = SurfaceDef(name="x", ty=(), body=(), expect_fail=True, line=2)
    assert surface_def == SurfaceDef("x", (), (), True, 2)
    assert Module(domain_name=None, fuel=None, defs=()) == Module(None, None, ())
    report = ModuleReport(domain_name="nat", fuel=1, entries=())
    assert report == ModuleReport("nat", 1, ())


# Run in a subprocess, so that the test run's own imports hold nothing.
REIMPORT = """
import gc, sys, weakref
import ulevels.cli, ulevels.harness
from ulevels import checker, harness, levels, node, subst, surface, terms
old = [
    weakref.ref(cls)
    for cls in (node.Node, levels.Finite, terms.Var, subst.Subst,
                checker.TypeChecker, harness.GenConfig, surface.DefReport)
]
del checker, harness, levels, node, subst, surface, terms, ulevels
for name in [n for n in sys.modules if n == "ulevels" or n.startswith("ulevels.")]:
    del sys.modules[name]
import ulevels.cli, ulevels.harness
gc.collect()
print([ref() for ref in old])
"""


def test_a_dropped_package_is_collected_when_imported_again():
    # Nothing outside the package, such as a cache of typing's, may keep
    # its old classes, and through their methods its old modules, alive.
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-c", REIMPORT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, f"{[None] * 7}\n", "")


def test_positional_and_keyword_class_patterns_match():
    match Pi(Univ(Lvl(Finite(1))), Var(0)):
        case Lam(_, _):
            pytest.fail("matched the wrong class")
        case Pi(Univ(Lvl(Finite(n))), Var(ix=ix)):
            assert (n, ix) == (1, 0)
        case _:
            pytest.fail("no pattern matched")


# ---------------------------------------------------------------------------
# The binder table: every traversal reads the binding structure from BINDS.


def test_binds_covers_every_term_class():
    classes = typing.get_args(Term)
    assert set(BINDS) == set(classes)
    for cls in classes:
        hints = typing.get_type_hints(cls.__new__)
        subterm_fields = [name for name in cls.__match_args__ if hints[name] == Term]
        assert len(BINDS[cls]) == len(subterm_fields), cls
        # Subterm fields come first, so they are read by tuple index.
        assert list(cls.__match_args__[: len(subterm_fields)]) == subterm_fields


@pytest.mark.parametrize("t", ONE_OF_EACH, ids=_name)
def test_children_are_the_subterm_fields(t):
    assert children(t) == tuple(x for x in t if type(x) in BINDS)


TRAVERSALS = {
    "term_size": term_size,
    "shift": lambda t: shift(t, 1),
    "apply": lambda t: apply(Subst((Mty(),), 0), t),
    "subst1": lambda t: subst1(t, Mty()),
    "strengthen": strengthen,
    "complete_development": complete_development,
    "par_reducts": par_reducts,
    "par_step_check": lambda t: par_step_check(t, t),
}


@pytest.mark.parametrize(
    "run", [children, *TRAVERSALS.values()], ids=["children", *TRAVERSALS]
)
@pytest.mark.parametrize(
    "value", [None, parse("def e : Bot := Bot").defs[0].body], ids=["None", "surface"]
)
def test_traversals_reject_non_terms(run, value):
    with pytest.raises(TypeError):
        run(value)


@pytest.mark.parametrize("run", TRAVERSALS.values(), ids=TRAVERSALS)
def test_traversals_take_one_frame_per_level(run):
    # Recursing through a comprehension, a generator expression or
    # ``any`` costs a second frame per level and fails at this depth.
    depth = sys.getrecursionlimit() - 100
    towers = [Var(0), Var(0), Lvl(Finite(0))]
    for _ in range(depth):
        towers = [Lam(Mty(), towers[0]), Pi(Mty(), towers[1]), Univ(towers[2])]
    for t in towers:
        run(t)
