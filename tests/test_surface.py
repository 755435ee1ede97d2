"""Surface syntax: lexing, parsing, resolution, printing, module checks."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from ulevels.checker import Verdict, check
from ulevels.levels import NAT, NAT_OMEGA, Finite, OmegaPlus
from ulevels.surface import (
    DefReport,
    Module,
    ModuleReport,
    SurfaceError,
    check_module,
    format_report,
    lex,
    module_settings,
    parse,
    pretty,
    resolve,
)
from ulevels.terms import (
    Absurd,
    App,
    Lam,
    LevelLt,
    Lvl,
    Mty,
    Pi,
    Univ,
    Var,
)

import lex_oracle
from gen import terms

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def body_tree(source: str) -> tuple:
    """The surface tree of ``source`` as the body of a one-definition
    module."""
    return parse(f"def e : Bot := {source}").defs[0].body


def rt(source: str, domain=NAT_OMEGA):
    return resolve(body_tree(source), (), {}, domain)


# ---------------------------------------------------------------------------
# Lexing


def test_lex_skips_comments_and_tracks_lines():
    toks = lex("-- intro\ndef x : U 0 := Bot\n")
    kinds = [t.kind for t in toks]
    assert kinds == ["kw", "ident", "colon", "kw", "level", "coloneq", "kw", "eof"]
    assert toks[0].line == 2


def test_lex_level_literals():
    toks = lex("0 42 omega omega+3 omegaFun")
    assert [(t.kind, t.text) for t in toks[:-1]] == [
        ("level", "0"),
        ("level", "42"),
        ("level", "omega"),
        ("level", "omega+3"),
        ("ident", "omegaFun"),
    ]


def test_lex_rejects_leading_zero_numerals():
    with pytest.raises(SurfaceError):
        lex("007")


def test_lex_rejects_stray_characters():
    with pytest.raises(SurfaceError):
        lex("def a : U 0 := %")


def lex_outcome(lexer, source: str):
    """The tokens ``lexer`` returns, or the message and line of the
    ``SurfaceError`` it raises."""
    try:
        return lexer(source)
    except SurfaceError as e:
        return ("error", str(e), e.line)


def assert_lexes_as_oracle(source: str) -> None:
    assert lex_outcome(lex, source) == lex_outcome(lex_oracle.lex, source), repr(source)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.ttbfl")), ids=lambda p: p.stem)
def test_lex_matches_the_oracle_on_the_corpus(path):
    source = path.read_text(encoding="utf-8")
    assert lex(source) == lex_oracle.lex(source)
    assert_lexes_as_oracle(source.replace("\n", "\r\n"))


@pytest.mark.parametrize(
    "source",
    [
        "",
        "\n",
        "\r\n",
        "def a : U 0 := Bot\r\ndef b : U 0 := Bot\r\n",
        "def\ta\t:\tU 0\t:=\tBot",
        "\t  \t",
        "def a : U 0 := Bot -- no newline at the end",
        "--",
        "-- only a comment",
        "a --> b",
        "a -> b",
        "a - - b",
        "- -",
        "-",
        "->",
        "omega+1",
        "omega+0",
        "omega+",
        "omega+01",
        "omegax omega' omega_ omega1",
        "Level<0 Level< Level",
        "#domain nat-omega #fuel 10 #fail",
        "#dom",
        "007",
        "0 00",
        "%def a",
        "def % a",
        "def a %",
        "def a %   ",
        "ok\n  ok\n\t%",
        "a\rb",
        "a\x0bb",
        "a\xa0b",
        "a\u2028b",
        "λ",
        "\r",
        "x\n\n\ny",
    ],
)
def test_lex_matches_the_oracle_on_edge_cases(source):
    assert_lexes_as_oracle(source)


_SOUP = (
    "def", "Pi", "fun", "Bot", "absurd", "U", "Level<", "Level", "<",
    "omega", "omega+", "omega+3", "0", "07", "42", "x", "x'", "_y", "defx",
    ":", ":=", "=", "->", "-", "--", "-->", ".", "(", ")", "[", "]", "#",
    "#fuel", "#domain", "#fail", "+", "%", "λ", "\x0b", " ", "  ", "\t",
    "\r", "\n", "\r\n", "-- note", "\u2028",
)


def test_lex_matches_the_oracle_on_token_soup():
    for seed in range(400):
        rng = random.Random(f"lex-soup/{seed}")
        source = "".join(rng.choice(_SOUP) for _ in range(rng.randrange(1, 40)))
        assert_lexes_as_oracle(source)


# ---------------------------------------------------------------------------
# Expressions: parse + resolve


def test_resolve_nested_pi_with_arrow():
    t = rt("Pi (x : Level< omega) . Pi (y : U x) . y -> y")
    assert t == Pi(
        LevelLt(Lvl(OmegaPlus(0))),
        Pi(Univ(Var(0)), Pi(Var(0), Var(1))),
    )


def test_arrow_is_right_associative():
    t = rt("U 0 -> U 1 -> U 2")
    assert t == Pi(
        Univ(Lvl(Finite(0))),
        Pi(Univ(Lvl(Finite(1))), Univ(Lvl(Finite(2)))),
    )


def test_application_is_left_associative():
    t = rt("fun (f : U 0) . fun (a : U 0) . fun (b : U 0) . f a b")
    body = t.body.body.body
    assert body == App(App(Var(2), Var(1)), Var(0))


def test_absurd_annotation_brackets():
    t = rt("fun (x : Bot) . absurd [Level< 0] x")
    assert t == Lam(Mty(), Absurd(LevelLt(Lvl(Finite(0))), Var(0)))


def test_shadowing_picks_innermost_binder():
    t = rt("fun (x : U 0) . fun (x : U 1) . x")
    assert t == Lam(Univ(Lvl(Finite(0))), Lam(Univ(Lvl(Finite(1))), Var(0)))


def test_multi_binder_groups_desugar():
    a = rt("Pi (x : Level< 3) (y : Level< x) . Level< omega")
    b = rt("Pi (x : Level< 3) . Pi (y : Level< x) . Level< omega")
    assert a == b


def test_level_literal_outside_domain_is_a_surface_error():
    with pytest.raises(SurfaceError):
        rt("U omega", domain=NAT)


def test_unknown_identifier():
    with pytest.raises(SurfaceError, match="unknown identifier"):
        rt("fun (x : U 0) . missing")


def test_resolve_rejects_a_malformed_tree():
    with pytest.raises(SurfaceError, match="malformed surface tree: \\('bogus',\\)"):
        resolve(("bogus",))


def test_binderless_pi_rejected():
    with pytest.raises(SurfaceError):
        body_tree("Pi . U 0")


def test_unbalanced_parens_rejected():
    with pytest.raises(SurfaceError):
        body_tree("(U 0")


# ---------------------------------------------------------------------------
# Modules and pragmas


def test_parse_module_pragmas_and_fail_marker():
    mod = parse(
        """
        #domain nat
        #fuel 50
        def a : U 1 := U 0
        #fail
        def b : U 0 := U 0
        """
    )
    assert mod.domain_name == "nat"
    assert mod.fuel == 50
    assert [d.name for d in mod.defs] == ["a", "b"]
    assert [d.expect_fail for d in mod.defs] == [False, True]


def test_parse_nat_omega_domain_pragma():
    assert parse("#domain nat-omega\n").domain_name == "nat-omega"


def test_dangling_fail_marker_rejected():
    with pytest.raises(SurfaceError, match="line 2: #fail is not followed"):
        parse("def a : U 0 := Bot\n#fail\n")


def test_duplicate_definition_rejected():
    with pytest.raises(SurfaceError, match="duplicate"):
        parse("def a : U 1 := U 0\ndef a : U 1 := U 0\n")


@pytest.mark.parametrize(
    "source, message",
    [
        ("#domain nat\ndef a : U 1 := U 0\n#domain nat-omega\n"
         "def b : Level< omega := 3\n", "line 3: duplicate #domain pragma"),
        ("#fuel 5\n#domain nat\n#fuel 50\n", "line 3: duplicate #fuel pragma"),
    ],
)
def test_repeated_pragma_rejected(source, message):
    with pytest.raises(SurfaceError, match=message):
        parse(source)


def test_definitions_are_transparent():
    mod = parse(
        """
        def Small : U 1 := U 0
        def again : U 1 := Small
        """
    )
    report = check_module(mod)
    assert report.ok
    assert [e.name for e in report.entries] == ["Small", "again"]


def test_failed_definitions_are_not_usable_later():
    mod = parse(
        """
        #fail
        def broken : U 0 := U 0
        def uses : U 1 := broken
        """
    )
    with pytest.raises(SurfaceError, match="unknown identifier"):
        check_module(mod)



# Rejected and #fail definitions between accepted ones that inline
# earlier definitions.
MIXED_SOURCE = """\
def Small : U 1 := U 0
def wrong : U 0 := U 0
def idS : Small -> Small := fun (x : Small) . x
#fail
def tooBig : Level< 2 := 5
def badArg : U 1 := idS Small
def twice : Small -> Small := fun (y : Small) . idS (idS y)
#fail
def notAType : U 0 := idS
def lifted : U 2 := Small -> Small
"""


def fresh_checks(module):
    """(name, verdict, message) of a fresh module-level check per
    definition, inlining accepted definitions as check_module does."""
    domain, fuel = module_settings(module)
    defs, out = {}, []
    for d in module.defs:
        ty = resolve(d.ty, (), defs, domain)
        body = resolve(d.body, (), defs, domain)
        res = check((), body, ty, domain, fuel)
        out.append((d.name, res.verdict, res.message))
        if res and not d.expect_fail:
            defs[d.name] = body
    return out


@pytest.mark.parametrize(
    "source",
    [MIXED_SOURCE] + [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.ttbfl"))],
)
def test_shared_module_checker_agrees_with_fresh_checks(source):
    module = parse(source)
    report = check_module(module)
    got = [(e.name, e.verdict, e.message) for e in report.entries]
    assert got == fresh_checks(module)


def test_mixed_module_has_every_verdict_between_accepted_definitions():
    report = check_module(parse(MIXED_SOURCE))
    assert [(e.name, e.passed) for e in report.entries] == [
        ("Small", True),
        ("wrong", False),
        ("idS", True),
        ("tooBig", True),
        ("badArg", False),
        ("twice", True),
        ("notAType", True),
        ("lifted", True),
    ]


def test_explicit_arguments_override_pragmas():
    mod = parse("#domain nat\ndef a : U 1 := U 0\n")
    report = check_module(mod, domain_name="nat-omega", fuel=123)
    assert report.domain_name == "nat-omega"
    assert report.fuel == 123


# ---------------------------------------------------------------------------
# Pretty printing


def test_pretty_poly_identity_type():
    t = Pi(LevelLt(Lvl(OmegaPlus(0))), Pi(Univ(Var(0)), Pi(Var(0), Var(1))))
    assert pretty(t) == "Pi (x : Level< omega) . Pi (y : U x) . y -> y"


def test_pretty_arrow_and_application_parens():
    t = rt("fun (f : U 2 -> U 0) . fun (x : U 1) . f x")
    assert pretty(t) == "fun (x : U 2 -> U 0) . fun (y : U 1) . x y"


def test_pretty_parenthesizes_arrow_domains():
    t = rt("(U 0 -> U 0) -> U 1")
    assert pretty(t) == "(U 0 -> U 0) -> U 1"


def test_pretty_level_literals():
    assert pretty(Lvl(OmegaPlus(4))) == "omega+4"
    assert pretty(Lvl(Finite(0))) == "0"


def test_pretty_rejects_a_non_term():
    # A surface tree is not a term; None alone prints, as ``-``.
    with pytest.raises(TypeError, match="Unexpected term in pretty"):
        pretty(body_tree("Bot"))


@settings(max_examples=300, deadline=None)
@given(terms(free=0))
def test_pretty_parse_resolve_round_trip(t):
    assert rt(pretty(t)) == t


# ---------------------------------------------------------------------------
# Module reports


IDENTITY_SOURCE = """\
-- Identity functions across universe levels.
def Id : U omega := Pi (k : Level< omega) (A : U k) . A -> A
def idFun : Id := fun (k : Level< omega) (A : U k) (a : A) . a
def idAtOne : Pi (A : U 1) . A -> A := idFun 1
"""


def test_identity_module_report_text():
    report = check_module(parse(IDENTITY_SOURCE))
    assert format_report(report) == (
        "ok Id : U omega\n"
        "ok idFun : Pi (x : Level< omega) . Pi (y : U x) . y -> y\n"
        "ok idAtOne : Pi (x : U 1) . x -> x\n"
        "checked 3 definitions: 3 ok, 0 failed, 0 undecided\n"
    )
    assert (report.failed, report.undecided_count) == (0, 0)


def test_report_flags_unexpected_acceptance_and_rejection():
    report = check_module(
        parse(
            """
            #fail
            def fine : U 1 := U 0
            def wrong : U 0 := U 0
            """
        )
    )
    text = format_report(report)
    assert "FAIL fine : unexpectedly accepted" in text
    assert "FAIL wrong :" in text
    assert (report.failed, report.undecided_count) == (2, 0)


def test_report_expected_failure_passes():
    report = check_module(parse("#fail\ndef wrong : U 0 := U 0\n"))
    assert format_report(report) == (
        "ok wrong : fails as expected\n"
        "checked 1 definitions: 1 ok, 0 failed, 0 undecided\n"
    )
    assert (report.failed, report.undecided_count) == (0, 0)


def test_format_report_has_one_line_per_expectation_and_verdict():
    entries = (
        DefReport("acc", Verdict.ACCEPTED, False, "Level< 3"),
        DefReport("rej", Verdict.REJECTED, False, "Level< 3", "type mismatch"),
        DefReport("und", Verdict.UNDECIDED, False, "Level< 3", "out of fuel"),
        DefReport("failAcc", Verdict.ACCEPTED, True, "U 0"),
        DefReport("failRej", Verdict.REJECTED, True, "U 0", "level bound fails"),
        DefReport("failUnd", Verdict.UNDECIDED, True, "U 0", "out of fuel"),
    )
    report = ModuleReport("nat-omega", 10_000, entries)
    assert format_report(report) == (
        "ok acc : Level< 3\n"
        "FAIL rej : type mismatch\n"
        "undecided und : out of fuel\n"
        "FAIL failAcc : unexpectedly accepted\n"
        "ok failRej : fails as expected\n"
        "undecided failUnd : out of fuel\n"
        "checked 6 definitions: 2 ok, 2 failed, 2 undecided\n"
    )
    assert [e.passed for e in entries] == [True, False, False, False, True, False]
    assert (report.failed, report.undecided_count) == (2, 2)
