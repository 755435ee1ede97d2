"""Command line behavior: subcommands, output, and exit codes."""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ulevels import cli
from ulevels.checker import check_derivation, derivation_from_doc, derivation_to_doc
from ulevels.cli import build_parser, run_cli
from ulevels.reduction import EvalOutcome
from ulevels.surface import module_settings, parse, resolve_defs

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

GOOD = """\
def Small : U 1 := U 0
def arrow : U 2 := U 1 -> U 1
"""

BAD = """\
def fine : U 1 := U 0
def wrong : U 0 := U 0
"""

EXPECTED_FAIL = """\
#fail
def wrong : U 0 := U 0
"""

DEMO = """\
def levelId : Level< omega -> Level< omega := fun (k : Level< omega) . k
def three : Level< omega := levelId 3
"""


def write(tmp_path, text, name="input.ttbfl"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# check


def test_check_ok(tmp_path, capsys):
    code = run_cli(["check", write(tmp_path, GOOD)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "ok Small : U 1\n"
        "ok arrow : U 2\n"
        "checked 2 definitions: 2 ok, 0 failed, 0 undecided\n"
    )


def test_check_failure_exit_code(tmp_path, capsys):
    code = run_cli(["check", write(tmp_path, BAD)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL wrong" in out


def test_check_expected_failure_is_ok(tmp_path):
    assert run_cli(["check", write(tmp_path, EXPECTED_FAIL)]) == 0


def test_check_parse_error_is_usage_error(tmp_path, capsys):
    code = run_cli(["check", write(tmp_path, "def broken : := U 0\n")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_check_missing_file_is_usage_error(tmp_path, capsys):
    code = run_cli(["check", str(tmp_path / "absent.ttbfl")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_check_nat_omega_domain_pragma(tmp_path, capsys):
    source = "#domain nat-omega\ndef a : U 1 := U 0\ndef b : Level< omega := 3\n"
    code = run_cli(["check", write(tmp_path, source)])
    assert capsys.readouterr().out.startswith("ok a : U 1\nok b : Level< omega\n")
    assert code == 0


def test_check_dangling_fail_is_usage_error(tmp_path, capsys):
    code = run_cli(["check", write(tmp_path, "def a : U 0 := Bot\n#fail\n")])
    assert code == 2
    assert "error: line 2: #fail is not followed by a definition" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "source, message",
    [
        ("#fuel omega\ndef a : U 1 := U 0\n", "line 1: fuel must be a number"),
        ("foo\n", "line 1: expected a pragma or definition, found 'foo'"),
    ],
)
def test_check_malformed_line_is_usage_error(tmp_path, capsys, source, message):
    code = run_cli(["check", write(tmp_path, source)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["check", "eval", "reduce", "derive"])
def test_invalid_utf8_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "input.ttbfl"
    path.write_bytes(b"def a : U 1 := U 0\n-- \xff\n")
    code = run_cli([command, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "not valid UTF-8 (byte 22)" in err


def test_check_domain_flag_overrides_pragma(tmp_path, capsys):
    path = write(tmp_path, "def lifted : U omega := U 3\n")
    assert run_cli(["check", path]) == 0
    capsys.readouterr()
    code = run_cli(["check", path, "--domain", "nat"])
    assert code == 2
    assert "omega" in capsys.readouterr().err


def test_every_command_resolves_names_alike(tmp_path, capsys):
    # A rejected definition is still inlined into later ones, by every
    # command: X is judged on its own, as derive and eval judge it.
    path = write(tmp_path, "def Y : U 0 := U 5\ndef X : U 6 := Y\n")
    assert run_cli(["check", path]) == 1
    assert capsys.readouterr().out == (
        "FAIL Y : level bound fails: 5 is not below 0\n"
        "ok X : U 6\n"
        "checked 2 definitions: 1 ok, 1 failed, 0 undecided\n"
    )
    assert run_cli(["derive", path, "X"]) == 0
    node, domain = derivation_from_doc(json.loads(capsys.readouterr().out))
    assert check_derivation(node, domain).ok
    assert run_cli(["eval", path, "X"]) == 0
    assert capsys.readouterr().out == "U 5\n"
    assert run_cli(["derive", path, "Y"]) == 1
    assert "error: Y does not check" in capsys.readouterr().err


def test_check_undecided_exit_code(tmp_path, capsys):
    path = write(
        tmp_path,
        "def slow : (fun (A : U 2) . A) (U 1) := U 0\n",
    )
    code = run_cli(["check", path, "--fuel", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "undecided slow" in out


# ---------------------------------------------------------------------------
# eval / reduce


def test_eval_targets_named_definition(tmp_path, capsys):
    code = run_cli(["eval", write(tmp_path, DEMO), "three"])
    assert code == 0
    assert capsys.readouterr().out == "3\n"


def test_eval_defaults_to_last_definition(tmp_path, capsys):
    code = run_cli(["eval", write(tmp_path, DEMO)])
    assert code == 0
    assert capsys.readouterr().out == "3\n"


def test_eval_unknown_name_is_usage_error(tmp_path, capsys):
    code = run_cli(["eval", write(tmp_path, DEMO), "missing"])
    assert code == 2
    assert "no definition named" in capsys.readouterr().err


def test_eval_without_definitions_is_usage_error(tmp_path, capsys):
    code = run_cli(["eval", write(tmp_path, "-- only a comment\n")])
    assert code == 2
    assert capsys.readouterr().err == "error: the file has no definitions\n"


def test_reduce_normalizes_under_binders(tmp_path, capsys):
    path = write(
        tmp_path,
        "def wrap : Level< 9 -> Level< 9 :=\n"
        "  fun (k : Level< 9) . (fun (j : Level< 9) . j) k\n",
    )
    code = run_cli(["reduce", path])
    assert code == 0
    assert capsys.readouterr().out == "fun (x : Level< 9) . x\n"


def test_reduce_fuel_exhaustion(tmp_path, capsys):
    code = run_cli(["reduce", write(tmp_path, DEMO), "three", "--fuel", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert "fuel exhausted" in captured.err


NESTED_IDS = (
    "def idU : U 1 -> U 1 := fun (x : U 1) . x\n"
    "def twice : U 1 := idU (idU (U 0))\n"
)


def test_eval_fuel_exhaustion(tmp_path, capsys):
    # Checking needs no reduction, so ``twice`` checks at fuel 1; its
    # call-by-name evaluation needs two beta steps.
    path = write(tmp_path, NESTED_IDS)
    assert run_cli(["check", path, "--fuel", "1"]) == 0
    capsys.readouterr()
    assert run_cli(["eval", path, "twice", "--fuel", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "(fun (x : U 1) . x) (U 0)\n"
    assert captured.err == "error: fuel exhausted before a value\n"
    assert run_cli(["eval", path, "twice", "--fuel", "2"]) == 0
    assert capsys.readouterr().out == "U 0\n"


def test_eval_reports_a_stuck_term(tmp_path, capsys, monkeypatch):
    # Progress: no closed well-typed term gets stuck, so the exit code
    # is pinned with an evaluator that says it did.
    monkeypatch.setattr(cli, "cbn_eval", lambda body, fuel: (body, EvalOutcome.STUCK))
    assert run_cli(["eval", write(tmp_path, NESTED_IDS), "twice"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "(fun (x : U 1) . x) ((fun (x : U 1) . x) (U 0))\n"
    assert captured.err == "error: twice got stuck\n"


def test_eval_rejects_ill_typed_target(tmp_path, capsys):
    code = run_cli(["eval", write(tmp_path, BAD), "wrong"])
    assert code == 1
    assert "does not check" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# derive


def test_derive_emits_valid_json_derivation(tmp_path, capsys):
    code = run_cli(["derive", write(tmp_path, GOOD), "Small"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    node, domain = derivation_from_doc(doc)
    assert check_derivation(node, domain).ok


def test_derive_to_file(tmp_path):
    out_path = tmp_path / "derivation.json"
    code = run_cli(
        ["derive", write(tmp_path, GOOD), "Small", "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["domain"] == "nat-omega"


def test_derive_over_a_longer_file_leaves_the_fresh_bytes(tmp_path):
    source = write(tmp_path, GOOD)
    fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
    old.write_bytes(random.Random(0).randbytes(100_000))
    assert run_cli(["derive", source, "Small", "--out", str(fresh)]) == 0
    assert run_cli(["derive", source, "Small", "--out", str(old)]) == 0
    assert old.read_bytes() == fresh.read_bytes()


def test_derive_through_a_symlink_rewrites_its_target(tmp_path):
    source = write(tmp_path, GOOD)
    fresh, target, link = (tmp_path / n for n in ("fresh.json", "target.json", "link.json"))
    target.write_bytes(b"x" * 10_000)
    target.chmod(0o640)
    link.symlink_to(target)
    assert run_cli(["derive", source, "Small", "--out", str(fresh)]) == 0
    assert run_cli(["derive", source, "Small", "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == fresh.read_bytes()
    assert target.stat().st_mode & 0o777 == 0o640


def test_derive_to_dev_null(tmp_path):
    assert run_cli(["derive", write(tmp_path, GOOD), "Small", "--out", os.devnull]) == 0


def test_derive_to_a_directory_is_usage_error(tmp_path, capsys):
    assert run_cli(["derive", write(tmp_path, GOOD), "Small", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [Errno {errno.EISDIR}] Is a directory: ")
    assert "Traceback" not in err


def test_derive_corpus_writes_each_shared_node_once(tmp_path):
    sizes = {}
    digest = hashlib.sha256()
    for path in sorted(CORPUS.glob("*.ttbfl")):
        module = parse(path.read_text(encoding="utf-8"))
        domain, fuel = module_settings(module)
        for d, ty, body in resolve_defs(module, domain):
            if d.expect_fail:
                continue
            out = tmp_path / f"{path.stem}.{d.name}.json"
            assert run_cli(["derive", str(path), d.name, "--out", str(out)]) == 0
            data = out.read_bytes()
            sizes[d.name] = len(data)
            digest.update(data)
            node, doc_domain = derivation_from_doc(json.loads(data))
            assert doc_domain is domain
            assert check_derivation(node, domain, fuel).ok, d.name
            assert (node.ctx, node.term, node.ty) == ((), body, ty), d.name
    assert len(sizes) == 25
    # The unfolded tree of this one-line definition took 843,644 bytes.
    assert sizes["someType"] < 32_000
    # The documents in file and definition order; a change to what the
    # checker derives for the corpus shows here.
    assert sum(sizes.values()) == 31_292
    assert digest.hexdigest() == (
        "937ca0a37c2532a1875c68ab6631d7fb865a5f08291d96553200b7840c59d7e1"
    )


def level_chain(n: int) -> str:
    """``def deep : Pi (x0 : Level< omega) (x1 : Level< x0) … . Level< omega
    := fun … . x(n-1)``, whose derivation nests nodes 6n + 1 deep."""
    binders = " ".join(
        f"(x{i} : Level< {f'x{i - 1}' if i else 'omega'})" for i in range(n)
    )
    return f"def deep : Pi {binders} . Level< omega := fun {binders} . x{n - 1}\n"


def test_derive_writes_what_check_accepts_up_to_the_loader_bound(tmp_path, capsys):
    # The loader bounds terms only, and a chain's terms nest about n deep,
    # so derive writes every chain check accepts, its nodes 6n + 1 deep:
    # 901, 1,003 and 1,801 levels, past the recursion limit of 1,000.
    for n in (150, 167, 300):
        path = write(tmp_path, level_chain(n), f"chain{n}.ttbfl")
        out = tmp_path / f"chain{n}.json"
        assert run_cli(["check", path]) == 0, n
        assert run_cli(["derive", path, "--out", str(out)]) == 0, n
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert derivation_to_doc(*derivation_from_doc(doc)) == doc, n
    # 600 variables are too deep for the checker: both commands say so.
    capsys.readouterr()
    path = write(tmp_path, level_chain(600), "chain600.ttbfl")
    out = tmp_path / "chain600.json"
    for argv in (["check", path], ["derive", path, "--out", str(out)]):
        assert run_cli(argv) == 3
        said = "".join(capsys.readouterr())
        assert "resource limit" in said and "Traceback" not in said
    assert not out.exists()


def test_derive_rejected_definition(tmp_path, capsys):
    code = run_cli(["derive", write(tmp_path, BAD), "wrong"])
    assert code == 1
    assert "does not check" in capsys.readouterr().err


def test_derive_undecided_definition_exits_3(tmp_path, capsys):
    source = "def x : (fun (A : U 2) . A) (U 1) := U 0\n"
    code = run_cli(["derive", write(tmp_path, source), "--fuel", "0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (
        "error: x: head normalization ran out of fuel on (fun (x : U 2) . x) (U 1)\n"
    )


# ---------------------------------------------------------------------------
# fuzz


def test_fuzz_runs_a_small_suite(capsys):
    code = run_cli(
        ["fuzz", "--suite", "diamond", "--cases", "40", "--seed", "9"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "suite=diamond cases=40 failures=0" in out


def test_fuzz_requires_known_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["fuzz", "--suite", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(CORPUS / "identity.ttbfl"), "--fuel", "-5"],
        ["eval", str(CORPUS / "reduction_demo.ttbfl"), "--fuel", "-1"],
        ["reduce", str(CORPUS / "reduction_demo.ttbfl"), "--fuel", "-1"],
        ["derive", str(CORPUS / "identity.ttbfl"), "--fuel", "-1"],
        ["fuzz", "--suite", "diamond", "--fuel", "-1"],
        ["fuzz", "--suite", "diamond", "--cases", "-3"],
        ["fuzz", "--suite", "progress", "--cases", "5", "--max-size", "-3"],
        ["fuzz", "--suite", "diamond", "--cases", "5", "--raw-size", "-3"],
    ],
)
def test_negative_budget_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err


def test_fuzz_coverage_gate_is_undecided_at_low_fuel(capsys):
    code = run_cli(["fuzz", "--suite", "coverage", "--cases", "50", "--fuel", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "UNDECIDED rule Conv" in out
    assert "FAIL" not in out


def test_fuzz_coverage_gate_is_undecided_on_an_empty_sample(capsys):
    code = run_cli(["fuzz", "--suite", "coverage", "--cases", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "UNDECIDED rule Conv" in out
    assert "no case was generated" in out
    assert "FAIL" not in out


def test_fuzz_coverage_gate_fails_without_fuel_exhaustion(capsys):
    code = run_cli(["fuzz", "--suite", "coverage", "--cases", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "undecided=0" in out
    assert "FAIL rule Conv" in out


# ---------------------------------------------------------------------------
# one process, many calls; hostile input


def test_repeated_calls_share_no_state(tmp_path, capsys):
    assert build_parser() is not build_parser()
    path = write(tmp_path, "#domain nat\ndef lifted : U omega := U 3\n")
    assert run_cli(["check", "--domain", "nat-omega", path]) == 0
    assert capsys.readouterr().out.startswith("ok lifted : U omega\n")
    assert run_cli(["check", path]) == 2
    assert "omega" in capsys.readouterr().err

    good = write(tmp_path, GOOD, "good.ttbfl")
    out_path = tmp_path / "derivation.json"
    assert run_cli(["derive", good, "Small", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert run_cli(["derive", good, "Small"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(out_path.read_text())

    assert run_cli(["check", good]) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli(["check", good, "--fuel", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(["check", good]) == 0
    assert "checked 2 definitions: 2 ok" in capsys.readouterr().out


AFTER = "def after : U 1 := U 0\n"


@pytest.mark.parametrize(
    "source, checks_after",
    [
        ("def parens : U 1 := " + "(" * 400 + "U 0" + ")" * 400 + "\n", False),
        ("def bounds : U 0 := " + "Level< " * 600 + "0\n", True),
        # Checking a nested argument takes no more stack than parsing
        # it, so the parser is the first to give out.
        (
            "def idt : Bot -> Bot := fun (x : Bot) . x\n"
            "def apps : Bot -> Bot := fun (b : Bot) . "
            + "idt (" * 600 + "b" + ")" * 600 + "\n",
            False,
        ),
        ("def binders : U 1 := " + "Pi (a : U 0) . " * 500 + "a\n", False),
    ],
    ids=["parentheses", "level-bounds", "applications", "binders"],
)
def test_deep_nesting_keeps_the_exit_code_contract(tmp_path, capsys, source, checks_after):
    code = run_cli(["check", write(tmp_path, source + AFTER)])
    captured = capsys.readouterr()
    assert code in (2, 3)
    assert "Traceback" not in captured.err
    if checks_after:
        assert "resource limit" in captured.out
        assert "ok after : U 1" in captured.out
    else:
        assert "nested too deeply" in captured.err


def test_usage_error_without_subcommand():
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2


class _ClosedPipe(io.StringIO):
    """Standard output whose reader has gone (``ulevels ... | head``)."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(CORPUS / "identity.ttbfl")],
        ["fuzz", "--suite", "coverage", "--cases", "5"],
    ],
    ids=["check", "fuzz"],
)
def test_closed_stdout_exits_1_silently(argv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = run_cli(argv)
    assert code == 1
    assert capsys.readouterr().err == ""


def test_main_exits_1_without_traceback_when_the_pipe_closes():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ulevels", "check", str(CORPUS / "identity.ttbfl")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_starting_the_cli_loads_neither_dataclasses_nor_inspect():
    # Together they cost about 12 ms of every cold start; ``-S`` keeps
    # ``site`` from importing anything first.
    env = {**os.environ, "PYTHONPATH": str(CORPUS.parent / "src")}
    code = (
        "import sys, ulevels.cli, ulevels.harness; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def random_expr(rng: random.Random, depth: int, bound: tuple[str, ...] = ()) -> str:
    """Surface text that is mostly well formed but seldom well typed."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(("U 0", "U 1", "Bot", "0", "omega", "a") + bound)
    x = f"x{len(bound)}"

    def sub(scope: tuple[str, ...] = bound) -> str:
        return random_expr(rng, depth - 1, scope)

    shapes = (
        lambda: f"Pi ({x} : {sub()}) . {sub(bound + (x,))}",
        lambda: f"fun ({x} : {sub()}) . {sub(bound + (x,))}",
        lambda: f"({sub()} -> {sub()})",
        lambda: f"({sub()} {sub()})",
        lambda: f"U ({sub()})",
        lambda: f"Level< ({sub()})",
        lambda: f"absurd [{sub()}] ({sub()})",
    )
    return rng.choice(shapes)()


PRAGMAS = ("", "#domain nat\n", "#domain nat-omega\n", "#fuel 3\n", "#fail\n")
TOWERS = (
    "(", "Level< ", "Pi (b : U 0) . ", "fun (x : Bot) . ", "U ", "a (",
    "absurd [Bot] ", "U 0 -> ",
)


def hostile_inputs(count: int, seed: int = 20_251_018):
    """Random bytes; random definitions, some with a byte changed,
    inserted or dropped; and nesting towers."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 4 == 0:
            yield bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
            continue
        source = bytearray(
            f"{rng.choice(PRAGMAS)}def a : U 1 := U 0\n{rng.choice(PRAGMAS)}"
            f"def t : {random_expr(rng, 3)} := {random_expr(rng, 4)}\n".encode()
        )
        if i % 4 == 1:
            at = rng.randrange(len(source))
            match rng.randrange(3):
                case 0:
                    source[at] = rng.randrange(256)
                case 1:
                    source.insert(at, rng.randrange(256))
                case 2:
                    del source[at]
        yield bytes(source)
    for tower in TOWERS:
        for depth in (40, 400, 1500):
            yield f"def a : U 1 := U 0\ndef t : U 2 := {tower * depth}a\n".encode()


@pytest.mark.parametrize("command", ["check", "eval", "reduce", "derive"])
def test_hostile_input_keeps_the_exit_code_contract(tmp_path, capsys, command):
    path = tmp_path / "input.ttbfl"
    seen = set()
    for source in hostile_inputs(240):
        path.write_bytes(source)
        code = run_cli([command, str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), source
        assert "Traceback" not in err, source
        seen.add(code)
    assert {0, 1, 2, 3} <= seen
