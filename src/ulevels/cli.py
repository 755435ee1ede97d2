"""Command line interface.

Exit codes: 0 success, 1 check or property failure (or standard output
closed before everything was written), 2 usage or parse error, 3 fuel
(or the recursion limit, on deeply nested input) exhausted before an
answer.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

from .checker import Verdict, check, derivation_to_doc
from .harness import GenConfig, SUITES, run_suite
from .levels import DOMAINS, LevelSyntaxError
from .reduction import EvalOutcome, cbn_eval, pars
from .surface import (
    SurfaceError,
    check_module,
    format_report,
    module_settings,
    parse,
    pretty,
    resolve_defs,
)

__all__ = ["build_parser", "run_cli", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_FUEL = 3


def _exit_code(failed: int, undecided: int) -> int:
    """1 if anything failed, else 3 if anything is undecided, else 0."""
    if failed:
        return EXIT_CHECK_FAILED
    return EXIT_FUEL if undecided else EXIT_OK


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulevels",
        description="Type checker and evaluator for a small dependent "
        "type theory with bounded first-class universe levels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_name: bool = False) -> None:
        p.add_argument("file", help="a .ttbfl source file")
        if with_name:
            p.add_argument(
                "name",
                nargs="?",
                default=None,
                help="definition to target (default: the last one)",
            )
        p.add_argument(
            "--domain",
            choices=sorted(DOMAINS),
            default=None,
            help="level domain (overrides the file's #domain pragma)",
        )
        p.add_argument(
            "--fuel",
            type=non_negative_int,
            default=None,
            help="step budget (overrides the file's #fuel pragma)",
        )

    p_check = sub.add_parser("check", help="type-check every definition")
    common(p_check)

    p_eval = sub.add_parser("eval", help="run a definition call-by-name")
    common(p_eval, with_name=True)

    p_reduce = sub.add_parser("reduce", help="normalize a definition")
    common(p_reduce, with_name=True)

    p_derive = sub.add_parser(
        "derive", help="emit a definition's typing derivation as JSON"
    )
    common(p_derive, with_name=True)
    p_derive.add_argument("--out", default=None, help="write JSON here instead of stdout")

    gen = GenConfig()
    p_fuzz = sub.add_parser("fuzz", help="run a randomized property suite")
    p_fuzz.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_fuzz.add_argument("--cases", type=non_negative_int, default=gen.cases)
    p_fuzz.add_argument("--seed", type=int, default=gen.seed)
    p_fuzz.add_argument("--max-size", type=non_negative_int, default=gen.max_size)
    p_fuzz.add_argument("--raw-size", type=non_negative_int, default=gen.raw_size)
    p_fuzz.add_argument("--domain", choices=sorted(DOMAINS), default=gen.domain_name)
    p_fuzz.add_argument("--fuel", type=non_negative_int, default=gen.fuel)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run_cli`` uses: built on first use, then shared,
    since parsing arguments does not change it."""
    return build_parser()


def _load(path: str):
    with open(path, encoding="utf-8") as f:
        try:
            source = f.read()
        except UnicodeDecodeError as e:
            raise SurfaceError(f"{path}: not valid UTF-8 (byte {e.start})") from None
    return parse(source)


def _target_def(module, args, domain):
    triples = resolve_defs(module, domain)
    if not triples:
        raise SurfaceError("the file has no definitions")
    if args.name is None:
        return triples[-1]
    for triple in triples:
        if triple[0].name == args.name:
            return triple
    raise SurfaceError(f"no definition named {args.name!r}")


def _cmd_check(args) -> int:
    module = _load(args.file)
    report = check_module(module, args.domain, args.fuel)
    sys.stdout.write(format_report(report))
    return _exit_code(report.failed, report.undecided_count)


def _checked_target(args):
    """The target definition, its body, its check result, the domain,
    the fuel and an exit code; a verdict other than accepted is reported
    and gives a nonzero code."""
    module = _load(args.file)
    domain, fuel = module_settings(module, args.domain, args.fuel)
    d, ty, body = _target_def(module, args, domain)
    res = check((), body, ty, domain, fuel)
    code = EXIT_OK
    if res.verdict is Verdict.REJECTED:
        print(f"error: {d.name} does not check: {res.message}", file=sys.stderr)
        code = EXIT_CHECK_FAILED
    elif res.verdict is Verdict.UNDECIDED:
        print(f"error: {d.name}: {res.message}", file=sys.stderr)
        code = EXIT_FUEL
    return d, body, res, domain, fuel, code


def _cmd_eval(args) -> int:
    d, body, _res, _domain, fuel, code = _checked_target(args)
    if code != EXIT_OK:
        return code
    value, outcome = cbn_eval(body, fuel)
    print(pretty(value))
    if outcome is EvalOutcome.OUT_OF_FUEL:
        print("error: fuel exhausted before a value", file=sys.stderr)
        return EXIT_FUEL
    if outcome is EvalOutcome.STUCK:
        print(f"error: {d.name} got stuck", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_reduce(args) -> int:
    _d, body, _res, _domain, fuel, code = _checked_target(args)
    if code != EXIT_OK:
        return code
    normal, done = pars(body, fuel)
    print(pretty(normal))
    if not done:
        print("error: fuel exhausted before a normal form", file=sys.stderr)
        return EXIT_FUEL
    return EXIT_OK


def _cmd_derive(args) -> int:
    _d, _body, res, domain, _fuel, code = _checked_target(args)
    if code != EXIT_OK:
        return code
    doc = derivation_to_doc(res.derivation, domain)
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    if args.out:
        # Written over in place, not truncated to zero first: ext4 starts a
        # writeback when a file truncated to zero is closed (auto_da_alloc).
        # Only a regular file can be cut to the document's length; /dev/null
        # and FIFOs reject the truncate.
        with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            f.write(f"{text}\n".encode("utf-8"))
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    else:
        print(text)
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    cfg = GenConfig(
        seed=args.seed,
        cases=args.cases,
        max_size=args.max_size,
        raw_size=args.raw_size,
        domain_name=args.domain,
        fuel=args.fuel,
    )
    report = run_suite(args.suite, cfg)
    print(report.summary())
    return _exit_code(len(report.failures), len(report.inconclusive))


_COMMANDS = {
    "check": _cmd_check,
    "eval": _cmd_eval,
    "reduce": _cmd_reduce,
    "derive": _cmd_derive,
    "fuzz": _cmd_fuzz,
}


def run_cli(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of standard output stopped early (``| head``); no one
        # is left to tell, and Python's own exit status for it is 1.
        return EXIT_CHECK_FAILED
    except (SurfaceError, LevelSyntaxError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # Nesting that parsing and checking let through but a later
        # recursive pass (resolution, printing, normalization, JSON
        # emission) cannot follow.
        print("error: resource limit: input nested too deeply", file=sys.stderr)
        return EXIT_FUEL


def main(argv: list[str] | None = None) -> int:
    code = run_cli(argv)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Output still buffered for a closed pipe would fail again in the
        # flush at exit and print a traceback; send it to devnull instead.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code
