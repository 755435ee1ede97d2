"""Spans and counters for the benchmark's traced run.

The traced run wraps the public functions of each ``ulevels`` module
from outside the package. A function is replaced under its name in
every module that refers to it, because ``checker``, ``harness``,
``surface`` and ``cli`` import what they call by name. Nothing inside
the package changes.

A span records name, start, end and parent. Spans are opened at layer
boundaries and around the functions whose time is reported; a call
that re-enters its own group (a recursive call, or any call made from
inside ``subst``) runs unwrapped, so spans and counts cover the
outermost call only. Count-only wrappers (``TypeChecker.check``,
``TypeChecker.infer``, ``LevelOrder``, ``LevelDomain.lt``) count every
call. Spans stay in memory, in flat arrays, until the run ends.

A layer's self time is the time its spans cover minus the time their
child spans cover. Work the tracer does for itself (sizing
derivations and terms) runs inside spans of the ``trace`` layer, so it
is not charged to any layer of the program.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable

TRACE_LAYER = "trace"


def derivation_sizes(root) -> tuple[int, int]:
    """(tree nodes, distinct node objects) of a derivation; shared
    premises count once per occurrence in the first figure and once in
    the second."""
    tree: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in tree:
            continue
        if expanded:
            tree[key] = 1 + sum(tree[id(p)] for p in node.premises)
        else:
            stack.append((node, True))
            stack.extend((p, False) for p in node.premises if id(p) not in tree)
    return tree[id(root)], len(tree)


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._groups: list[str] = []
        self._undo: list[Callable[[], None]] = []

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def span_count(self) -> int:
        return len(self.span_name)

    def spanned(
        self,
        fn: Callable,
        name: str,
        layer: str,
        group: str | None = None,
        count: str | None = None,
        on_result: Callable | None = None,
        on_error: Callable | None = None,
        hook: Callable | None = None,
    ) -> Callable:
        """Wrap ``fn`` in a span. ``group`` (default: ``name``) decides
        re-entry: a call made while the innermost open span has the same
        group runs unwrapped. ``on_result(args, result)`` and
        ``on_error(exc)`` are cheap callbacks; ``hook(args, result)`` is
        tracer work that gets a ``trace`` span of its own."""
        nid = self._name_id(name, layer)
        hook_id = self._name_id(f"{TRACE_LAYER}.hooks", TRACE_LAYER)
        group = group or name
        counts = self.counts
        stack, groups = self._stack, self._groups
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def open_span(nid_: int) -> int:
            idx = len(names)
            names.append(nid_)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            return idx

        def wrapper(*args, **kwargs):
            if groups and groups[-1] == group:
                return fn(*args, **kwargs)
            if count is not None:
                counts[count] += 1
            idx = open_span(nid)
            stack.append(idx)
            groups.append(group)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                groups.pop()
            if on_result is not None:
                on_result(args, result)
            if hook is not None:
                h = open_span(hook_id)
                starts[h] = clock()
                hook(args, result)
                ends[h] = clock()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn: Callable, count: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        original = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_item(self, table: dict, key: str, replacement: object) -> None:
        original = table[key]
        self._undo.append(lambda: table.__setitem__(key, original))
        table[key] = replacement

    def patch_everywhere(self, modules, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` in ``owner`` and in every module that
        imported it by name."""
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                self.patch(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def times(self, lo: int, hi: int) -> tuple[Counter[str], Counter[str]]:
        """(self seconds per layer, inclusive seconds per span name) of
        the spans with index in [lo, hi)."""
        self_s: Counter[str] = Counter()
        incl: Counter[str] = Counter()
        names, layer_of, parents = self.span_name, self.layer_of, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(lo, hi):
            nid = names[i]
            d = ends[i] - starts[i]
            incl[self.names[nid]] += d
            self_s[layer_of[nid]] += d
            p = parents[i]
            if p >= 0:
                self_s[layer_of[names[p]]] -= d
        return self_s, incl


def install(tracer: Tracer, ul) -> None:
    """Wrap the public functions of every ``ulevels`` module.

    ``ul`` is any object with the package's modules as attributes
    ``cli``, ``surface``, ``checker``, ``reduction``, ``subst``,
    ``levels``, ``terms`` and ``harness``.
    """
    modules = [ul.cli, ul.surface, ul.checker, ul.harness, ul.reduction, ul.subst]
    counts = tracer.counts
    term_size = ul.terms.term_size

    def span(owner, attr, name, layer, **kw):
        tracer.patch_everywhere(
            modules, owner, attr, lambda fn: tracer.spanned(fn, name, layer, **kw)
        )

    # cli
    span(ul.cli, "run_cli", "cli.run_cli", "cli")

    # surface
    def tokens(_args, result):
        counts["surface.tokens"] += len(result)

    def defs(_args, result):
        counts["surface.defs"] += len(result.defs)

    span(ul.surface, "lex", "surface.lex", "surface", on_result=tokens)
    span(ul.surface, "parse", "surface.parse", "surface", on_result=defs)
    span(ul.surface, "resolve", "surface.resolve", "surface")
    span(ul.surface, "pretty", "surface.pretty", "surface")
    span(ul.surface, "check_module", "surface.check_module", "surface")
    span(ul.surface, "format_report", "surface.format_report", "surface")

    # checker
    def verdict(_args, result):
        counts[f"checker.{result.verdict.value}"] += 1

    # Derivations rebuilt from JSON are validated but were not emitted by
    # the checker, so they count for the validator only.
    rebuilt: set[int] = set()

    def emitted(tree: int, distinct: int) -> None:
        counts["checker.deriv_tree_nodes"] += tree
        counts["checker.deriv_distinct_nodes"] += distinct

    def serialized(args, _result):
        emitted(*derivation_sizes(args[0]))

    def validated(args, result):
        tree, distinct = derivation_sizes(args[0])
        counts["checker.validate.tree_nodes"] += tree
        if id(args[0]) in rebuilt:
            rebuilt.discard(id(args[0]))
        else:
            emitted(tree, distinct)
        if not result.ok:
            counts["checker.validate.rejects"] += 1

    def loaded(_args, result):
        rebuilt.add(id(result[0]))

    span(ul.checker, "check", "checker.check", "checker", on_result=verdict)
    for attr in ("infer", "infer_with_derivation", "check_context",
                 "level_lt_check", "search_derivation", "elaborate_lam_prime"):
        span(ul.checker, attr, f"checker.{attr}", "checker")
    span(ul.checker, "check_derivation", "checker.validate", "checker",
         count="checker.validate.calls", hook=validated)
    span(ul.checker, "derivation_to_doc", "checker.json.emit", "checker", hook=serialized)
    span(ul.checker, "derivation_from_doc", "checker.json.load", "checker",
         on_result=loaded)
    tc = ul.checker.TypeChecker
    tracer.patch(tc, "check", tracer.counted(tc.check, "checker.check_calls"))
    tracer.patch(tc, "infer", tracer.counted(tc.infer, "checker.infer_calls"))
    order = ul.checker.LevelOrder
    tracer.patch(order, "__init__",
                 tracer.counted(order.__init__, "checker.level_order_builds"))
    domain = ul.levels.LevelDomain
    tracer.patch(domain, "lt", tracer.counted(domain.lt, "levels.lt_calls"))

    # reduction
    def pars_result(args, result):
        if result[0] is args[0]:
            counts["reduction.pars_noops"] += 1

    def conv_result(_args, result):
        counts[f"reduction.convertible_calls.{result.value}"] += 1

    def explosion(exc):
        if isinstance(exc, ul.reduction.ParExplosion):
            counts["reduction.par_explosions"] += 1

    span(ul.reduction, "pars", "reduction.pars", "reduction",
         count="reduction.pars_calls", on_result=pars_result)
    span(ul.reduction, "convertible", "reduction.convertible", "reduction",
         on_result=conv_result)
    span(ul.reduction, "whnf", "reduction.whnf", "reduction", count="reduction.whnf_calls")
    span(ul.reduction, "par_reducts", "reduction.par_reducts", "reduction",
         on_error=explosion)
    span(ul.reduction, "complete_development", "reduction.complete_development",
         "reduction")
    span(ul.reduction, "cbn_eval", "reduction.cbn_eval", "reduction")

    # subst: one group for the whole layer, so only the outermost call
    # into it is counted and timed.
    for attr in ("shift", "subst1", "apply", "lift", "compose", "strengthen",
                 "ctx_lookup"):
        count = f"subst.{attr}_calls" if attr in ("shift", "subst1") else None
        span(ul.subst, attr, f"subst.{attr}", "subst", group="subst", count=count)

    # harness
    def case_nodes(_args, case):
        counts["terms.input_nodes"] += (
            sum(term_size(t) for t in case.ctx) + term_size(case.term) + term_size(case.ty)
        )

    def raw_nodes(_args, term):
        counts["terms.input_nodes"] += term_size(term)

    def suite_report(_args, report):
        counts["harness.undecided"] += report.undecided

    span(ul.harness, "gen_case", "harness.gen", "harness",
         count="harness.gen_cases", hook=case_nodes)
    span(ul.harness, "gen_raw", "harness.gen_raw", "harness", hook=raw_nodes)
    # run_suite dispatches through the SUITES table.
    for suite, fn in list(ul.harness.SUITES.items()):
        tracer.patch_item(ul.harness.SUITES, suite, tracer.spanned(
            fn, f"harness.suite.{suite}", "harness", on_result=suite_report))
