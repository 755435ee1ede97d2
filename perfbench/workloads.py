"""The benchmark's workloads.

Each workload turns a seed into a fixed list of operations (one round)
and checks every operation's output. One client runs the operations in
a closed loop: the next starts when the previous one ends. Every round
repeats the same operations on the same inputs, so every round must
produce the same outputs and, in a traced run, the same counts.

- ``corpus``: ``ulevels check FILE`` on each committed corpus file and
  ``ulevels derive FILE NAME --out ...`` on each accepted definition,
  in-process through ``cli.run_cli``; each derived file is read back
  with ``derivation_from_doc`` and revalidated with
  ``check_derivation``. The seed shuffles the order.
- ``coherence``: judgments in open contexts from ``harness.gen_case``
  at the seed, each followed by ``check_derivation`` on the derivation
  the checker emitted.
- ``metatheory``: the ``subject-reduction``, ``diamond``, ``progress``
  and ``consistency`` suites through ``harness.run_suite``, in batches
  whose seeds derive from the seed. No derivation is validated or
  serialized here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Every package module is imported here, so that the traced run reaches
# each one through this module.
from ulevels import checker, cli, harness, levels, reduction, subst, surface, terms  # noqa: F401

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

# Judgments per round in ``coherence``.
COHERENCE_CASES = 8000
# ``metatheory`` runs each suite in this many batches of this many cases.
SUITES = ("subject-reduction", "diamond", "progress", "consistency")
SUITE_BATCHES = 80
SUITE_BATCH_CASES = 25


@dataclass(frozen=True)
class Outcome:
    failed: bool
    undecided: int
    digest: bytes
    detail: str = ""


@dataclass(frozen=True)
class Op:
    """One timed operation and the check of its output."""

    run: Callable[[], object]
    verify: Callable[[object], Outcome]
    # Units of work the operation completes (definitions are not
    # counted; commands, judgments and suite cases are).
    items: int = 1


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # Set by the traced run; workloads add the counts only they see.
        self.counts = None

    def ops(self) -> list[Op]:
        raise NotImplementedError


def _count(counts, key: str, n: int) -> None:
    if counts is not None:
        counts[key] += n


class Corpus(Workload):
    name = "corpus"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.files = sorted(CORPUS_DIR.glob("*.ttbfl"))
        if not self.files:
            raise FileNotFoundError(f"no corpus files under {CORPUS_DIR}")
        self.reports = {f: f.with_suffix(".report").read_text(encoding="utf-8")
                        for f in self.files}
        # Oracle for each derive: the resolved definition, its file's
        # domain and fuel, and the term nodes it hands the checker.
        self.targets = []
        self.file_nodes = {}
        for f in self.files:
            module = surface.parse(f.read_text(encoding="utf-8"))
            domain, fuel = surface.module_settings(module)
            triples = surface.resolve_defs(module, domain)
            self.file_nodes[f] = sum(
                terms.term_size(ty) + terms.term_size(body) for _d, ty, body in triples
            )
            for d, ty, body in triples:
                if not d.expect_fail:
                    self.targets.append((f, d.name, ty, body, domain, fuel))

    def ops(self) -> list[Op]:
        units = [[self._check_op(f)] for f in self.files]
        for i, target in enumerate(self.targets):
            out = self.workdir / f"derive-{i}.json"
            units.append([self._derive_op(target, out), self._revalidate_op(target, out)])
        random.Random(f"corpus/{self.seed}").shuffle(units)
        return [op for unit in units for op in unit]

    def _check_op(self, path: Path) -> Op:
        argv = ["check", str(path)]
        expected = self.reports[path]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run_cli(argv)
            return code, out.getvalue()

        def verify(result):
            code, text = result
            _count(self.counts, "terms.input_nodes", self.file_nodes[path])
            ok = code == 0 and text == expected
            detail = "" if ok else f"check {path.name}: exit {code}, report differs"
            return Outcome(not ok, 0, text.encode(), detail)

        return Op(run, verify)

    def _derive_op(self, target, out: Path) -> Op:
        path, name, *_ = target
        argv = ["derive", str(path), name, "--out", str(out)]

        def run():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                return cli.run_cli(argv)

        def verify(code):
            size = out.stat().st_size if out.exists() else 0
            _count(self.counts, "terms.input_nodes", self.file_nodes[path])
            _count(self.counts, "checker.json.bytes", size)
            ok = code == 0 and size > 0
            detail = "" if ok else f"derive {path.name} {name}: exit {code}"
            return Outcome(not ok, 0, f"{name}:{size}".encode(), detail)

        return Op(run, verify)

    def _revalidate_op(self, target, out: Path) -> Op:
        path, name, ty, body, domain, fuel = target

        def run():
            doc = json.loads(out.read_text(encoding="utf-8"))
            d, doc_domain = checker.derivation_from_doc(doc)
            return d, doc_domain, checker.check_derivation(d, doc_domain, fuel)

        def verify(result):
            d, doc_domain, report = result
            ok = (
                report.ok
                and doc_domain is domain
                and d.ctx == ()
                and d.term == body
                and d.ty == ty
            )
            detail = "" if ok else f"revalidate {path.name} {name}: {report.errors[:1]}"
            return Outcome(not ok, 0, f"{name}:{report.ok}".encode(), detail)

        return Op(run, verify)


class Coherence(Workload):
    name = "coherence"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.cfg = harness.GenConfig(seed=seed, cases=COHERENCE_CASES)
        self.domain = levels.domain_named(self.cfg.domain_name)

    def ops(self) -> list[Op]:
        return [self._op(i) for i in range(self.cfg.cases)]

    def _op(self, index: int) -> Op:
        cfg, domain = self.cfg, self.domain

        def run():
            case = harness.gen_case(cfg, index, domain)
            return case, checker.check_derivation(case.derivation, domain, cfg.fuel)

        def verify(result):
            case, report = result
            d = case.derivation
            ok = report.ok and d.ctx == case.ctx and d.term == case.term and d.ty == case.ty
            detail = "" if ok else f"case {index}: {report.errors[:1]}"
            payload = repr((case.ctx, case.term, case.ty, report.ok)).encode()
            return Outcome(not ok, 0, payload, detail)

        return Op(run, verify)


class Metatheory(Workload):
    name = "metatheory"

    def ops(self) -> list[Op]:
        out = []
        for batch in range(SUITE_BATCHES):
            for k, suite in enumerate(SUITES):
                seed = self.seed * 1000 + batch * len(SUITES) + k
                cfg = harness.GenConfig(seed=seed, cases=SUITE_BATCH_CASES)
                out.append(self._op(suite, cfg))
        return out

    def _op(self, suite: str, cfg) -> Op:
        def run():
            return harness.run_suite(suite, cfg)

        def verify(report):
            ok = report.ok and report.cases == cfg.cases
            detail = "" if ok else f"{suite} seed {cfg.seed}: {report.failures[:1]}"
            payload = f"{suite}:{report.digest}:{len(report.failures)}:{report.undecided}"
            return Outcome(not ok, report.undecided, payload.encode(), detail)

        return Op(run, verify, items=cfg.cases)


WORKLOADS = {w.name: w for w in (Corpus, Coherence, Metatheory)}


def round_digest(payloads: list[bytes]) -> str:
    h = hashlib.sha256()
    for p in payloads:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()[:16]
