"""Interleaved A/B timing of the metatheory suites of two source trees.

    python3 tools/ab_suites.py PARENT_ROOT CHANGE_ROOT [--rounds N] [--seed S]

Each root is a checkout of this repository. The script imports each
tree's ``ulevels`` package (from ``ROOT/src``) and its
``perfbench/workloads.py`` afresh into this process, without editing
either, and builds the ``metatheory`` workload's operations at the seed
from each: the subject-reduction, diamond, progress and consistency
suites in batches. Every round runs each batch once on each tree, the
two trees alternating which goes first from one batch of the four
suites to the next, so a machine that slows for a while slows both
sides alike. Each pair of batches must give equal outputs, or the
script stops with exit status 1.

It prints, per suite and in all, the change's time as a ratio of the
parent's (the sum over every round), and how many rounds each side won.
A ratio below 1 means the change is faster; a HEAD-vs-HEAD run shows how
close to 1 two identical trees read.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

SIDES = ("parent", "change")


def _ours(name: str) -> bool:
    return name in ("ulevels", "workloads") or name.startswith("ulevels.")


def load_tree(root: Path, seed: int, workdir: Path):
    """The ``metatheory`` operations built from ``root``'s own code, and
    the ``sys.modules`` entries that code was imported under."""
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    paths = [str(root / "src"), str(root / "perfbench")]
    sys.path[:0] = paths
    try:
        workloads = importlib.import_module("workloads")
    finally:
        del sys.path[: len(paths)]
    package = Path(workloads.cli.__file__).resolve()
    if (root / "src").resolve() not in package.parents:
        raise SystemExit(f"error: imported ulevels from {package}, not from {root / 'src'}")
    modules = {n: m for n, m in sys.modules.items() if _ours(n)}
    ops = workloads.Metatheory(seed, workdir).ops()
    return ops, modules, workloads.SUITES


def run_op(op, modules: dict) -> tuple[float, bytes]:
    # The tree's own modules are the ones importable while it runs.
    sys.modules.update(modules)
    t0 = time.perf_counter()
    result = op.run()
    elapsed = time.perf_counter() - t0
    outcome = op.verify(result)
    if outcome.failed:
        raise SystemExit(f"error: {outcome.detail}")
    return elapsed, outcome.digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_ROOT")
    parser.add_argument("change", type=Path, metavar="CHANGE_ROOT")
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=97)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: load_tree(getattr(args, side), args.seed, Path(tmp)) for side in SIDES}
    (ops_a, _, suites), (ops_b, _, _) = trees["parent"], trees["change"]
    if len(ops_a) != len(ops_b):
        raise SystemExit("error: the trees build different numbers of batches")

    totals = {side: defaultdict(float) for side in SIDES}
    wins = dict.fromkeys(SIDES, 0)
    for rnd in range(args.rounds):
        spent = dict.fromkeys(SIDES, 0.0)
        for i in range(len(ops_a)):
            # Flip the order once per batch of every suite, so each suite
            # runs first on each side equally often within a round.
            order = SIDES if (rnd + i // len(suites)) % 2 == 0 else SIDES[::-1]
            digests = {}
            for side in order:
                ops, modules, _ = trees[side]
                elapsed, digests[side] = run_op(ops[i], modules)
                totals[side][suites[i % len(suites)]] += elapsed
                spent[side] += elapsed
            if digests["parent"] != digests["change"]:
                raise SystemExit(f"error: round {rnd + 1}, batch {i}: outputs differ: {digests}")
        winner = min(SIDES, key=spent.get)
        wins[winner] += 1
        print(f"round {rnd + 1}: change/parent {spent['change'] / spent['parent']:.3f} "
              f"({winner} won)")

    for suite in suites:
        ratio = totals["change"][suite] / totals["parent"][suite]
        print(f"{suite}: {ratio:.3f}")
    ratio = sum(totals["change"].values()) / sum(totals["parent"].values())
    print(f"all suites: {ratio:.3f}; rounds won: change {wins['change']}, "
          f"parent {wins['parent']} of {args.rounds}; outputs equal in every batch")
    return 0


if __name__ == "__main__":
    sys.exit(main())
