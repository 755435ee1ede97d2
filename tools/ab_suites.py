"""Interleaved A/B timing of one benchmark workload on two source trees.

    python3 tools/ab_suites.py PARENT_ROOT CHANGE_ROOT
        [--workload metatheory|corpus|coherence] [--rounds N] [--seed S]

Each root is a checkout of this repository. The script imports each
tree's ``ulevels`` package (from ``ROOT/src``) and its
``perfbench/workloads.py`` afresh into this process, without editing
either, and builds the workload's operations at the seed from each:

- ``metatheory`` (the default): the subject-reduction, diamond,
  progress and consistency suites in batches. The two trees alternate
  which goes first from one batch of the four suites to the next.
- ``corpus``: ``check`` on each corpus file, ``derive`` on each accepted
  definition and the revalidation of what it wrote, each tree writing
  into a working directory of its own. The trees alternate which goes
  first from one operation to the next.
- ``coherence``: ``gen_case`` then ``check_derivation`` on each
  generated judgment, so a validator change can be timed in one
  process. The trees alternate as for ``corpus``.

Every round runs each operation once on each tree, so a machine that
slows for a while slows both sides alike. Each pair of operations must
give equal outputs (suite digests; check reports, derived file sizes
and revalidation verdicts), or the script stops with exit status 1.

It prints the change's time as a ratio of the parent's (the sum over
every round), per suite (or for the corpus) and in all, and how many
rounds each side won.
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


def load_tree(root: Path, workload: str, seed: int, workdir: Path):
    """The workload's operations built from ``root``'s own code, the
    ``sys.modules`` entries that code was imported under, and the names
    of the metatheory suites."""
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
    workdir.mkdir()
    ops = workloads.WORKLOADS[workload](seed, workdir).ops()
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
    parser.add_argument("--workload", choices=("metatheory", "corpus", "coherence"),
                        default="metatheory")
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=97)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: load_tree(getattr(args, side), args.workload, args.seed, Path(tmp) / side)
                 for side in SIDES}
        return compare(trees, args.workload, args.rounds)


def compare(trees: dict, workload: str, rounds: int) -> int:
    (ops_a, _, suites), (ops_b, _, _) = trees["parent"], trees["change"]
    if len(ops_a) != len(ops_b):
        raise SystemExit("error: the trees build different numbers of operations")
    # Each round's operations take turns through the labels: one batch of
    # each metatheory suite, or one corpus or coherence operation at a time.
    labels = suites if workload == "metatheory" else (workload,)

    totals = {side: defaultdict(float) for side in SIDES}
    wins = dict.fromkeys(SIDES, 0)
    for rnd in range(rounds):
        spent = dict.fromkeys(SIDES, 0.0)
        for i in range(len(ops_a)):
            # Flip the order once per turn through the labels, so each
            # label runs first on each side equally often.
            order = SIDES if (rnd + i // len(labels)) % 2 == 0 else SIDES[::-1]
            digests = {}
            for side in order:
                ops, modules, _ = trees[side]
                elapsed, digests[side] = run_op(ops[i], modules)
                totals[side][labels[i % len(labels)]] += elapsed
                spent[side] += elapsed
            if digests["parent"] != digests["change"]:
                raise SystemExit(f"error: round {rnd + 1}, operation {i}: outputs differ: {digests}")
        winner = min(SIDES, key=spent.get)
        wins[winner] += 1
        print(f"round {rnd + 1}: change/parent {spent['change'] / spent['parent']:.3f} "
              f"({winner} won)")

    for label in labels:
        print(f"{label}: {totals['change'][label] / totals['parent'][label]:.3f}")
    ratio = sum(totals["change"].values()) / sum(totals["parent"].values())
    print(f"all: {ratio:.3f}; rounds won: change {wins['change']}, "
          f"parent {wins['parent']} of {rounds}; outputs equal in every operation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
