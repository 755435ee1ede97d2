"""Benchmark for ulevels.

    python3 perfbench/run.py --workload corpus|coherence|metatheory \\
        --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in this process, with one
client in a closed loop, against the package under ``src/`` of the
checkout that holds this file. It checks every output and prints, as
the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: set-up time,
operation latency and throughput, and peak memory. Times are scaled to
a nominal machine speed (``calibrate.py``). With ``--trace 1``
the run first measures untraced rounds, then wraps the package's
public functions (``tracing.py``) and reports per-layer times and
counts per round, plus the tracing overhead. Lines before the last
describe the run (round count, samples, output digest).

Exit status is 0 when the run completed, whether or not the outputs
were correct, and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing
from calibrate import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is imports plus input preparation; it is repeated this many
# times in one run and the median is reported.
SETUP_REPEATS = 15
# Operations run once, untimed, before measuring.
WARMUP_OPS = 20
# A traced run spends this share of --seconds on untraced rounds, the
# reference for trace.overhead.
UNTRACED_SHARE = 1 / 3
# At most this many operation failures are described on stderr.
MAX_DETAILS = 5

WORKLOAD_NAMES = ("corpus", "coherence", "metatheory")

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ref_ms",
    "op_ms.p95": "ref_ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_ms": "ref_ms",
    "surface.self_ms": "ref_ms",
    "surface.parse_ms": "ref_ms",
    "surface.resolve_ms": "ref_ms",
    "surface.pretty_ms": "ref_ms",
    "surface.defs": "count",
    "surface.tokens": "count",
    "checker.self_ms": "ref_ms",
    "checker.check_calls": "count",
    "checker.infer_calls": "count",
    "checker.accepted": "count",
    "checker.rejected": "count",
    "checker.undecided": "count",
    "checker.level_order_builds": "count",
    "levels.lt_calls": "count",
    "checker.deriv_tree_nodes": "count",
    "checker.deriv_distinct_nodes": "count",
    "checker.validate.ms": "ref_ms",
    "checker.validate.calls": "count",
    "checker.validate.tree_nodes": "count",
    "checker.validate.rejects": "count",
    "checker.json.emit_ms": "ref_ms",
    "checker.json.bytes": "bytes",
    "checker.json.load_ms": "ref_ms",
    "reduction.self_ms": "ref_ms",
    "reduction.pars_calls": "count",
    "reduction.pars_noop_share": "ratio",
    "reduction.pars_ms": "ref_ms",
    "reduction.convertible_calls.yes": "count",
    "reduction.convertible_calls.no": "count",
    "reduction.convertible_calls.undecided": "count",
    "reduction.convertible_ms": "ref_ms",
    "reduction.whnf_calls": "count",
    "reduction.par_reducts_ms": "ref_ms",
    "reduction.par_explosions": "count",
    "reduction.complete_development_ms": "ref_ms",
    "reduction.cbn_eval_ms": "ref_ms",
    "subst.shift_calls": "count",
    "subst.subst1_calls": "count",
    "subst.ms": "ref_ms",
    "terms.input_nodes": "count",
    "harness.self_ms": "ref_ms",
    "harness.gen_cases": "count",
    "harness.gen_ms": "ref_ms",
    "harness.suite_ms.subject-reduction": "ref_ms",
    "harness.suite_ms.diamond": "ref_ms",
    "harness.suite_ms.progress": "ref_ms",
    "harness.suite_ms.consistency": "ref_ms",
    "harness.undecided": "count",
    "trace.overhead": "ratio",
}

# Per-layer times that are the inclusive time of one span name; the
# other ``*_ms`` metrics are layer self times.
INCLUSIVE_MS = {
    "surface.parse_ms": "surface.parse",
    "surface.resolve_ms": "surface.resolve",
    "surface.pretty_ms": "surface.pretty",
    "checker.validate.ms": "checker.validate",
    "checker.json.emit_ms": "checker.json.emit",
    "checker.json.load_ms": "checker.json.load",
    "reduction.pars_ms": "reduction.pars",
    "reduction.convertible_ms": "reduction.convertible",
    "reduction.par_reducts_ms": "reduction.par_reducts",
    "reduction.complete_development_ms": "reduction.complete_development",
    "reduction.cbn_eval_ms": "reduction.cbn_eval",
    "harness.gen_ms": "harness.gen",
    "harness.suite_ms.subject-reduction": "harness.suite.subject-reduction",
    "harness.suite_ms.diamond": "harness.suite.diamond",
    "harness.suite_ms.progress": "harness.suite.progress",
    "harness.suite_ms.consistency": "harness.suite.consistency",
}
SELF_MS = {
    "cli.self_ms": "cli",
    "surface.self_ms": "surface",
    "checker.self_ms": "checker",
    "reduction.self_ms": "reduction",
    "subst.ms": "subst",
    "harness.self_ms": "harness",
}


def tail_percentile(values: list[float], target: float = 95.0) -> tuple[float, float]:
    """(percentile, value): the highest percentile up to ``target`` that
    has at least ten samples above it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    rank = min(math.ceil(target / 100 * n), n - 10)
    rank = max(rank, 1)
    return 100.0 * rank / n, ordered[rank - 1]


class Round:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.payloads: list[bytes] = []
        self.items = 0
        self.failed = 0
        self.undecided = 0
        self.details: list[str] = []
        self.digest = ""

    def fail(self, detail: str) -> None:
        self.failed += 1
        self.details.append(detail)
        self.payloads.append(detail.encode())

    def scaled(self, cal) -> list[float]:
        """Operation latencies in seconds at the nominal machine speed."""
        return [cal.scaled(t, x) for t, x in zip(self.starts, self.latencies)]


def run_round(ops, round_digest, cal) -> Round:
    r = Round()
    clock = time.perf_counter
    for op in ops:
        cal.maybe_sample()
        t0 = clock()
        r.starts.append(t0)
        try:
            result = op.run()
        except Exception as exc:  # an operation that raises is a failure
            r.latencies.append(clock() - t0)
            r.fail(f"raised {type(exc).__name__}: {exc}")
            continue
        r.latencies.append(clock() - t0)
        try:
            outcome = op.verify(result)
        except Exception as exc:  # so is output that cannot be checked
            r.fail(f"check raised {type(exc).__name__}: {exc}")
            continue
        r.undecided += outcome.undecided
        if outcome.failed:
            r.fail(outcome.detail)
            continue
        r.payloads.append(outcome.digest)
        r.items += op.items
    cal.sample()
    r.digest = round_digest(r.payloads)
    return r


def run_rounds(ops, round_digest, cal, seconds: float, on_round=None) -> list[Round]:
    """Whole rounds, at least one, while another round of average length
    still fits in ``seconds``."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(ops, round_digest, cal))
        if on_round is not None:
            on_round()
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def warm_up(ops, cal) -> None:
    for op in ops[:WARMUP_OPS]:
        cal.maybe_sample()
        try:
            op.run()
        except Exception:  # failures are counted in the measured rounds
            pass


def fresh_setup(workload: str, seed: int, workdir: Path):
    """Import the package and the workloads from scratch and prepare the
    workload's inputs. Returns (seconds, workloads module, workload,
    operations)."""
    for name in list(sys.modules):
        if name in ("ulevels", "workloads") or name.startswith("ulevels."):
            del sys.modules[name]
    t0 = time.perf_counter()
    wl_mod = importlib.import_module("workloads")
    wl = wl_mod.WORKLOADS[workload](seed, workdir)
    ops = wl.ops()
    return time.perf_counter() - t0, wl_mod, wl, ops


def layer_metrics(tracer, spans, factors, counts: dict, overhead: float):
    """Per-layer metrics of one traced round: times are medians over the
    traced rounds (scaled to the nominal machine speed), counts are those
    of every round."""
    self_times, incl_times = [], []
    for (lo, hi), factor in zip(spans, factors):
        s, i = tracer.times(lo, hi)
        self_times.append({k: v * factor for k, v in s.items()})
        incl_times.append({k: v * factor for k, v in i.items()})
    out = {}
    for name, unit in PER_LAYER.items():
        if name in INCLUSIVE_MS:
            value = 1000 * statistics.median(t.get(INCLUSIVE_MS[name], 0.0) for t in incl_times)
        elif name in SELF_MS:
            value = 1000 * statistics.median(t.get(SELF_MS[name], 0.0) for t in self_times)
        elif name == "reduction.pars_noop_share":
            calls = counts.get("reduction.pars_calls", 0)
            value = counts.get("reduction.pars_noops", 0) / calls if calls else 0.0
        elif name == "trace.overhead":
            value = overhead
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ulevels" / "__init__.py").is_file():
        print(f"error: no ulevels package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    cal = Calibration()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        cal.sample()
        t0 = time.perf_counter()
        seconds, wl_mod, wl, ops = fresh_setup(args.workload, args.seed, workdir)
        setup_times.append((t0, seconds))
    cal.sample()
    package = Path(wl_mod.cli.__file__).resolve()
    if SRC.resolve() not in package.parents:
        print(f"error: imported ulevels from {package}, not from {SRC}", file=sys.stderr)
        return 2

    warm_up(ops, cal)
    if args.trace:
        return run_traced(args, wl_mod, wl, ops, cal)

    rounds = run_rounds(ops, wl_mod.round_digest, cal, args.seconds)
    latencies_ms = [1000 * x for r in rounds for x in r.scaled(cal)]
    pct, p95 = tail_percentile(latencies_ms)
    metrics = {
        "setup_s": statistics.median(cal.scaled(t, x) for t, x in setup_times),
        "op_ms.p50": statistics.median(latencies_ms),
        "op_ms.p95": p95,
        "items_per_s": statistics.median(r.items / sum(r.scaled(cal)) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = [1000 * x for r in rounds for x in r.latencies]
    print(
        f"samples={len(latencies_ms)} op_ms.p95 is the p{pct:.2f}; "
        f"unscaled op_ms.p50={statistics.median(raw):.4f} "
        f"reference_ms={1000 * statistics.median(cal.durations):.4f}"
    )
    return report(args, rounds, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()})


def run_traced(args, wl_mod, wl, ops, cal) -> int:
    untraced = run_rounds(ops, wl_mod.round_digest, cal, args.seconds * UNTRACED_SHARE)
    tracer = tracing.Tracer()
    wl.counts = tracer.counts
    tracing.install(tracer, wl_mod)
    marks = [(tracer.span_count(), dict(tracer.counts))]

    def mark():
        marks.append((tracer.span_count(), dict(tracer.counts)))

    try:
        traced = run_rounds(ops, wl_mod.round_digest, cal,
                            args.seconds * (1 - UNTRACED_SHARE), mark)
    finally:
        tracer.restore()

    per_round = []
    for (_, before), (_, after) in zip(marks, marks[1:]):
        keys = set(before) | set(after)
        per_round.append({k: after.get(k, 0) - before.get(k, 0) for k in keys})
    problems = []
    if any(c != per_round[0] for c in per_round[1:]):
        problems.append("per-round counts differ between traced rounds")
    overhead = (statistics.median(sum(r.scaled(cal)) for r in traced)
                / statistics.median(sum(r.scaled(cal)) for r in untraced))
    spans = [(marks[i][0], marks[i + 1][0]) for i in range(len(traced))]
    factors = [cal.factor(r.starts[0], r.starts[-1] + r.latencies[-1]) for r in traced]
    metrics = layer_metrics(tracer, spans, factors, per_round[0], overhead)
    print(f"spans={tracer.span_count()} untraced_rounds={len(untraced)}")
    return report(args, untraced + traced, metrics, problems)


def report(args, rounds: list[Round], metrics: dict, problems: list[str] | None = None) -> int:
    problems = list(problems or [])
    digests = {r.digest for r in rounds}
    if len(digests) > 1:
        problems.append(f"rounds disagree: {len(digests)} different output digests")
    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(r.failed for r in rounds)
    details = [d for r in rounds for d in r.details][:MAX_DETAILS]
    for line in problems + details:
        print(f"problem: {line}", file=sys.stderr)
    undecided = sum(r.undecided for r in rounds)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"rounds={len(rounds)} ops_per_round={len(rounds[0].latencies)} "
        f"undecided={undecided} digest={rounds[0].digest}"
    )
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
