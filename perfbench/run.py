"""delsub benchmark: run one workload from a seed, check every output, and
print the metrics as one JSON object on the last line of stdout.

Usage, from the repository root:
    python3 perfbench/run.py --workload verify-n29 --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed amount of the workload untraced and
then traced, and reports the per-layer metrics, including the tracing
overhead; the spans are written to ``.bench_out/``.  Progress and details
go to stderr.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent

END_TO_END = (
    ("ops_per_s", "op/s", "higher"),
    ("ops_per_s_jobs1", "op/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.jobs2_speedup", "ratio", "higher"),
    ("diffs.self_s", "s", "lower"),
    ("diffs.profile_calls", "count", "lower"),
    ("diffs.profile_s", "s", "lower"),
    ("diffs.scan_calls", "count", "lower"),
    ("diffs.scan_s", "s", "lower"),
    ("diffs.scan_candidates", "count", "lower"),
    ("diffs.enumerate_s", "s", "lower"),
    ("intersect.self_s", "s", "lower"),
    ("intersect.size_calls", "count", "lower"),
    ("intersect.size_s", "s", "lower"),
    ("intersect.size_self_s", "s", "lower"),
    ("intersect.expand_s", "s", "lower"),
    ("intersect.members_raw", "count", "lower"),
    ("intersect.members_distinct", "count", "lower"),
    ("intersect.dedupe_ratio", "ratio", "higher"),
    ("intersect.claims_s", "s", "lower"),
    ("intersect.verify_s", "s", "lower"),
    ("intersect.verify_self_s", "s", "lower"),
    ("balls.self_s", "s", "lower"),
    ("balls.oracle_calls", "count", "lower"),
    ("balls.oracle_s", "s", "lower"),
    ("balls.packed_bytes_computed", "bytes", "lower"),
    ("reconstruct.self_s", "s", "lower"),
    ("reconstruct.decode_calls", "count", "lower"),
    ("reconstruct.decode_s", "s", "lower"),
    ("reconstruct.decode_self_s", "s", "lower"),
    ("reconstruct.inverse_ball_s", "s", "lower"),
    ("reconstruct.inverse_ball_words", "count", "lower"),
    ("reconstruct.candidates", "count", "lower"),
    ("reconstruct.channel_draws", "count", "lower"),
    ("reconstruct.channel_s", "s", "lower"),
    ("reconstruct.distinct_read_ratio", "ratio", "higher"),
    ("reconstruct.unique_correct_ratio.reads_1", "ratio", "higher"),
    ("reconstruct.unique_correct_ratio.reads_154", "ratio", "higher"),
    ("reconstruct.unique_correct_ratio.reads_307", "ratio", "higher"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# The speed of tuple- and set-heavy Python on a shared machine drifts by
# up to 2x over minutes as neighbours load the caches and memory, and a
# whole run can fall into a slow spell.  After each unit the run times a
# fixed kernel of that kind (about REFERENCE_SHARE of the run), takes
# slowdown = median kernel time / REFERENCE_S, the kernel's time here in
# a quiet spell (2-core Xeon at 2.1 GHz, Python 3.11), and divides the
# timed loop's figures by slowdown ** CONTENTION_EXPONENT.  The workloads
# follow the kernel less than one to one: over ten seeds each, the
# log-log slopes of their throughput on the slowdown were 0.26-0.84
# (intersect-long, verify-n29, claims-n7, decode-q4n40 in rising order).
# setup_s tracks the kernel too loosely (correlation 0.4) and is left raw.
# stderr shows the factor and the raw figures.
REFERENCE_S = 0.0065
REFERENCE_SHARE = 0.02
CONTENTION_EXPONENT = 0.5

TAIL_PCT = 90
# Nearest-rank p90 has ten samples beyond it from 100 samples on, so the
# timed loop runs past --seconds until it has that many, up to a limit
# that keeps a run well under three minutes.
MIN_SAMPLES = 100
EXTEND_LIMIT_S = 120.0
SETUP_RUNS = 7
TRACE_PAIRS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "delsub" / "__init__.py").is_file():
        print(f"perfbench: no delsub sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    workloads.lib("cli")  # import (and byte-compile) before the set-up probes
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = measure_setup(args.workload, root)
    cross_ok = workloads.cross_check(workload.cross_pairs())
    if args.trace:
        units, metrics = traced_run(workload, root)
    else:
        units, references = timed_run(workload, args.seconds)
        metrics = end_to_end(workload, units, setup_s, statistics.median(references))
    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    print(f"perfbench: {args.workload} seed={args.seed} units={len(units)} "
          f"attempted={attempted} failed={failed} failed_ratio={failed / attempted} "
          f"cross_check={'ok' if cross_ok else 'MISMATCH'}", file=sys.stderr)
    print(json.dumps({
        "correct": cross_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def measure_setup(workload: str, root: Path) -> float:
    """Median wall time of a fresh process that imports delsub and builds
    the workload's program objects."""
    probe = HERE / "setup_probe.py"
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(probe), workload], cwd=root, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_kernel() -> int:
    """Fixed pure-Python work of delsub's kind: single-symbol insertions
    into the substitution variants of a word, collected in a set."""
    base = tuple(i * 7 % 4 for i in range(39))
    words = set()
    for p in range(39):
        for a in range(4):
            variant = base[:p] + (a,) + base[p + 1:]
            for pos in range(40):
                words.add(variant[:pos] + (a,) + variant[pos:])
    return len(words)


def timed_run(workload, seconds: float) -> Tuple[list, List[float]]:
    """Repeat the workload's unit while the next one is expected to end
    within ``seconds`` (and until MIN_SAMPLES latency samples exist).
    Returns the units and the reference kernel times taken after each."""
    units, references = [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        workloads.settle()
        unit_start = time.perf_counter()
        units.extend(workload.unit())
        unit_s = time.perf_counter() - unit_start
        for _ in range(max(1, round(REFERENCE_SHARE * unit_s / REFERENCE_S))):
            kernel_start = time.perf_counter()
            reference_kernel()
            references.append(time.perf_counter() - kernel_start)
        rounds += 1
        elapsed = time.perf_counter() - start
        samples = sum(len(u.latencies) for u in units if u.jobs == (workload.parallel_jobs or 1))
        if elapsed + elapsed / rounds > seconds and (
            samples >= MIN_SAMPLES or elapsed >= EXTEND_LIMIT_S
        ):
            return units, references


def tail_latency(samples: List[float]) -> Tuple[float, float]:
    """The nearest-rank TAIL_PCT percentile, lowered to the highest
    percentile with ten samples beyond it when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    rank = math.ceil(TAIL_PCT / 100 * n)
    if n - rank < 10:
        rank = n - 10 if n > 10 else n
    return xs[rank - 1], 100 * rank / n


def _rate(units) -> float:
    """Operations per second of a typical unit: each phase's median over
    the units, summed.  A slow spell on a shared machine then moves only
    the phases it hit in fewer than half of the units."""
    timed = [u.phases for u in units if u.phases]
    if not timed:
        return 0.0
    return units[0].ops / sum(statistics.median(column) for column in zip(*timed))


def _metric(values: Dict[str, float], spec) -> Dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}


def end_to_end(workload, units, setup_s: float, reference_s: float) -> Dict[str, dict]:
    """The end-to-end metrics; the timed loop's figures are divided by its
    contention factor."""
    main_units = [u for u in units if u.jobs == (workload.parallel_jobs or 1)]
    # every operation raising leaves no samples; `correct` is false then
    latencies = [x for u in main_units for x in u.latencies] or [0.0]
    tail, pct = tail_latency(latencies)
    print(f"perfbench: latency_tail_ms is p{pct:g} of {len(latencies)} samples", file=sys.stderr)
    usage = (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    factor = (reference_s / REFERENCE_S) ** CONTENTION_EXPONENT
    raw = {
        "ops_per_s": _rate(main_units),
        "ops_per_s_jobs1": _rate([u for u in units if u.jobs == 1]),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail * 1000,
    }
    print(f"perfbench: contention factor {factor}; raw {json.dumps(raw)}", file=sys.stderr)
    values = {
        "ops_per_s": raw["ops_per_s"] * factor,
        "ops_per_s_jobs1": raw["ops_per_s_jobs1"] * factor,
        "latency_p50_ms": raw["latency_p50_ms"] / factor,
        "latency_tail_ms": raw["latency_tail_ms"] / factor,
        "setup_s": setup_s,
    }
    # ru_maxrss is in KiB on Linux; children are the Pool workers and the
    # set-up probes
    values["peak_rss_mb"] = max(u.ru_maxrss for u in usage) / 1024
    return _metric(values, END_TO_END)


def traced_pass(workload):
    """The workload's fixed work with the tracer installed."""
    tracer = Tracer()
    previous = workload.on_op
    workload.on_op = tracer.set_tag
    start = time.perf_counter()
    try:
        with tracer.installed():
            units = workload.fixed_work()
    finally:
        workload.on_op = previous
    return tracer, units, time.perf_counter() - start


def traced_run(workload, root: Path):
    """The fixed work untraced and traced in alternation, TRACE_PAIRS
    times.  Per-layer metrics come from the last traced pass; the tracing
    overhead is the difference of the median pass times."""
    units, untraced_s, traced_s = [], [], []
    for _ in range(TRACE_PAIRS):
        start = time.perf_counter()
        untraced = workload.fixed_work()
        untraced_s.append(time.perf_counter() - start)
        tracer, traced, seconds = traced_pass(workload)
        traced_s.append(seconds)
        units += untraced + traced
    speedup = 0.0
    if workload.parallel_jobs:
        parallel = workload.fixed_work(jobs=workload.parallel_jobs)
        units += parallel
        speedup = _ratio(_rate(parallel), _rate(untraced))

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}-seed{workload.seed}.json",
                 {"workload": workload.name, "seed": workload.seed})
    metrics = layer_metrics(tracer.summary(), traced, statistics.median(untraced_s),
                            statistics.median(traced_s), speedup)
    return units, metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s, traced_units, untraced_s: float, traced_s: float,
                  speedup: float) -> Dict[str, dict]:
    """Per-layer metrics from a traced run's summary.  Layers a workload
    leaves idle report 0, and so do ratios whose base is 0."""
    stats: Counter = Counter()
    for u in traced_units:
        stats.update(u.stats)
    calls, total, own, layer, counts = s.calls, s.total_s, s.self_s, s.layer_self_s, s.counts
    values = {
        "cli.self_s": layer["cli"],
        "cli.jobs2_speedup": speedup,
        "diffs.self_s": layer["diffs"],
        "diffs.profile_calls": calls["diffs.profile"],
        "diffs.profile_s": total["diffs.profile"],
        "diffs.scan_calls": calls["diffs.scan"],
        "diffs.scan_s": total["diffs.scan"],
        "diffs.scan_candidates": counts["diffs.scan_candidates"],
        "diffs.enumerate_s": total["diffs.enumerate"],
        "intersect.self_s": layer["intersect"],
        "intersect.size_calls": calls["intersect.size"],
        "intersect.size_s": total["intersect.size"],
        "intersect.size_self_s": own["intersect.size"],
        "intersect.expand_s": total["intersect.expand"],
        "intersect.members_raw": counts["intersect.members_raw"],
        "intersect.members_distinct": counts["intersect.members_distinct"],
        "intersect.dedupe_ratio": _ratio(counts["intersect.members_distinct"],
                                         counts["intersect.members_raw"]),
        "intersect.claims_s": total["intersect.claims"],
        "intersect.verify_s": total["intersect.verify"],
        "intersect.verify_self_s": own["intersect.verify"],
        "balls.self_s": layer["balls"],
        "balls.oracle_calls": counts["balls.oracle_calls"],
        "balls.oracle_s": total["balls.oracle"],
        "balls.packed_bytes_computed": counts["balls.packed_bytes_computed"],
        "reconstruct.self_s": layer["reconstruct"],
        "reconstruct.decode_calls": calls["reconstruct.decode"],
        "reconstruct.decode_s": total["reconstruct.decode"],
        "reconstruct.decode_self_s": own["reconstruct.decode"],
        "reconstruct.inverse_ball_s": total["reconstruct.inverse_ball"],
        "reconstruct.inverse_ball_words": counts["reconstruct.inverse_ball_words"],
        "reconstruct.candidates": counts["reconstruct.candidates"],
        "reconstruct.channel_draws": calls["reconstruct.channel"],
        "reconstruct.channel_s": total["reconstruct.channel"],
        "reconstruct.distinct_read_ratio": _ratio(stats["distinct"], stats["draws"]),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": _ratio(traced_s - untraced_s, untraced_s),
    }
    for reads in (1, 154, 307):
        values[f"reconstruct.unique_correct_ratio.reads_{reads}"] = _ratio(
            stats[f"unique_correct.reads_{reads}"], stats[f"trials.reads_{reads}"])
    return _metric(values, PER_LAYER)


if __name__ == "__main__":
    sys.exit(main())
