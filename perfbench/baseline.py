"""Write the per-layer baseline record from traced runs at a fixed seed.

Usage, from the repository root:
    python3 perfbench/baseline.py --seed 1 --repeats 5 --out perfbench/BENCH_baseline.json

Each workload's fixed work is traced ``--repeats`` times.  One row per
(workload, layer, q, n, pair_kind) gives the median and the quartile
distance of the layer's self seconds across the repeats, and the exact
counters, which must agree on every repeat.  ``pair_kind`` is extremal,
adjswap, random_d2 or d1 on intersect-long, sampled on verify-n29,
exhaustive on claims-n7 and reads=<count> on decode-q4n40.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def machine() -> dict:
    info = {"cpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    info["numpy"] = numpy.__version__
    return info


def layer_counters(summary, layer: str) -> dict:
    out = {f"{name}.calls": n for name, n in summary.calls.items() if name.startswith(layer + ".")}
    out.update({k: v for k, v in summary.counts.items() if k.startswith(layer + ".")})
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    import run
    import workloads

    rows = []
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(args.seed)
        seconds = defaultdict(list)
        counters = {}
        for _ in range(args.repeats):
            tracer, units, _ = run.traced_pass(workload)
            if any(u.failed for u in units):
                raise SystemExit(f"{name}: operations failed while tracing")
            for (q, n, kind), s in tracer.summaries().items():
                for layer in {span.split(".")[0] for span in s.calls}:
                    key = (layer, q, n, kind)
                    seconds[key].append(s.layer_self_s[layer])
                    counts = layer_counters(s, layer)
                    if counters.setdefault(key, counts) != counts:
                        raise SystemExit(f"{name} {key}: counters differ between repeats")
        for key in sorted(seconds, key=str):
            layer, q, n, kind = key
            values = seconds[key]
            quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            rows.append({
                "workload": name, "layer": layer, "q": q, "n": n, "pair_kind": kind,
                "median_s": statistics.median(values), "iqr_s": quartiles[2] - quartiles[0],
                "counters": counters[key],
            })
        print(f"baseline: {name} done", file=sys.stderr)

    record = {
        "what": "per-layer self seconds of each workload's fixed work, traced",
        "seed": args.seed,
        "repeats": args.repeats,
        "machine": machine(),
        "rows": rows,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
