"""Spans and exact counters around delsub's public functions.

The tracer wraps each target function in every ``delsub`` module
namespace that holds it, so calls are seen under the names their
callers imported (``delsub.intersect.scan_candidates`` as well as
``delsub.diffs.scan_candidates``).  ``DiffProfile`` is wrapped at its
constructor.  Spans are kept in memory and every original is restored
when the ``installed()`` block ends.

``delsub.sequence`` is not wrapped: its calls take under a microsecond,
so a wrapper would cost more than the work.  Its time shows as the self
time of its callers.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, Hashable, List, Optional

LAYERS = ("cli", "diffs", "intersect", "balls", "reconstruct")

# (module, attribute, span name); the span's layer is the part before the dot.
TARGETS = (
    ("delsub.cli", "main", "cli.main"),
    ("delsub.diffs", "DiffProfile.__init__", "diffs.profile"),
    ("delsub.diffs", "scan_candidates", "diffs.scan"),
    ("delsub.diffs", "lambda_enumerate", "diffs.enumerate"),
    ("delsub.intersect", "intersection_size_fast", "intersect.size"),
    ("delsub.intersect", "structural_group_sets", "intersect.expand"),
    ("delsub.intersect", "claims_lambda", "intersect.claims"),
    ("delsub.intersect", "verify_claims", "intersect.verify"),
    ("delsub.balls", "ball_intersection", "balls.oracle"),
    ("delsub.reconstruct", "reconstruct", "reconstruct.decode"),
    ("delsub.reconstruct", "inverse_ball_words", "reconstruct.inverse_ball"),
    ("delsub.reconstruct", "channel_transmit", "reconstruct.channel"),
)


def _count_scan(counts: Counter, parent_name, args, result) -> None:
    counts["diffs.scan_candidates"] += len(result)


def _count_size(counts: Counter, parent_name, args, result) -> None:
    # Oracle reports carry no group sizes, so only structural ones count.
    if result.method == "structural":
        counts["intersect.members_raw"] += sum(result.group_sizes.values())
        counts["intersect.members_distinct"] += result.size


def _count_oracle(counts: Counter, parent_name, args, result) -> None:
    if parent_name == "intersect.size":
        x = args[0]
        n, q = len(x), x.q
        counts["balls.oracle_calls"] += 1
        # ds11_packed's uint8 array for both balls: n rows of (n-1) x q x (n-1).
        counts["balls.packed_bytes_computed"] += 2 * n * (n - 1) * q * (n - 1)


def _count_inverse(counts: Counter, parent_name, args, result) -> None:
    counts["reconstruct.inverse_ball_words"] += len(result)


def _count_decode(counts: Counter, parent_name, args, result) -> None:
    counts["reconstruct.candidates"] += len(result.candidates)


_COUNTERS = {
    "diffs.scan": _count_scan,
    "intersect.size": _count_size,
    "balls.oracle": _count_oracle,
    "reconstruct.inverse_ball": _count_inverse,
    "reconstruct.decode": _count_decode,
}


class Summary:
    """Calls, inclusive and self seconds per span name, self seconds per
    layer, and the exact counters, for one tag or for all of them."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.layer_self_s: Counter = Counter()
        self.counts: Counter = Counter()


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span
    index and the tag of the operation that caused it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[Hashable, Counter] = defaultdict(Counter)
        self.tag: Hashable = None
        self._stack: List[int] = []

    def set_tag(self, tag: Hashable) -> None:
        self.tag = tag

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.tag]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                parent_name = spans[parent][0] if parent >= 0 else None
                count(self.counts[self.tag], parent_name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patches = []
        try:
            for module_name, attr, name in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self._wrap(name, original)
                if path:
                    patches.append((owner, leaf, original))
                    setattr(owner, leaf, wrapper)
                    continue
                for module in _delsub_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def summaries(self) -> Dict[Hashable, Summary]:
        """One summary per tag; self time is a span's duration minus the
        time its child spans cover."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, tag in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[Hashable, Summary] = defaultdict(Summary)
        for i, (name, start, end, parent, tag) in enumerate(self.spans):
            s = out[tag]
            duration = end - start
            own = duration - child_s[i]
            s.calls[name] += 1
            s.total_s[name] += duration
            s.self_s[name] += own
            s.layer_self_s[name.split(".")[0]] += own
        for tag, counts in self.counts.items():
            out[tag].counts.update(counts)
        return dict(out)

    def summary(self) -> Summary:
        """All tags together."""
        total = Summary()
        for s in self.summaries().values():
            for field in ("calls", "total_s", "self_s", "layer_self_s", "counts"):
                getattr(total, field).update(getattr(s, field))
        return total

    def write(self, path, meta: Optional[dict] = None) -> None:
        """Write the spans as JSON, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, start - origin, end - origin, parent, tag]
            for name, start, end, parent, tag in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({**(meta or {}), "spans": rows}, fh)


def _delsub_modules():
    return [
        module for key, module in list(sys.modules.items())
        if key == "delsub" or key.startswith("delsub.")
    ]
