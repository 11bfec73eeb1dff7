"""The four benchmark workloads.

Each workload builds its inputs from the seed, drives delsub through its
public entry points (``delsub.cli.main`` with argv, or the reconstruct
library calls), and checks every output against facts the benchmark
knows independently of the code under test.  Library functions are
looked up at call time, so the tracer's wrappers are seen when they are
installed.

An operation is one pair for the sweeps and ``intersect-long``, and one
decode for ``decode-q4n40``.  A unit is the smallest piece of work the
timed loop repeats: one CLI sweep, one pass over the pair list, or one
decode at each read count.
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import gc
import importlib
import io
import json
import random
import re
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

Word = Tuple[int, ...]


def lib(module: str):
    """A delsub module (the package re-exports some functions under
    module names, so attribute access on ``delsub`` is not enough)."""
    return importlib.import_module(f"delsub.{module}")


def coverage_bound(n: int, q: int) -> int:
    """2qn - 3q - 2 - [q == 2], kept here so the check does not depend on
    the code it checks."""
    return 2 * q * n - 3 * q - 2 - (1 if q == 2 else 0)


def digits(word: Word) -> str:
    return "".join(map(str, word))


@dataclass
class Unit:
    """One timed piece of work: ``ops`` operations in ``seconds`` of wall
    time.  ``phases`` splits those seconds into consecutive parts that
    line up across units of one workload (the twentieths of a sweep, the
    calls of a pass); ``latencies`` holds one sample of seconds per
    operation each.  A unit whose work raised has no phases."""

    ops: int
    failed: int
    seconds: float
    latencies: List[float]
    phases: List[float]
    jobs: int = 1
    stats: Counter = field(default_factory=Counter)


class _StampedStream(io.TextIOBase):
    """A stderr stand-in that records when each write happened."""

    def __init__(self) -> None:
        self.writes: List[Tuple[float, str]] = []

    def write(self, text: str) -> int:
        self.writes.append((time.perf_counter(), text))
        return len(text)


_PROGRESS = re.compile(r"checked (\d+)/")


def call_cli(argv: List[str]):
    """Run ``delsub.cli.main(argv)`` in-process; returns the exit code,
    stdout, the time-stamped stderr writes and the start and end times."""
    out, err = io.StringIO(), _StampedStream()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lib("cli").main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    end = time.perf_counter()
    return rc, out.getvalue(), err.writes, start, end


def _libc_malloc_trim():
    try:
        return ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return None


_MALLOC_TRIM = _libc_malloc_trim()


def settle() -> None:
    """Collect garbage and hand free heap pages back to the OS, so the next
    operation starts from about the memory state of a fresh process and
    peak RSS does not depend on the fragments earlier operations left."""
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def report_failure(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def random_word(rng: random.Random, q: int, n: int) -> Word:
    return tuple(rng.randrange(q) for _ in range(n))


def substitute(rng: random.Random, word: Word, q: int, k: int) -> Word:
    """``word`` with k distinct positions changed, so the Hamming distance
    is exactly k."""
    out = list(word)
    for p in rng.sample(range(len(word)), k):
        out[p] = (out[p] + 1 + rng.randrange(q - 1)) % q
    return tuple(out)


def adjacent_swap(rng: random.Random, word: Word) -> Word:
    """``word`` with one pair of unequal neighbours transposed (distance 2)."""
    spots = [i for i in range(len(word) - 1) if word[i] != word[i + 1]]
    i = rng.choice(spots)
    out = list(word)
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def extremal(q: int, n: int) -> Tuple[Word, Word]:
    """The pair whose intersection meets the coverage bound: 01201 / 10201
    (q >= 3) or 0101 / 1001 (q = 2) followed by an alternating 0101 tail."""
    head_x, head_y = ((0, 1, 2, 0, 1), (1, 0, 2, 0, 1)) if q >= 3 else ((0, 1, 0, 1), (1, 0, 0, 1))
    tail = tuple(i % 2 for i in range(n - len(head_x)))
    return head_x + tail, head_y + tail


def cross_check(pairs: List[Tuple[int, Word, Word]]) -> bool:
    """Structural size against the materialized oracle on small pairs."""
    seq, inter, balls = lib("sequence"), lib("intersect"), lib("balls")
    ok = True
    for q, xs, ys in pairs:
        x, y = seq.Sequence(xs, q), seq.Sequence(ys, q)
        fast = inter.intersection_size_fast(x, y).size
        oracle = len(balls.ball_intersection(x, y, balls.BallSpec(1, 1)))
        if fast != oracle:
            print(f"perfbench: cross-check mismatch q={q} x={digits(xs)} y={digits(ys)}: "
                  f"fast {fast}, oracle {oracle}", file=sys.stderr)
            ok = False
    return ok


class Workload:
    name = ""
    # > 1 when the workload also runs a Pool; ops_per_s then comes from
    # those units and ops_per_s_jobs1 from the single-process ones
    parallel_jobs = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.on_op: Callable[[Hashable], None] = lambda tag: None

    def unit(self) -> List[Unit]:
        """The work the timed loop repeats."""
        raise NotImplementedError

    def fixed_work(self, jobs: int = 1) -> List[Unit]:
        """A fixed amount of work that repeats exactly for a seed; the
        traced run and the baseline record use it."""
        return self.unit()

    def cross_pairs(self) -> List[Tuple[int, Word, Word]]:
        raise NotImplementedError


class _Sweep(Workload):
    """A ``delsub verify`` sweep; the latency samples are the time per pair
    between consecutive ``--progress`` lines (1/20 of the sweep each)."""

    q = n = pairs = 0
    bound: Optional[int] = None
    tag_kind = ""

    def argv(self, jobs: int) -> List[str]:
        raise NotImplementedError

    def call(self, jobs: int) -> Unit:
        self.on_op((self.q, self.n, self.tag_kind))
        started = time.perf_counter()
        try:
            rc, out, writes, start, end = call_cli(self.argv(jobs) + ["--format", "json", "--progress"])
            ok = rc == 0 and self._valid(json.loads(out))
        except Exception:
            report_failure(f"{self.name} sweep")
            return Unit(self.pairs, self.pairs, time.perf_counter() - started, [], [], jobs)
        latencies, phases = [], []
        last_t, last_k = start, 0
        for t, text in writes:
            m = _PROGRESS.match(text)
            if m:
                k = int(m.group(1))
                latencies.append((t - last_t) / (k - last_k))
                phases.append(t - last_t)
                last_t, last_k = t, k
        phases.append(end - last_t)
        return Unit(self.pairs, 0 if ok else self.pairs, end - start, latencies, phases, jobs)

    def _valid(self, doc: dict) -> bool:
        if doc["violations"] != 0 or doc["pairs_checked"] != self.pairs:
            return False
        return self.bound is None or (doc["max_size"] is not None and doc["max_size"] <= self.bound)


class VerifyN29(_Sweep):
    """``verify --scope theorem --q 2 --n 29 --samples 20000`` at --jobs 1,
    then at --jobs 2; the seed is the sweep's --seed."""

    name = "verify-n29"
    q, n, pairs = 2, 29, 20000
    bound = coverage_bound(29, 2)
    tag_kind = "sampled"
    parallel_jobs = 2

    def argv(self, jobs: int) -> List[str]:
        return ["verify", "--scope", "theorem", "--q", str(self.q), "--n", str(self.n),
                "--samples", str(self.pairs), "--seed", str(self.seed), "--jobs", str(jobs)]

    def unit(self) -> List[Unit]:
        return [self.call(1), self.call(2)]

    def fixed_work(self, jobs: int = 1) -> List[Unit]:
        return [self.call(jobs)]

    def cross_pairs(self):
        rng = random.Random(self.seed)
        out = []
        for k in (2, 3, 4, 6):
            x = random_word(rng, self.q, self.n)
            out.append((self.q, x, substitute(rng, x, self.q, k)))
        return out


class ClaimsN7(_Sweep):
    """``verify --scope claims --q 2 --n 7 --exhaustive --jobs 1``.  The
    sweep is exhaustive, so the seed only picks the cross-check pairs."""

    name = "claims-n7"
    q, n = 2, 7
    # ordered pairs at Hamming distance >= 2: each word against all but
    # itself and its n(q-1) neighbours at distance 1
    pairs = q**n * (q**n - 1 - n * (q - 1))
    tag_kind = "exhaustive"

    def argv(self, jobs: int) -> List[str]:
        return ["verify", "--scope", "claims", "--q", str(self.q), "--n", str(self.n),
                "--exhaustive", "--jobs", str(jobs)]

    def unit(self) -> List[Unit]:
        return [self.call(1)]

    def cross_pairs(self):
        rng = random.Random(self.seed)
        out = []
        for k in (2, 2, 3, 5):
            x = random_word(rng, self.q, self.n)
            out.append((self.q, x, substitute(rng, x, self.q, k)))
        return out


class IntersectLong(Workload):
    """``intersect --mode fast --format json`` once per pair.  The pass has
    a fixed mix in a fixed order; the seed draws the random words.  (A
    seeded order would make peak RSS depend on which large pairs ran
    before the oracle pairs.)

    For each q in {2, 3, 4} and n in {400, 1000}: the extremal pair and an
    adjacent transposition (expansion-heavy), and random words with 2, 4
    and 6 substitutions (scan-heavy).  Three pairs at distance <= 1 and
    n = 200-300 take the materialized-oracle fallback.
    """

    name = "intersect-long"
    D1_PAIRS = ((2, 300, 1), (3, 200, 1), (2, 200, 0))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        # (kind, q, n, d, x, y)
        self.pairs: List[Tuple[str, int, int, int, Word, Word]] = []
        for q in (2, 3, 4):
            for n in (400, 1000):
                self.pairs.append(("extremal", q, n, 2, *extremal(q, n)))
                x = random_word(rng, q, n)
                self.pairs.append(("adjswap", q, n, 2, x, adjacent_swap(rng, x)))
                for k in (2, 4, 6):
                    x = random_word(rng, q, n)
                    self.pairs.append(("random_d2", q, n, k, x, substitute(rng, x, q, k)))
        for q, n, d in self.D1_PAIRS:
            x = random_word(rng, q, n)
            self.pairs.append(("d1", q, n, d, x, substitute(rng, x, q, d)))

    def unit(self) -> List[Unit]:
        latencies, failed = [], 0
        start = time.perf_counter()
        for kind, q, n, d, x, y in self.pairs:
            self.on_op((q, n, kind))
            settle()
            try:
                rc, out, _, t0, t1 = call_cli(["intersect", "--q", str(q), "--x", digits(x),
                                               "--y", digits(y), "--mode", "fast", "--format", "json"])
                ok = rc == 0 and self._valid(json.loads(out), kind, q, n, d)
            except Exception:
                report_failure(f"intersect {kind} q={q} n={n}")
                failed += 1
                continue
            latencies.append(t1 - t0)
            failed += not ok
        phases = latencies if len(latencies) == len(self.pairs) else []
        return [Unit(len(self.pairs), failed, time.perf_counter() - start, latencies, phases)]

    @staticmethod
    def _valid(doc: dict, kind: str, q: int, n: int, d: int) -> bool:
        bound = coverage_bound(n, q)
        if doc["d"] != d or doc["n"] != n:
            return False
        if kind == "extremal":
            return doc["size"] == bound
        return d < 2 or doc["size"] <= bound

    def cross_pairs(self):
        rng = random.Random(self.seed)
        out = []
        for q in (2, 3, 4):
            out.append((q, *extremal(q, 40)))
            x = random_word(rng, q, 60)
            out.append((q, x, adjacent_swap(rng, x)))
            for k in (0, 1, 2, 4):
                x = random_word(rng, q, 60)
                out.append((q, x, substitute(rng, x, q, k)))
        return out


class DecodeQ4N40(Workload):
    """Seeded trials on ``Codebook.parity(40, 4)``: collect distinct reads
    with ``channel_transmit``, then time one ``reconstruct()`` call.  A
    unit is one trial at each read count."""

    name = "decode-q4n40"
    q, n = 4, 40
    REQUIRED = coverage_bound(40, 4) + 1        # required_reads(40, 4) = 307
    READ_COUNTS = (1, 154, REQUIRED)
    SUB_PROB = 0.5
    MAX_DRAWS = 10000                            # the simulate command's default
    FIXED_ROUNDS = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.rng = random.Random(seed)
        self.codebook = lib("reconstruct").Codebook.parity(self.n, self.q)

    def unit(self) -> List[Unit]:
        return [self._round(self.rng)]

    def fixed_work(self, jobs: int = 1) -> List[Unit]:
        rng = random.Random(self.seed)
        return [self._round(rng) for _ in range(self.FIXED_ROUNDS)]

    def _codeword(self, rng: random.Random) -> Word:
        prefix = random_word(rng, self.q, self.n - 1)
        return prefix + ((-sum(prefix)) % self.q,)

    def _round(self, rng: random.Random) -> Unit:
        latencies, failed, stats = [], 0, Counter()
        start = time.perf_counter()
        for wanted in self.READ_COUNTS:
            self.on_op((self.q, self.n, f"reads={wanted}"))
            try:
                ok, seconds = self._trial(rng, wanted, stats)
            except Exception:
                report_failure(f"decode at {wanted} reads")
                failed += 1
                continue
            latencies.append(seconds)
            failed += not ok
        seconds = time.perf_counter() - start
        return Unit(len(self.READ_COUNTS), failed, seconds, latencies, [seconds], stats=stats)

    def _trial(self, rng: random.Random, wanted: int, stats: Counter) -> Tuple[bool, float]:
        rec = lib("reconstruct")
        codeword = self._codeword(rng)
        x = lib("sequence").Sequence(codeword, self.q)
        distinct = set()
        draws = 0
        while len(distinct) < wanted and draws < self.MAX_DRAWS:
            distinct.add(rec.channel_transmit(x, self.SUB_PROB, rng=rng).symbols)
            draws += 1
        reads = rec.ReadSet(distinct, self.q, self.n - 1, raw_count=draws)
        t0 = time.perf_counter()
        result = rec.reconstruct(reads, self.codebook)
        seconds = time.perf_counter() - t0
        found = [c.symbols for c in result.candidates]
        unique_correct = result.outcome == "unique" and found == [codeword]
        stats["draws"] += draws
        stats["distinct"] += len(distinct)
        stats[f"trials.reads_{wanted}"] += 1
        stats[f"unique_correct.reads_{wanted}"] += unique_correct
        # fewer distinct reads than requested is the simulate shortfall
        # defect; it counts as a failure, never as a skip
        ok = len(distinct) == wanted and codeword in found
        if wanted >= self.REQUIRED:
            ok = ok and unique_correct
        return ok, seconds

    def cross_pairs(self):
        rng = random.Random(self.seed)
        out = []
        for _ in range(3):
            x = self._codeword(rng)
            y = self._codeword(rng)
            while y == x:
                y = self._codeword(rng)
            out.append((self.q, x, y))
        return out


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (VerifyN29, ClaimsN7, IntersectLong, DecodeQ4N40)
}
