"""Command-line surface: ball materialization, intersection reports,
verification sweeps, and channel simulation.

Data goes to stdout as plain text, JSON, or CSV; progress goes to
stderr.  Exit status: 0 clean / verified, 1 a sweep found violations
(or a fast-vs-oracle cross-check mismatched), 2 usage or budget errors,
141 when the reader closed stdout early.
Every randomized command takes an explicit seed and is deterministic
given its full flag set.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time
from collections import Counter
from contextlib import nullcontext
from functools import lru_cache, partial
from itertools import chain, islice, product
from math import log10
from multiprocessing import Pool
from operator import ne
from struct import calcsize
from typing import Iterable, Iterator, List, Optional, Tuple

from .balls import (
    BallSpec, BudgetExceededError, DEFAULT_BUDGET, _check_budget, ball_intersection, ds_ball,
    substitution_ball_size,
)
from .intersect import (
    IntersectionReport,
    bound_applicable,
    constant_regime_bound,
    coverage_bound,
    _packed_bound,
    _packed_shifts,
    _pair_report,
    intersection_size_fast,
    min_valid_length,
    verify_claims,
    verify_lemmas,
)
from .reconstruct import Codebook, ReadSet, channel_transmit, reconstruct
from .sequence import Sequence, Word, field_code, hamming

PAIR_CAP = 4_000_000
# pairs per sampled verify task, and at most per exhaustive one (whole words
# x) unless one x has more partners; a worker returns one result per task
CHUNK = 256
# symbols of the pairs a verify task draws ahead before checking them: a
# whole task at small n, one pair at a time for long words
BATCH_SYMBOLS = 1 << 14
# violation details kept in the verify report
SAMPLE_LIMIT = 10
SCOPES = ("claims", "theorem", "lemmas", "remark5")
# a pair of a verify task: its two words
PairItem = Tuple[Word, Word]


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delsub",
        description=(
            "Error-ball combinatorics and reconstruction for the q-ary "
            "single-deletion single-substitution channel"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ball = sub.add_parser("ball", help="materialize an error ball")
    p_ball.add_argument("--q", type=int, required=True, help="alphabet size")
    p_ball.add_argument("--x", type=str, required=True, help="word (digit string)")
    p_ball.add_argument("--t", type=int, default=0, help="deletions (exact)")
    p_ball.add_argument("--s", type=int, default=0, help="substitutions (at most)")
    p_ball.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="bytes the materialized ball may take")
    _add_format(p_ball)
    p_ball.set_defaults(func=cmd_ball)

    p_int = sub.add_parser("intersect", help="(1,1)-ball intersection of two words")
    p_int.add_argument("--q", type=int, required=True)
    p_int.add_argument("--x", type=str, required=True)
    p_int.add_argument("--y", type=str, required=True)
    p_int.add_argument(
        "--mode", choices=("fast", "oracle", "both"), default="fast",
        help="structural path, materialized oracle, or cross-checked both",
    )
    p_int.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="bytes a materialized ball may take in --mode oracle|both",
    )
    _add_format(p_int)
    p_int.set_defaults(func=cmd_intersect)

    p_ver = sub.add_parser("verify", help="sweep structural facts over word pairs")
    p_ver.add_argument("--scope", choices=SCOPES, required=True)
    p_ver.add_argument("--q", type=int, required=True)
    p_ver.add_argument("--n", type=int, required=True)
    mode = p_ver.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true", help="all ordered pairs")
    mode.add_argument("--samples", type=int, help="number of sampled pairs")
    p_ver.add_argument("--seed", type=int,
                       help="required with --samples, refused with --exhaustive")
    p_ver.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at most one per core")
    p_ver.add_argument("--progress", action="store_true", help="progress lines on stderr")
    _add_format(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="transmit/reconstruct Monte Carlo")
    p_sim.add_argument("--q", type=int, required=True)
    book = p_sim.add_mutually_exclusive_group(required=True)
    book.add_argument("--parity", action="store_true", help="single parity-check codebook")
    book.add_argument("--codebook", type=str, help="newline-delimited codeword file")
    p_sim.add_argument("--n", type=int, help="codeword length (parity codebook)")
    p_sim.add_argument(
        "--reads", type=str, required=True,
        help="comma-separated distinct-read counts, e.g. 1,54,108",
    )
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--sub-prob", type=float, default=0.5)
    p_sim.add_argument(
        "--max-draws", type=int, default=10000,
        help="channel uses allowed per trial while collecting distinct reads",
    )
    p_sim.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="bytes a parity decode's candidate pool may take")
    _add_format(p_sim)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain", dest="fmt"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so that a closed pipe is caught below
        return code
    except BrokenPipeError:
        # the reader closed stdout (`delsub ball ... | head -1`): stop with
        # the status of a SIGPIPE death, as cat does, and send what is left
        # in the buffer to /dev/null so the flush at exit cannot fail
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141
    except (BudgetExceededError, ValueError, OSError) as exc:
        _emit_error(str(exc), args)
        return 2


def _emit_error(message: str, args) -> None:
    fmt = getattr(args, "fmt", "plain")
    if fmt == "json":
        print(json.dumps({"error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# ball


def cmd_ball(args) -> int:
    x = Sequence.parse(args.x, args.q)
    # the ball is freed once its members are strings, before any output is
    # built, so that the budget bounds the command's peak
    ball = sorted(ds_ball(x, BallSpec(args.t, args.s), budget=args.budget))
    members = [str(Sequence._wrap(w, args.q)) for w in ball]
    del ball
    payload = {
        "command": "ball",
        "q": args.q,
        "x": str(x),
        "t": args.t,
        "s": args.s,
        "size": len(members),
        "members": members,
    }
    _print_result(args.fmt, payload, ["member"], ([m] for m in members),
                  chain([f"ball of {x} with t={args.t}, s={args.s}: size {len(members)}"], members))
    return 0


# ---------------------------------------------------------------------------
# intersect


def cmd_intersect(args) -> int:
    x = Sequence.parse(args.x, args.q)
    y = Sequence.parse(args.y, args.q)
    if args.mode == "oracle":
        size = len(ball_intersection(x, y, BallSpec(1, 1), budget=args.budget))
        n, d = len(x), hamming(x, y)
        report = IntersectionReport(
            n=n, q=args.q, d=d, size=size, method="oracle",
            bound=coverage_bound(n, args.q), bound_applicable=bound_applicable(n, args.q, d),
        )
    else:
        report = intersection_size_fast(x, y)
    oracle_size: Optional[int] = None
    match: Optional[bool] = None
    if args.mode == "both":
        oracle_size = len(ball_intersection(x, y, BallSpec(1, 1), budget=args.budget))
        match = report.size == oracle_size
    payload = {"command": "intersect", "mode": args.mode, "x": str(x), "y": str(y),
               **report.to_dict(), "oracle_size": oracle_size, "match": match}
    cols = ["n", "q", "d", "size", "method", "bound", "bound_applicable",
            "oracle_size", "match"]
    lines = [f"|ball({x}) & ball({y})| = {payload['size']}  (method: {payload['method']})",
             f"n={payload['n']} q={payload['q']} d={payload['d']} "
             f"bound={payload['bound']} applicable={payload['bound_applicable']}"]
    if payload["group_sizes"]:
        groups = ", ".join(f"{k}={v}" for k, v in sorted(payload["group_sizes"].items()))
        lines.append(f"group sizes: {groups}")
    if args.mode == "both":
        lines.append(f"oracle size: {oracle_size}  match: {match}")
    _print_result(args.fmt, payload, cols, [[payload[c] for c in cols]], lines)
    if match is False:
        return 1
    return 0


# ---------------------------------------------------------------------------
# verify


def _check_task(
    q: int, n: int, scope: str, limit: Optional[int], min_d: int,
    samples: Optional[int], seed: Optional[int], k: int,
):
    """Builds task k's pairs, exhaustive when ``samples`` is None, else
    drawn from the stream seeded with the string f"{seed}:{k}" (hashed with
    sha512, so independent of PYTHONHASHSEED), and checks them in order
    against ``limit`` (the size bound of ``theorem`` and ``remark5``; None
    for the claims scopes).  Pairs are drawn ahead in batches of at most
    BATCH_SYMBOLS symbols (at least one pair), so a task at small n draws
    all its pairs first and long words still stream one pair at a time.

    A bounded scope bounds each pair of a batch on its packed words
    (:func:`delsub.intersect._packed_bound`, 0 for a pair with no deleted
    pair within distance 2) and visits the pairs by descending bound,
    ties in stream order.  A pair matters only if its size can exceed the
    limit, exceed the running maximum, or equal the maximum ahead of the
    pair that first reached it; so the batch stops at the first bound
    below the smaller of the limit and the maximum, and a pair whose
    bound is at most its floor (that smaller value, one less for a tie
    ahead of the witness; -1 before the first size) is skipped.  The
    others go from the symbol tuples to :func:`delsub.intersect._pair_report`
    at the same floor, which first bounds them by their keys and reports
    only a pair that passes both bounds; the task reads the report's size.
    Violations are reported in stream order and the witness is the first
    pair in stream order reaching the maximum, so the result is that of
    sizing every pair in order.  A pair is wrapped in ``Sequence`` only to
    print it.  Returns one small result: (pairs checked, the first
    SAMPLE_LIMIT violation details, violation count, failed-check counts,
    max size | None, first pair reaching it)."""
    if samples is None:
        pairs = _exhaustive_pairs(q, n, min_d, k)
    else:
        pairs = _sampled_pairs(random.Random(f"{seed}:{k}"), q, n,
                               min(CHUNK, samples - k * CHUNK), min_d, scope == "remark5")
    per_batch = max(1, BATCH_SYMBOLS // (2 * n))
    batches = iter(lambda: list(islice(pairs, per_batch)), [])
    checked = violations = 0
    details: List[dict] = []
    failed: Counter = Counter()
    max_size: Optional[int] = None
    witness: Optional[Tuple[Word, Word]] = None
    for batch in batches:
        checked += len(batch)
        # (batch index, detail) of each violation
        found: List[Tuple[int, dict]] = []
        if limit is None:
            for i, (xs, ys) in enumerate(batch):
                x = Sequence._wrap(xs, q)
                y = Sequence._wrap(ys, q)
                # looked up by name per pair, so a patched or wrapped module
                # global is the one called
                checks = verify_claims(x, y) if scope == "claims" else verify_lemmas(x, y)
                names = [c.name for c in checks if not c.passed]
                if names:
                    failed.update(names)
                    found.append((i, {"x": str(x), "y": str(y), "failed": names}))
        else:
            bounds = [_packed_bound(xs, ys, q) for xs, ys in batch]
            # the batch index of the witness; -1 while it is from an earlier batch
            lead = -1
            # descending bound, ties in stream order (the sort is stable)
            for i in sorted(range(len(batch)), key=bounds.__getitem__, reverse=True):
                bound, floor = bounds[i], -1
                if max_size is not None:
                    if bound < min(limit, max_size):
                        break
                    floor = min(limit, max_size - (i < lead))
                    if bound <= floor:
                        continue
                xs, ys = batch[i]
                report = _pair_report(xs, ys, q, None, floor)
                if report is None:
                    continue
                size = report.size
                if max_size is None or size > max_size or (size == max_size and i < lead):
                    max_size, witness, lead = size, (xs, ys), i
                if size > limit:
                    found.append((i, {"x": str(Sequence._wrap(xs, q)),
                                      "y": str(Sequence._wrap(ys, q)),
                                      "size": size, "limit": limit}))
            found.sort()
        violations += len(found)
        details += [detail for _, detail in found[:SAMPLE_LIMIT - len(details)]]
    return checked, details, violations, failed, max_size, witness


def _far_words(q: int, n: int, min_d: int) -> int:
    """Words at Hamming distance >= min_d from any one length-n word."""
    return q**n - substitution_ball_size(n, q, min_d - 1)


def _words_per_task(q: int, n: int, min_d: int) -> int:
    """Words x per exhaustive task: as many as fit in CHUNK pairs, at least one."""
    return max(1, CHUNK // _far_words(q, n, min_d))


def _exhaustive_pairs(q: int, n: int, min_d: int, k: int) -> Iterator[PairItem]:
    """Task k's pairs: words k*w to (k+1)*w - 1 of the product of all
    words (w = _words_per_task), each paired x-major with every partner at
    distance >= min_d, so tasks 0, 1, ... walk the whole sweep in order."""
    w = _words_per_task(q, n, min_d)
    words = partial(product, range(q), repeat=n)
    return (
        (xs, ys) for xs in islice(words(), k * w, (k + 1) * w) for ys in words()
        if sum(map(ne, xs, ys)) >= min_d
    )


@lru_cache(maxsize=None)
def _byte_map(m: int) -> Tuple[bytes, bytes]:
    """For 1 <= m <= 256: the table of b mod m, and the bytes _draw rejects."""
    return bytes(b % m for b in range(256)), bytes(range(256 - 256 % m, 256))


def _draw(rng: random.Random, m: int, count: int) -> bytes | List[int]:
    """``count`` independent values uniform on range(m), m >= 1: up to m =
    256, the bytes b of ``rng.randbytes`` below 256 - 256 mod m, as b mod m
    (more bytes are drawn only when too few are left); past it, by
    ``rng.randrange``, which rejects wider random bits the same way."""
    if m > 256:
        return [rng.randrange(m) for _ in range(count)]
    table, rejected = _byte_map(m)
    out = rng.randbytes(count).translate(table, rejected)
    while len(out) < count:
        out += rng.randbytes(count - len(out)).translate(table, rejected)
    return out


def _sampled_pairs(
    rng: random.Random, q: int, n: int, count: int, min_d: int, need_shift: bool
) -> Iterator[PairItem]:
    """Seeded pairs, every random value drawn by :func:`_draw`: a uniform
    x, then by a fair coin either y = x with k substitutions (k uniform on
    [min_d, min(n, min_d + 4)], at the first k distinct values of a uniform
    stream below n, offsets uniform on 1..q-1) or a uniform y, the pair
    drawn again when closer than min_d.  ``need_shift`` also requires that
    the words share no length n-1 subsequence (the constant-regime
    hypothesis): both sides shift (:func:`delsub.intersect._packed_shifts`)."""
    while count:
        xs = tuple(_draw(rng, q, n))
        if _draw(rng, 2, 1)[0]:
            k = min_d + _draw(rng, min(n, min_d + 4) - min_d + 1, 1)[0]
            positions: dict = {}
            while len(positions) < k:
                positions.update(dict.fromkeys(_draw(rng, n, k - len(positions))))
            ys_list = list(xs)
            for p, offset in zip(positions, _draw(rng, q - 1, k)):
                ys_list[p] = (xs[p] + 1 + offset) % q
            ys = tuple(ys_list)
        else:
            ys = tuple(_draw(rng, q, n))
            if sum(map(ne, xs, ys)) < min_d:
                continue
        if need_shift and not _packed_shifts(xs, ys, q):
            continue
        count -= 1
        yield xs, ys


def cmd_verify(args) -> int:
    if args.samples is not None and args.seed is None:
        raise ValueError("--samples requires --seed")
    if args.exhaustive and args.seed is not None:
        raise ValueError("--exhaustive draws no pair, so it takes no --seed")
    if args.samples is not None and args.samples < 1:
        raise ValueError("--samples must be positive")
    if args.jobs < 1:
        raise ValueError("--jobs must be positive")
    q, n, scope = args.q, args.n, args.scope
    if q < 2:
        raise ValueError("alphabet size must be at least 2")
    if scope in ("theorem", "remark5") and n < min_valid_length(q):
        raise ValueError(
            f"scope {scope} needs n >= {min_valid_length(q)} for q = {q}"
        )
    min_d = 3 if scope == "remark5" else 2
    if n < min_d:
        # the only way the pair set can be empty; checked before sampling,
        # which could never meet the distance
        raise ValueError(f"no pair of length-{n} words lies at Hamming distance >= {min_d}")
    limit = (
        coverage_bound(n, q) if scope == "theorem"
        else constant_regime_bound(q) if scope == "remark5"
        else None
    )
    if args.exhaustive and (
        n * (q.bit_length() - 1) >= 22 or q**n * (q**n - 1) > PAIR_CAP
    ):
        # q^n >= 2^(n (bits of q - 1)), so past 2^22 the cap is exceeded with
        # no power built; a count of over 4000 digits is not spelled out
        count = q**n * (q**n - 1) if 2 * n * log10(q) <= 4000 else f"{q}^{n} ({q}^{n} - 1)"
        raise ValueError(f"{count} ordered pairs exceed the exhaustive cap of {PAIR_CAP}; "
                         "use --samples with --seed")
    # one pair's draw: two words as tuples, as drawn bytes (past a byte, a
    # list of ints) and, in a bounded scope, packed into ints
    drawn = 33 + n if q <= 256 else 56 + 36 * n
    packed = 0 if limit is None else 28 + n * calcsize(field_code(q))
    _check_budget(f"one pair of the sweep at n={n}, q={q}",
                  2 * (40 + 8 * n + drawn + packed), DEFAULT_BUDGET)
    # a sweep is a run of tasks 0, 1, ..., which the workers build, check
    # and reduce: CHUNK sampled pairs each, or all pairs of whole words x;
    # the parent holds no pair and merges one result per task, in task
    # order, so the output is the same for every --jobs
    if args.exhaustive:
        mode, total = "exhaustive", q**n * _far_words(q, n, min_d)
        tasks = range(-(-q**n // _words_per_task(q, n, min_d)))
    else:
        mode, total = "sampled", args.samples
        tasks = range(-(-total // CHUNK))
    work = partial(_check_task, q, n, scope, limit, min_d, args.samples, args.seed)
    start = time.perf_counter()

    samples: List[dict] = []
    violations = checked = 0
    failed_checks: Counter = Counter()
    max_size: Optional[int] = None
    witness: Optional[Tuple[Word, Word]] = None
    step = -(-total // 20)
    # more workers than cores only add start-up cost and memory
    jobs = min(args.jobs, os.cpu_count() or 1)
    with Pool(jobs) if jobs > 1 else nullcontext() as pool:
        results = map(work, tasks) if pool is None else pool.imap(work, tasks)
        for count, details, found, failed, size, pair in results:
            previous, checked = checked, checked + count
            violations += found
            samples += details[:SAMPLE_LIMIT - len(samples)]
            failed_checks.update(failed)
            if size is not None and (max_size is None or size > max_size):
                max_size, witness = size, pair
            if args.progress and (checked // step > previous // step or checked == total):
                elapsed = time.perf_counter() - start
                print(f"checked {checked}/{total} {elapsed:.2f}s "
                      f"{checked / elapsed:.0f} pairs/s", file=sys.stderr)

    payload = {
        "command": "verify",
        "scope": scope,
        "q": q,
        "n": n,
        "mode": mode,
        "seed": args.seed,
        "pairs_checked": checked,
        "violations": violations,
        "failed_checks": dict(sorted(failed_checks.items())),
        "max_size": max_size,
        "max_witness": None if witness is None else {
            "x": str(Sequence._wrap(witness[0], q)), "y": str(Sequence._wrap(witness[1], q))
        },
        "bound": limit,
        "violation_samples": samples,
    }
    cols = ["scope", "q", "n", "mode", "pairs_checked", "violations", "max_size", "bound"]
    summary = (f"verify {scope}: q={q} n={n} {mode} pairs={checked} violations={violations}"
               + (f" max_size={max_size} bound={limit}" if limit is not None else ""))
    _print_result(args.fmt, payload, cols, [[payload[c] for c in cols]],
                  [summary, *(f"  violation: {v}" for v in samples)])
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    if args.parity:
        if args.n is None:
            raise ValueError("--parity requires --n")
        codebook = Codebook.parity(args.n, args.q)
    elif args.n is not None:
        raise ValueError("--codebook sets the length, so it takes no --n")
    else:
        codebook = Codebook.load(args.codebook, args.q)
    read_counts = [int(part) for part in args.reads.split(",")]
    if any(r < 1 for r in read_counts):
        raise ValueError("read counts must be positive")
    if args.trials < 1 or args.max_draws < 1:
        raise ValueError("--trials and --max-draws must be positive")
    ball_cap = codebook.n * (1 + (codebook.q - 1) * (codebook.n - 1))
    if max(read_counts) > ball_cap:
        raise ValueError(
            f"{max(read_counts)} distinct reads requested, but a (1,1)-ball at "
            f"n={codebook.n}, q={codebook.q} holds at most {ball_cap}"
        )
    rng = random.Random(args.seed)
    rows = []
    for requested in read_counts:
        outcomes = Counter()
        shortfall = distinct_total = 0
        for _ in range(args.trials):
            codeword = codebook.sample_word(rng)
            distinct = set()
            draws = 0
            while len(distinct) < requested and draws < args.max_draws:
                out = channel_transmit(codeword, args.sub_prob, rng=rng)
                distinct.add(out.symbols)
                draws += 1
            shortfall += len(distinct) < requested
            distinct_total += len(distinct)
            reads = ReadSet(distinct, codebook.q, codebook.n - 1, raw_count=draws)
            result = reconstruct(reads, codebook, args.budget)
            outcome = result.outcome
            if outcome == "unique":
                outcome = "unique_correct" if result.codeword == codeword else "unique_wrong"
            outcomes[outcome] += 1
        successes = outcomes["unique_correct"]
        rows.append(
            {
                "reads_requested": requested,
                "trials": args.trials,
                "successes": successes,
                "rate": successes / args.trials,
                "shortfall_trials": shortfall,
                **{key: outcomes[key] for key in
                   ("unique_correct", "unique_wrong", "ambiguous", "infeasible")},
                "mean_distinct_reads": distinct_total / args.trials,
            }
        )
        if shortfall:
            print(
                f"warning: {shortfall}/{args.trials} trials at reads={requested} hit "
                f"--max-draws {args.max_draws} with fewer distinct reads",
                file=sys.stderr,
            )
    payload = {
        "command": "simulate",
        "q": codebook.q,
        "n": codebook.n,
        "codebook": "parity" if args.parity else args.codebook,
        "trials": args.trials,
        "seed": args.seed,
        "substitution_probability": args.sub_prob,
        "rows": rows,
    }
    cols = ["reads_requested", "trials", "successes", "rate"]
    lines = [f"simulate: q={codebook.q} n={codebook.n} trials={args.trials} seed={args.seed}"]
    lines += [f"  reads={row['reads_requested']:>6}  successes={row['successes']}/"
              f"{row['trials']}  rate={row['rate']:.4f}" for row in rows]
    _print_result(args.fmt, payload, cols, [[row[c] for c in cols] for row in rows], lines)
    return 0


def _print_result(
    fmt: str, payload: dict, header: List[str], rows: Iterable[list], lines: Iterable[str]
) -> None:
    """Print a command's result in its format: ``payload`` as indented
    JSON, ``header`` and ``rows`` as CSV, or ``lines`` as plain text.
    ``rows`` and ``lines`` may be lazy, so a large ball builds only the
    form it prints."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in lines:
            print(line)


if __name__ == "__main__":
    raise SystemExit(main())
