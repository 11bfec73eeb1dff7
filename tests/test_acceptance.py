"""Acceptance suite: every exit criterion at its stated scale.

Each test registers one scorecard line (see conftest) and then asserts.
The exhaustive binary/ternary sweeps are shared by the oracle, group,
and fact criteria through a session fixture, so the expensive pass over
those domains happens once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import List, Tuple

import pytest

from delsub import (
    BallSpec,
    Codebook,
    ReadSet,
    Sequence,
    ball_intersection,
    coverage_bound,
    ds_ball,
    extremal_pair,
    intersection_size_fast,
    min_valid_length,
    reconstruct,
    required_reads,
    sub_intersection_size,
    substitution_ball,
    verify_claims,
    verify_lemmas,
)
from delsub.balls import ds11_packed

from conftest import record_criterion
from helpers import lcs_length, read_set

Word = Tuple[int, ...]

BASE_SEED = 20250809
EXHAUSTIVE_BINARY_LENGTHS = tuple(range(4, 10))
RANDOM_COMBOS = tuple((q, n) for q in (2, 3, 4, 5) for n in (10, 20, 30, 40))
RANDOM_PAIRS_PER_COMBO = 10_000
BOUND_SAMPLE_PAIRS = 100_000
REMARK5_SAMPLES = 10_000
DECODE_TRIALS = 1_000
PUBLIC_ORACLE_SPOTCHECKS = 200


def sample_pair(rng: random.Random, q: int, n: int, min_d: int = 0) -> Tuple[Word, Word]:
    """Seeded pair: half the draws apply a small random substitution
    pattern to a uniform word (the structurally interesting regime), half
    are uniform pairs, all meeting the minimum Hamming distance."""
    xs = tuple(rng.randrange(q) for _ in range(n))
    if rng.random() < 0.5:
        lo = max(min_d, 1)
        k = rng.randint(lo, min(n, lo + 5))
        ys_list = list(xs)
        for p in rng.sample(range(n), k):
            ys_list[p] = (xs[p] + 1 + rng.randrange(q - 1)) % q
        return xs, tuple(ys_list)
    while True:
        ys = tuple(rng.randrange(q) for _ in range(n))
        if sum(a != b for a, b in zip(xs, ys)) >= min_d:
            return xs, ys


@dataclass
class DomainSweep:
    q: int
    n: int
    pairs: int = 0
    d2_pairs: int = 0
    oracle_mismatches: List[tuple] = field(default_factory=list)
    group_mismatches: List[tuple] = field(default_factory=list)
    fact_failures: List[tuple] = field(default_factory=list)
    spotcheck_failures: List[tuple] = field(default_factory=list)


def run_domain(q: int, n: int) -> DomainSweep:
    """One pass over all ordered word pairs of a domain: fast-vs-oracle
    sizes everywhere, group and fact verification wherever the Hamming
    distance is at least 2."""
    words = list(product(range(q), repeat=n))
    packed = [ds11_packed(w, q) for w in words]
    seqs = [Sequence._wrap(w, q) for w in words]
    sweep = DomainSweep(q, n)
    for i, x in enumerate(seqs):
        ball_x = packed[i]
        for k, y in enumerate(seqs):
            sweep.pairs += 1
            report = intersection_size_fast(x, y)
            oracle = len(ball_x & packed[k])
            if report.size != oracle:
                sweep.oracle_mismatches.append((str(x), str(y), report.size, oracle))
            if report.d >= 2:
                sweep.d2_pairs += 1
                for check in verify_claims(x, y):
                    if not check.passed:
                        sweep.group_mismatches.append((str(x), str(y), check.name))
                for check in verify_lemmas(x, y):
                    if not check.passed:
                        sweep.fact_failures.append(
                            (str(x), str(y), check.name, check.detail)
                        )
    # tie the precomputed packed balls back to the public oracle entry point
    rng = random.Random(BASE_SEED + 100 * q + n)
    for _ in range(PUBLIC_ORACLE_SPOTCHECKS):
        i = rng.randrange(len(seqs))
        k = rng.randrange(len(seqs))
        public = len(ball_intersection(seqs[i], seqs[k], BallSpec(1, 1)))
        if public != len(packed[i] & packed[k]):
            sweep.spotcheck_failures.append((str(seqs[i]), str(seqs[k])))
    return sweep


@pytest.fixture(scope="session")
def exhaustive_sweeps():
    sweeps = [run_domain(2, n) for n in EXHAUSTIVE_BINARY_LENGTHS]
    sweeps.append(run_domain(3, 5))
    return sweeps


def test_criterion_1_oracle_equivalence(exhaustive_sweeps):
    failures = []
    pairs = 0
    for sweep in exhaustive_sweeps:
        pairs += sweep.pairs
        failures.extend(sweep.oracle_mismatches)
        failures.extend(sweep.spotcheck_failures)
    for q, n in RANDOM_COMBOS:
        rng = random.Random(BASE_SEED + 10_000 * q + n)
        for _ in range(RANDOM_PAIRS_PER_COMBO):
            xs, ys = sample_pair(rng, q, n)
            x, y = Sequence._wrap(xs, q), Sequence._wrap(ys, q)
            fast = intersection_size_fast(x, y).size
            oracle = len(ball_intersection(x, y, BallSpec(1, 1)))
            pairs += 1
            if fast != oracle:
                failures.append((str(x), str(y), fast, oracle))
    passed = not failures
    record_criterion(
        1,
        "oracle equivalence (exhaustive binary n=4..9, ternary n=5, "
        "10^4 random pairs per (q, n) combo)",
        passed,
        f"{pairs} pairs",
    )
    assert passed, failures[:5]


def test_criterion_2_group_construction(exhaustive_sweeps):
    failures = []
    d2_pairs = 0
    for sweep in exhaustive_sweeps:
        d2_pairs += sweep.d2_pairs
        failures.extend(sweep.group_mismatches)
    passed = not failures
    record_criterion(
        2,
        "direct group construction matches the exhaustive scan groupwise",
        passed,
        f"{d2_pairs} pairs at distance >= 2, 20 groups each",
    )
    assert passed, failures[:5]


def test_criterion_3_tightness_q3():
    sizes = {}
    for n in range(5, 41):
        x, y = extremal_pair(3, n)
        sizes[n] = intersection_size_fast(x, y).size
    lower_ok = all(sizes[n] >= 2 * 3 * n - 3 * 3 - 2 for n in range(5, 41))
    x17, y17 = extremal_pair(3, 17)
    oracle17 = len(ball_intersection(x17, y17, BallSpec(1, 1)))
    exact_ok = sizes[17] == 91 and oracle17 == 91 and coverage_bound(17, 3) == 91
    passed = lower_ok and exact_ok
    record_criterion(
        3,
        "q=3 construction: size 91 at n=17 (oracle-confirmed), "
        "size >= 6n-11 for n in [5, 40]",
        passed,
        f"n=17 fast {sizes[17]}, oracle {oracle17}",
    )
    assert passed, sizes


def test_criterion_4_tightness_q2():
    sizes = {}
    for n in range(4, 41):
        x, y = extremal_pair(2, n)
        sizes[n] = intersection_size_fast(x, y).size
    lower_ok = all(sizes[n] >= 4 * n - 9 for n in range(4, 41))
    x29, y29 = extremal_pair(2, 29)
    oracle29 = len(ball_intersection(x29, y29, BallSpec(1, 1)))
    exact_ok = sizes[29] == 107 and oracle29 == 107 and coverage_bound(29, 2) == 107
    passed = lower_ok and exact_ok
    record_criterion(
        4,
        "q=2 construction: size 107 at n=29 (oracle-confirmed), "
        "size >= 4n-9 for n in [4, 40]",
        passed,
        f"n=29 fast {sizes[29]}, oracle {oracle29}",
    )
    assert passed, sizes


def test_criterion_5_bound_sampling():
    results = []
    all_ok = True
    for q, n in ((2, 29), (3, 17)):
        bound = coverage_bound(n, q)
        rng = random.Random(BASE_SEED + 500 + q)
        ex, ey = extremal_pair(q, n)
        pairs: List[Tuple[Word, Word]] = [(ex.symbols, ey.symbols)]
        while len(pairs) < BOUND_SAMPLE_PAIRS:
            pairs.append(sample_pair(rng, q, n, min_d=2))
        violations = 0
        max_size = 0
        for xs, ys in pairs:
            size = intersection_size_fast(
                Sequence._wrap(xs, q), Sequence._wrap(ys, q)
            ).size
            if size > bound:
                violations += 1
            if size > max_size:
                max_size = size
        ok = violations == 0 and max_size == bound
        all_ok = all_ok and ok
        results.append(f"q={q} n={n}: max {max_size}/{bound}, {violations} violations")
    record_criterion(
        5,
        "10^5 sampled pairs with d >= 2 per combo never exceed the bound; "
        "the maximum equals it",
        all_ok,
        "; ".join(results),
    )
    assert all_ok, results


def test_criterion_6_fact_checks(exhaustive_sweeps):
    failures = []
    checked = 0
    for sweep in exhaustive_sweeps:
        checked += sweep.d2_pairs
        failures.extend(sweep.fact_failures)
    passed = not failures
    record_criterion(
        6,
        "every applicable cardinality/absorption fact holds on the "
        "exhaustive domains",
        passed,
        f"{checked} pairs",
    )
    assert passed, failures[:5]


def test_criterion_7_constant_regime():
    results = []
    all_ok = True
    for q in (2, 3, 4):
        n = min_valid_length(q)
        limit = 4 * q + 32
        rng = random.Random(BASE_SEED + 700 + q)
        violations = 0
        max_size = 0
        checked = 0
        while checked < REMARK5_SAMPLES:
            xs, ys = sample_pair(rng, q, n, min_d=3)
            if n - lcs_length(xs, ys) < 2:
                continue
            size = intersection_size_fast(
                Sequence._wrap(xs, q), Sequence._wrap(ys, q)
            ).size
            checked += 1
            if size > limit:
                violations += 1
            if size > max_size:
                max_size = size
        ok = violations == 0
        all_ok = all_ok and ok
        results.append(f"q={q}: max {max_size} <= {limit}, {violations} violations")
    record_criterion(
        7,
        "pairs with Hamming distance >= 3 and no shared length n-1 "
        "subsequence stay within 4q+32",
        all_ok,
        "; ".join(results),
    )
    assert all_ok, results


def test_criterion_8_reconstruction_end_to_end():
    q, n = 2, 29
    book = Codebook.parity(n, q)
    reads_needed = required_reads(n, q)
    assert reads_needed == 108
    rng = random.Random(BASE_SEED + 800)
    failures = []
    for trial in range(DECODE_TRIALS):
        codeword = book.sample_word(rng)
        ball = [Sequence(w, q) for w in sorted(ds_ball(codeword, BallSpec(1, 1)))]
        if len(ball) < reads_needed:
            failures.append((trial, "ball smaller than the read requirement"))
            continue
        reads = read_set(rng.sample(ball, reads_needed))
        result = reconstruct(reads, book)
        if result.outcome != "unique" or result.codeword != codeword:
            failures.append((trial, result.outcome))
    rate = (DECODE_TRIALS - len(failures)) / DECODE_TRIALS
    passed = rate == 1.0
    record_criterion(
        8,
        "108 distinct reads from any transmitted codeword's ball decode "
        "uniquely (q=2, n=29 parity codebook)",
        passed,
        f"success rate {rate:.3f} over {DECODE_TRIALS} trials",
    )
    assert passed, failures[:5]


def test_criterion_9_substitution_ball_microchecks():
    failures = []
    words_checked = 0
    pairs_checked = 0
    for q, n in ((2, 6), (3, 4)):
        words = [Sequence(w, q) for w in product(range(q), repeat=n)]
        balls = {}
        for x in words:
            ball = substitution_ball(x, 1)
            balls[x.symbols] = ball
            words_checked += 1
            if len(ball) != 1 + (q - 1) * n:
                failures.append((str(x), "ball size", len(ball)))
        for x in words:
            for y in words:
                pairs_checked += 1
                expected = len(balls[x.symbols] & balls[y.symbols])
                if sub_intersection_size(x, y) != expected:
                    failures.append((str(x), str(y), expected))
    passed = not failures
    record_criterion(
        9,
        "radius-1 substitution-ball sizes and pairwise intersections "
        "match brute force on binary n=6 and ternary n=4",
        passed,
        f"{words_checked} words, {pairs_checked} pairs",
    )
    assert passed, failures[:5]
