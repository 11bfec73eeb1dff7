import hashlib
import importlib
import random
import time
import tracemalloc
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delsub import (
    BallSpec,
    BudgetExceededError,
    Codebook,
    ReadSet,
    Sequence,
    channel_transmit,
    delete,
    ds_ball,
    extremal_pair,
    hamming,
    intersection_size_fast,
    min_valid_length,
    reconstruct,
    required_reads,
)
from delsub.reconstruct import (
    ReconResult,
    _one_read_peak_bytes,
    _survivors,
    inverse_ball_words,
    inverse_pair_words,
)

from helpers import (all_words, inverse_ball_oracle, membership_scan, parity_words, read_set,
                     sequences)


def seq(text, q=2):
    return Sequence.parse(text, q)


class TestCodebook:
    def test_parity_membership(self):
        book = Codebook.parity(4, 3)
        assert (book.kind, book.n, book.q, book.size()) == ("parity", 4, 3, 27)
        assert book.words is None

    def test_parity_minimum_distance_is_exactly_two(self):
        words = parity_words(3, 4)
        assert len(words) == Codebook.parity(4, 3).size() == 27
        dmin = min(hamming(a, b) for a, b in combinations(words, 2))
        assert dmin == 2

    def test_explicit_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Codebook.explicit([seq("0101"), seq("0101")])

    def test_explicit_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            Codebook.explicit([seq("0101"), seq("010")])

    def test_explicit_rejects_false_min_distance(self):
        words = [seq("000000"), seq("000001"), seq("111111")]
        with pytest.raises(ValueError):
            Codebook.explicit(words)
        assert Codebook.explicit(words[:1] + words[2:]).size() == 2

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "book.txt"
        path.write_text("# comment\n0101\n1010\n\n0011\n")
        book = Codebook.load(path, q=2)
        assert book.size() == 3
        assert book.words == (seq("0101").symbols, seq("1010").symbols, seq("0011").symbols)

    def test_sample_word_is_member_and_deterministic(self):
        book = Codebook.parity(10, 3)
        a = book.sample_word(random.Random(3))
        b = book.sample_word(random.Random(3))
        assert a == b
        assert len(a) == 10 and sum(a.symbols) % 3 == 0


class TestReadSet:
    def test_deduplication_and_raw_count(self):
        reads = read_set([seq("010"), seq("010"), seq("001")])
        assert len(reads) == 2
        assert reads.raw_count == 3

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            read_set([seq("010"), seq("0101")])

    def test_symbols_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            ReadSet([(0, 1, 5, 0)], 2, 4)
        with pytest.raises(ValueError, match="alphabet"):
            ReadSet([(0, 1, 1, 0), (0, -1, 1, 0)], 2, 4)
        assert len(ReadSet([(0, 1, 1, 0)], 2, 4)) == 1

    @pytest.mark.parametrize("q", [3, 256, 257, 1 << 65])
    def test_alphabet_edges(self, q):
        # the largest symbol passes; the next one, -1, a string and a
        # non-integer inside the range do not, and no set of the alphabet
        # is built at q = 2^65
        assert len(ReadSet([(0, q - 1), (q - 1, 0)], q, 2)) == 2
        for bad in (q, -1, "0", 1.5, q - 1.5):
            with pytest.raises(ValueError, match=f"outside the alphabet 0..{q - 1}$"):
                ReadSet([(0, 0), (bad, 0)], q, 2)


class TestChannel:
    def test_no_substitution_is_pure_deletion(self):
        x = seq("0110100")
        for s in range(25):
            out = channel_transmit(x, 0.0, seed=s)
            assert out.symbols in ds_ball(x, BallSpec(1, 0))

    def test_output_always_in_ball(self):
        x = seq("0120120", q=3)
        ball = ds_ball(x, BallSpec(1, 1))
        for s in range(50):
            assert channel_transmit(x, 0.9, seed=s).symbols in ball

    def test_deterministic_under_seed(self):
        x = seq("01101001")
        assert channel_transmit(x, 0.5, seed=9) == channel_transmit(x, 0.5, seed=9)

    def test_outputs_pass_membership(self):
        x = seq("0120120", q=3)
        for s in range(30):
            assert membership_scan(channel_transmit(x, 0.7, seed=s).symbols, x.symbols)

    def test_too_short(self):
        with pytest.raises(ValueError):
            channel_transmit(seq("0"), 0.5, seed=1)

    def test_requires_seed_or_rng(self):
        with pytest.raises(ValueError):
            channel_transmit(seq("0101"), 0.5)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            channel_transmit(seq("0101"), 1.5, seed=1)


class TestBallMembership:
    def test_pure_deletion_is_member(self):
        x = seq("011010")
        assert membership_scan(delete(x, 1).symbols, x.symbols)

    def test_exhaustive_against_materialized_ball(self):
        for x in all_words(2, 7):
            ball = ds_ball(x, BallSpec(1, 1))
            for y in all_words(2, 6):
                assert membership_scan(y.symbols, x.symbols) == (y.symbols in ball)

    @pytest.mark.parametrize("q,n", [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4)])
    def test_exhaustive_against_materialized_ball_larger_alphabets(self, q, n):
        reads = all_words(q, n - 1)
        for x in all_words(q, n):
            ball = ds_ball(x, BallSpec(1, 1))
            for y in reads:
                assert membership_scan(y.symbols, x.symbols) == (y.symbols in ball)

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2])
    def test_short_words_against_definition(self, q, n):
        # ds_ball needs t + s < n; here some deletion of x must lie
        # within Hamming distance 1 of y
        for x in all_words(q, n):
            xs = x.symbols
            for y in all_words(q, n - 1):
                expected = any(
                    hamming(Sequence(xs[:j] + xs[j + 1 :], q), y) <= 1 for j in range(n)
                )
                assert membership_scan(y.symbols, xs) == expected

    def test_far_read_rejected(self):
        x = Sequence((0,) * 6, 2)
        y = Sequence((1, 1, 0, 1, 1), 2)
        assert not membership_scan(y.symbols, x.symbols)

    @given(sequences(q=3, min_n=3, max_n=8), st.data())
    @settings(max_examples=60)
    def test_inverse_ball_consistency(self, x, data):
        n = len(x)
        y = data.draw(
            st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1).map(
                lambda t: Sequence(tuple(t), 3)
            )
        )
        member = membership_scan(y.symbols, x.symbols)
        assert member == (x.symbols in inverse_ball_words(y.symbols, x.q))

    @given(st.integers(2, 5).flatmap(
        lambda q: st.tuples(
            st.just(q), st.lists(st.integers(0, q - 1), min_size=2, max_size=12)
        )
    ))
    @settings(max_examples=150, deadline=None)
    def test_residue_restricts_inverse_ball(self, case):
        q, symbols = case
        y = tuple(symbols)
        full = inverse_ball_words(y, q)
        for r in range(q):
            expected = {w for w in full if sum(w) % q == r}
            assert inverse_ball_words(y, q, residue=r) == sorted(expected)

    def test_inverse_ball_matches_brute_force(self):
        for q, m in ((2, 5), (3, 3)):
            words = [w.symbols for w in all_words(q, m + 1)]
            for y in all_words(q, m):
                expected = {
                    w for w in words if y.symbols in ds_ball(Sequence(w, q), BallSpec(1, 1))
                }
                assert inverse_ball_words(y.symbols, q) == sorted(expected)

    @pytest.mark.parametrize("q,top", [(2, 8), (3, 5), (4, 4)])
    def test_inverse_ball_is_sorted_oracle_exhaustively(self, q, top):
        # sorted, each word once, and every word of the oracle's set
        for m in range(1, top + 1):
            for y in product(range(q), repeat=m):
                for residue in [None, *range(q)]:
                    assert inverse_ball_words(y, q, residue=residue) == sorted(
                        inverse_ball_oracle(y, q, residue)
                    ), (y, residue)


def scan_survivors(pool, reads):
    return sorted(w for w in pool if all(membership_scan(r, w) for r in reads))


@st.composite
def filter_cases(draw):
    """A pool of words near one word x and reads drawn from x by one
    deletion and up to two substitutions, or at random, so members and
    near misses both appear."""
    q = draw(st.sampled_from([2, 3, 4, 5, 256, 257, 300, 1 << 16, (1 << 16) + 1]))
    n = draw(st.integers(1, 60))
    symbol = st.integers(0, q - 1)
    x = draw(st.lists(symbol, min_size=n, max_size=n))
    pool = {tuple(x)}
    for p, a in draw(st.lists(st.tuples(st.integers(0, n - 1), symbol), max_size=4)):
        pool.add(tuple(x[:p] + [a] + x[p + 1 :]))
    reads = set()
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            read = x[:]
            del read[draw(st.integers(0, n - 1))]
            for p, a in draw(st.lists(st.tuples(st.integers(0, n - 1), symbol), max_size=2)):
                if p < n - 1:
                    read[p] = a
        else:
            read = draw(st.lists(symbol, min_size=n - 1, max_size=n - 1))
        reads.add(tuple(read))
    return q, n, sorted(pool), reads


class TestPackedFilter:
    """The decoder's packed filter against the per-symbol scan."""

    @pytest.mark.parametrize("q,top", [(2, 8), (3, 5), (4, 4)])
    def test_matches_scan_exhaustively(self, q, top):
        for n in range(1, top + 1):
            words = list(product(range(q), repeat=n))
            for y in product(range(q), repeat=n - 1):
                assert _survivors(words, [y], q, n) == scan_survivors(words, [y]), (q, y)

    @given(filter_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_on_drawn_cases(self, case):
        q, n, pool, reads = case
        assert _survivors(pool, reads, q, n) == scan_survivors(pool, reads)

    def test_matches_scan_at_n1000(self):
        rng = random.Random(1000)
        q, n = 4, 1000
        x = tuple(rng.randrange(q) for _ in range(n))
        pool = [x] + [x[:p] + ((x[p] + 1) % q,) + x[p + 1 :] for p in rng.sample(range(n), 20)]
        reads = set()
        for subs in [0] * 10 + [1] * 20 + [2] * 10:
            # x holds every read until the first one with two substitutions
            read = list(x)
            del read[rng.randrange(n)]
            for p in rng.sample(range(n - 1), subs):
                read[p] = (read[p] + 1) % q
            reads.add(tuple(read))
            got = _survivors(pool, reads, q, n)
            assert got == scan_survivors(pool, reads)
            assert (x in got) == (subs < 2)


class TestOneReadBudget:
    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("n", [40, 100])
    def test_peak_within_counted_bytes(self, q, n):
        # a read cycling through the alphabet has the most runs, and so
        # the largest inverse ball
        read = tuple(i % q for i in range(n - 1))
        book = Codebook.parity(n, q)
        bound = _one_read_peak_bytes(n, q)
        tracemalloc.start()
        try:
            result = reconstruct(ReadSet([read], q, n - 1), book, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.outcome == "ambiguous"
        assert peak <= bound

    def test_refused_before_the_pool_is_built(self, monkeypatch):
        # the module: the attribute delsub.reconstruct is the function
        rec = importlib.import_module("delsub.reconstruct")

        def forbidden(*args, **kwargs):
            raise AssertionError("inverse ball built")

        monkeypatch.setattr(rec, "inverse_ball_words", forbidden)
        reads = ReadSet([(0,) * 39], 4, 39)
        with pytest.raises(BudgetExceededError, match="one-read decode at n=40, q=4"):
            reconstruct(reads, Codebook.parity(40, 4), _one_read_peak_bytes(40, 4) - 1)
        # the two-read pool is bounded too, before it loops over the alphabet
        two = ReadSet([(0,) * 39, (1,) + (0,) * 38], 4, 39)
        with pytest.raises(BudgetExceededError, match="two-read pool at n=40, q=4"):
            reconstruct(two, Codebook.parity(40, 4), 0)
        assert reconstruct(two, Codebook.parity(40, 4)).outcome == "ambiguous"


def two_ball_pool(r1, r2, q, residue):
    return set(inverse_ball_words(r1, q, residue=residue)) & set(
        inverse_ball_words(r2, q, residue=residue)
    )


def two_ball_reconstruct(reads, codebook):
    """The parity decoder with its pool taken from the intersection of
    the first two reads' inverse balls."""
    ordered = sorted(reads.reads)
    q = codebook.q
    if len(ordered) == 1:
        pool = inverse_ball_oracle(ordered[0], q, 0)
    else:
        pool = two_ball_pool(ordered[0], ordered[1], q, 0)
    words = scan_survivors(pool, ordered)
    outcome = {0: "infeasible", 1: "unique"}.get(len(words), "ambiguous")
    seqs = tuple(Sequence(w, q) for w in words)
    return ReconResult(outcome, seqs, len(reads), reads.raw_count)


@st.composite
def read_pairs(draw):
    """Two distinct reads of one length, either independent or one a
    small edit of the other, so far-apart pairs and close ones both
    appear."""
    q = draw(st.integers(2, 5))
    m = draw(st.integers(1, 14))
    word = st.lists(st.integers(0, q - 1), min_size=m, max_size=m).map(tuple)
    r1 = draw(word)
    if draw(st.booleans()):
        r2 = draw(word)
    else:
        edits = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, q - 1)),
                              min_size=1, max_size=3))
        r2 = list(r1)
        for p, a in edits:
            r2[p] = a
        r2 = tuple(r2)
    assume(r1 != r2)
    return q, r1, r2, draw(st.integers(0, q - 1))


class TestInversePairWords:
    """The directly built pool against the intersection of two inverse balls."""

    def test_exhaustive_small_read_pairs(self):
        for q, top in ((2, 6), (3, 4), (4, 3)):
            for m in range(1, top + 1):
                words = list(product(range(q), repeat=m))
                for residue in range(q):
                    balls = {r: set(inverse_ball_words(r, q, residue=residue)) for r in words}
                    for r1, r2 in permutations(words, 2):
                        assert inverse_pair_words(r1, r2, q, residue=residue) == (
                            balls[r1] & balls[r2]
                        ), (q, r1, r2, residue)

    @given(read_pairs())
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_read_pairs(self, case):
        q, r1, r2, residue = case
        got = inverse_pair_words(r1, r2, q, residue=residue)
        assert got == two_ball_pool(r1, r2, q, residue)

    def test_far_apart_reads_share_nothing(self):
        assert inverse_pair_words((0,) * 8, (1,) * 8, 2, residue=0) == set()
        assert inverse_pair_words((0, 0, 0, 0, 0), (1, 2, 1, 2, 1), 3, residue=1) == set()
        # a shift is close, though Hamming-far: 201201 holds both reads
        assert (2, 0, 1, 2, 0, 1) in inverse_pair_words((0, 1, 2, 0, 1), (2, 0, 1, 2, 0), 3,
                                                        residue=0)

    def test_equal_reads_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            inverse_pair_words((0, 1, 1, 2), (0, 1, 1, 2), 3, residue=2)

    def test_seeded_decodes_match_two_ball_decoder(self):
        rng = random.Random(4242)
        seen = set()
        for trial in range(240):
            q, n = rng.randint(2, 5), rng.randint(2, 60)
            book = Codebook.parity(n, q)
            x = book.sample_word(rng)
            if trial % 3 == 0:
                wanted = 2
            elif trial % 3 == 1 or n < min_valid_length(q):
                wanted = rng.randint(3, 8)
            else:
                wanted = required_reads(n, q)
            distinct, draws = set(), 0
            while len(distinct) < wanted and draws < 20 * wanted:
                distinct.add(channel_transmit(x, 0.5, rng=rng).symbols)
                draws += 1
            if trial % 5 == 4:
                # a read of another codeword often leaves nothing feasible
                distinct.add(channel_transmit(book.sample_word(rng), 0.5, rng=rng).symbols)
            reads = ReadSet(distinct, q, n - 1, raw_count=draws)
            result = reconstruct(reads, book)
            assert result == two_ball_reconstruct(reads, book)
            seen.add(result.outcome)
        assert seen == {"unique", "ambiguous", "infeasible"}

    def test_two_read_decode_at_n200_is_fast(self):
        rng = random.Random(200)
        book = Codebook.parity(200, 4)
        x = book.sample_word(rng)
        distinct = set()
        while len(distinct) < 2:
            distinct.add(channel_transmit(x, 0.5, rng=rng).symbols)
        start = time.perf_counter()
        result = reconstruct(ReadSet(distinct, 4, 199), book)
        assert time.perf_counter() - start < 0.5
        assert x in result.candidates


class TestLargeAlphabets:
    """Above q = 256 the inverse ball is built from tuples instead of
    bytes; q = 256 is the largest alphabet built from bytes."""

    @pytest.mark.parametrize("q", [256, 257, 300])
    def test_inverse_ball_matches_oracle(self, q):
        rng = random.Random(q)
        for _ in range(3):
            y = tuple(rng.randrange(q) for _ in range(4)) + (q - 1,)
            for residue in (0, rng.randrange(q), q - 1):
                assert inverse_ball_words(y, q, residue=residue) == sorted(
                    inverse_ball_oracle(y, q, residue)
                )
        assert inverse_ball_words((q - 1,), q) == sorted(inverse_ball_oracle((q - 1,), q))

    @pytest.mark.parametrize("q", [256, 257, 300])
    def test_parity_decodes_match_oracle_decoder(self, q):
        rng = random.Random(q + 1)
        book = Codebook.parity(6, q)
        for wanted in (1, 2, 4):
            for _ in range(2):
                x = book.sample_word(rng)
                distinct = set()
                while len(distinct) < wanted:
                    distinct.add(channel_transmit(x, 0.5, rng=rng).symbols)
                reads = ReadSet(distinct, q, 5)
                result = reconstruct(reads, book)
                assert result == two_ball_reconstruct(reads, book)
                assert x in result.candidates
                assert all(type(c.symbols) is tuple for c in result.candidates)
                if wanted == 1:
                    # the whole restricted ball, which holds every symbol
                    assert max(max(c) for c in result.candidates) == q - 1


class TestReconstruct:
    def test_single_codeword_book(self):
        x = seq("011010")
        reads = read_set([delete(x, 1)])
        result = reconstruct(reads, Codebook.explicit([x]))
        assert result.outcome == "unique"
        assert result.codeword == x

    def test_infeasible_on_foreign_read(self):
        x = seq("000000")
        y = Sequence((1, 1, 1, 1, 1), 2)
        result = reconstruct(read_set([y]), Codebook.explicit([x]))
        assert result.outcome == "infeasible"
        assert result.candidates == ()

    def test_ambiguous_single_read(self):
        book = Codebook.explicit([seq("000000"), seq("000011")])
        result = reconstruct(read_set([seq("00000")]), book)
        assert result.outcome == "ambiguous"
        assert len(result.candidates) == 2

    def test_implicit_matches_explicit_filtering(self):
        rng = random.Random(17)
        for q, n in ((2, 7), (3, 5), (4, 4)):
            parity = Codebook.parity(n, q)
            explicit = Codebook.explicit(parity_words(q, n))
            outcomes = set()
            for trial in range(40):
                x = parity.sample_word(rng)
                ball = [Sequence(w, q) for w in sorted(ds_ball(x, BallSpec(1, 1)))]
                # the first trials pin the 1-read and 2-read cases
                k = trial + 1 if trial < 2 else rng.randint(1, min(6, len(ball)))
                reads = read_set(rng.sample(ball, k))
                a = reconstruct(reads, parity)
                b = reconstruct(reads, explicit)
                assert a.outcome == b.outcome
                assert a.candidates == b.candidates
                assert x in a.candidates
                outcomes.add((k, a.outcome))
            assert (1, "ambiguous") in outcomes

    def test_soundness_candidates_contain_all_reads(self):
        rng = random.Random(23)
        book = Codebook.parity(8, 3)
        for _ in range(20):
            x = book.sample_word(rng)
            ball = [Sequence(w, book.q) for w in sorted(ds_ball(x, BallSpec(1, 1)))]
            reads = read_set(rng.sample(ball, 5))
            result = reconstruct(reads, book)
            assert result.outcome in ("unique", "ambiguous")
            for candidate in result.candidates:
                cball = ds_ball(candidate, BallSpec(1, 1))
                assert all(r.symbols in cball for r in reads)

    def test_read_length_checked(self):
        book = Codebook.parity(6, 2)
        with pytest.raises(ValueError):
            reconstruct(read_set([seq("0101")]), book)


class TestCoverageCriterion:
    """More distinct reads than the coverage always decode uniquely."""

    def test_adversarial_sets_at_small_length(self):
        book = Codebook.parity(7, 2)
        words = parity_words(2, 7)
        balls = {w.symbols: ds_ball(w, BallSpec(1, 1)) for w in words}
        # the hardest instances: take a worst pair and feed the decoder
        # its full shared set plus fillers from the true ball; the worst
        # pair's shared set is the read coverage
        worst = max(
            (pair for pair in combinations(words, 2)),
            key=lambda p: len(balls[p[0].symbols] & balls[p[1].symbols]),
        )
        x, other = worst
        shared = balls[x.symbols] & balls[other.symbols]
        coverage = len(shared)
        fillers = sorted(balls[x.symbols] - shared)
        reads_words = list(shared) + fillers[: coverage + 1 - len(shared)]
        assert len(reads_words) == coverage + 1
        reads = ReadSet(reads_words, 2, 6)
        result = reconstruct(reads, book)
        assert result.outcome == "unique"
        assert result.codeword == x

        # seeded random subsets of size coverage + 1 from assorted balls
        rng = random.Random(99)
        for _ in range(30):
            w = words[rng.randrange(len(words))]
            ball = sorted(balls[w.symbols])
            if len(ball) < coverage + 1:
                continue
            subset = rng.sample(ball, coverage + 1)
            result = reconstruct(ReadSet(subset, 2, 6), book)
            assert result.outcome == "unique"
            assert result.codeword == w


class TestRequiredReads:
    def test_values(self):
        assert required_reads(17, 3) == 92
        assert required_reads(29, 2) == 108

    def test_below_threshold_reported(self):
        with pytest.raises(ValueError, match="29"):
            required_reads(28, 2)

    def test_one_more_than_two_word_coverage(self):
        x, y = extremal_pair(2, 29)
        assert required_reads(29, 2) == intersection_size_fast(x, y).size + 1


# sha256 of repr(_seeded_decodes()), recorded on the decoder that filtered
# with the per-symbol membership scan
PINNED_DECODE_DIGEST = "963a21796dc9f6f4d7485403b02aadcb9eeb2e4ed726f8c54c6b11e22b7cc0f0"


def _seeded_decodes():
    """Seeded decodes over parity and explicit codebooks, every outcome
    written as (outcome, candidate symbols, distinct reads, raw reads).

    q = 300 runs at n = 6, below min_valid_length, where required_reads
    is undefined; its fourth read count is 8.  Every fifth trial adds a
    read of another codeword, which often leaves nothing feasible."""
    rng = random.Random(2323)
    rows = []
    for q, n in ((2, 29), (3, 17), (4, 14), (5, 14), (300, 6)):
        parity = Codebook.parity(n, q)
        top = required_reads(n, q) if n >= min_valid_length(q) else 8
        for kind in ("parity", "explicit"):
            for wanted in (1, 2, 3, top):
                for trial in range(6):
                    x = parity.sample_word(rng)
                    book = parity
                    if kind == "explicit":
                        # x, words two substitutions from x that keep the
                        # parity (ambiguity), and random parity words
                        near = []
                        for _ in range(6):
                            w = list(x.symbols)
                            i, j = rng.sample(range(n), 2)
                            a = rng.randrange(q)
                            w[i], w[j] = (w[i] + a) % q, (w[j] - a) % q
                            near.append(tuple(w))
                        words = {x.symbols, *near}
                        words.update(parity.sample_word(rng).symbols for _ in range(6))
                        book = Codebook.explicit(Sequence(w, q) for w in sorted(words))
                    distinct, draws = set(), 0
                    while len(distinct) < wanted and draws < 20 * wanted:
                        distinct.add(channel_transmit(x, 0.5, rng=rng).symbols)
                        draws += 1
                    if trial % 5 == 4:
                        other = parity.sample_word(rng)
                        distinct.add(channel_transmit(other, 0.5, rng=rng).symbols)
                    result = reconstruct(ReadSet(distinct, q, n - 1, raw_count=draws), book)
                    rows.append((result.outcome, [c.symbols for c in result.candidates],
                                 result.distinct_reads, result.raw_reads))
    return rows


class TestPinnedDecodes:
    def test_seeded_decodes_match_pinned_digest(self):
        rows = _seeded_decodes()
        assert {row[0] for row in rows} == {"unique", "ambiguous", "infeasible"}
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == PINNED_DECODE_DIGEST
