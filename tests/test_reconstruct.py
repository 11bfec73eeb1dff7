import random
import time
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delsub import (
    BallSpec,
    Codebook,
    ReadSet,
    Sequence,
    ball_intersection,
    ball_membership,
    channel_transmit,
    delete,
    deletion_ball,
    ds_ball,
    extremal_pair,
    hamming,
    intersection_size_fast,
    min_valid_length,
    read_coverage,
    reconstruct,
    required_reads,
)
from delsub.reconstruct import (
    ReconResult,
    _membership_t,
    inverse_ball_words,
    inverse_pair_words,
)

from helpers import all_words, inverse_ball_oracle, sequences


def seq(text, q=2):
    return Sequence.parse(text, q)


class TestCodebook:
    def test_parity_membership(self):
        book = Codebook.parity(4, 3)
        assert seq("0120", q=3) in book
        assert seq("0121", q=3) not in book
        assert book.size() == 27
        assert book.min_distance == 2

    def test_parity_minimum_distance_is_exactly_two(self):
        book = Codebook.parity(4, 3)
        words = [Sequence(w, 3) for w in book.iter_words()]
        assert len(words) == 27
        dmin = min(hamming(a, b) for a, b in combinations(words, 2))
        assert dmin == 2

    def test_membership_needs_the_alphabet(self):
        parity = Codebook.parity(2, 4)
        assert (1, 3) in parity and Sequence((1, 3), 4) in parity
        # symbol sums of 0 mod 4, but not words over 0..3
        assert (5, 3) not in parity
        assert (-1, 1) not in parity
        assert Sequence((1, 3), 5) not in parity
        explicit = Codebook.explicit([Sequence((1, 3), 4)])
        assert (1, 3) in explicit and Sequence((1, 3), 4) in explicit
        assert Sequence((1, 3), 5) not in explicit
        assert (1, 3, 0) not in explicit and (1,) not in parity

    def test_explicit_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Codebook.explicit([seq("0101"), seq("0101")])

    def test_explicit_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            Codebook.explicit([seq("0101"), seq("010")])

    def test_explicit_rejects_false_min_distance(self):
        words = [seq("000000"), seq("000001"), seq("111111")]
        with pytest.raises(ValueError):
            Codebook.explicit(words, min_distance=2)
        with pytest.raises(ValueError):
            Codebook.explicit([seq("0000"), seq("0011")], min_distance=3)
        assert Codebook.explicit(words[:1] + words[2:], min_distance=2).size() == 2
        assert Codebook.explicit(words, min_distance=1).min_distance == 1

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "book.txt"
        path.write_text("# comment\n0101\n1010\n\n0011\n")
        book = Codebook.load(path, q=2)
        assert book.size() == 3
        assert seq("1010") in book

    def test_sample_word_is_member_and_deterministic(self):
        book = Codebook.parity(10, 3)
        a = book.sample_word(random.Random(3))
        b = book.sample_word(random.Random(3))
        assert a == b
        assert a in book


class TestReadSet:
    def test_deduplication_and_raw_count(self):
        reads = ReadSet.from_sequences([seq("010"), seq("010"), seq("001")])
        assert len(reads) == 2
        assert reads.raw_count == 3

    def test_from_file(self, tmp_path):
        path = tmp_path / "reads.txt"
        path.write_text("010\n001\n010\n")
        reads = ReadSet.from_file(path, q=2)
        assert len(reads) == 2

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            ReadSet.from_sequences([seq("010"), seq("0101")])

    def test_symbols_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            ReadSet([(0, 1, 5, 0)], 2, 4)
        with pytest.raises(ValueError, match="alphabet"):
            ReadSet([(0, 1, 1, 0), (0, -1, 1, 0)], 2, 4)
        assert len(ReadSet([(0, 1, 1, 0)], 2, 4)) == 1


class TestChannel:
    def test_no_substitution_is_pure_deletion(self):
        x = seq("0110100")
        for s in range(25):
            out = channel_transmit(x, 0.0, seed=s)
            assert out.symbols in deletion_ball(x, 1)

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
            assert ball_membership(channel_transmit(x, 0.7, seed=s), x)

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
        assert ball_membership(delete(x, 1), x)

    def test_exhaustive_against_materialized_ball(self):
        for x in all_words(2, 7):
            ball = ds_ball(x, BallSpec(1, 1))
            for y in all_words(2, 6):
                assert ball_membership(y, x) == (y.symbols in ball)

    @pytest.mark.parametrize("q,n", [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4)])
    def test_exhaustive_against_materialized_ball_larger_alphabets(self, q, n):
        reads = all_words(q, n - 1)
        for x in all_words(q, n):
            ball = ds_ball(x, BallSpec(1, 1))
            for y in reads:
                assert ball_membership(y, x) == (y.symbols in ball)

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
                assert ball_membership(y, x) == expected

    def test_far_read_rejected(self):
        x = Sequence((0,) * 6, 2)
        y = Sequence((1, 1, 0, 1, 1), 2)
        assert not ball_membership(y, x)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            ball_membership(seq("0101"), seq("0101"))

    @given(sequences(q=3, min_n=3, max_n=8), st.data())
    @settings(max_examples=60)
    def test_inverse_ball_consistency(self, x, data):
        n = len(x)
        y = data.draw(
            st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1).map(
                lambda t: Sequence(tuple(t), 3)
            )
        )
        member = ball_membership(y, x)
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
    words = sorted(w for w in pool if all(_membership_t(r, w) for r in ordered))
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


class TestReadCoverage:
    def test_two_word_book_equals_pair_size(self):
        x, y = extremal_pair(3, 17)
        report = read_coverage(Codebook.explicit([x, y]))
        assert report.value == 91
        assert report.exhaustive
        assert report.pairs_checked == 1

    def test_small_parity_book_matches_oracle(self):
        book = Codebook.parity(7, 2)
        words = [Sequence(w, 2) for w in book.iter_words()]
        expected = max(
            len(ball_intersection(a, b, BallSpec(1, 1)))
            for a, b in combinations(words, 2)
        )
        report = read_coverage(book)
        assert report.exhaustive
        assert report.value == expected

    def test_needs_two_codewords(self):
        with pytest.raises(ValueError):
            read_coverage(Codebook.explicit([seq("0101")]))

    def test_budget_requires_seed(self):
        book = Codebook.parity(20, 2)
        with pytest.raises(ValueError):
            read_coverage(book, pair_budget=1000)

    def test_sampled_mode_deterministic(self):
        book = Codebook.parity(20, 2)
        a = read_coverage(book, pair_budget=1000, sample_pairs=300, seed=5)
        b = read_coverage(book, pair_budget=1000, sample_pairs=300, seed=5)
        assert not a.exhaustive
        assert a.note
        assert a.value == b.value

    def test_sampled_mode_counts_only_distinct_pairs(self):
        # 400 draws from the 4-word book; the x == y draws are skipped
        book = Codebook.parity(3, 2)
        report = read_coverage(book, pair_budget=1, sample_pairs=400, seed=5)
        assert not report.exhaustive
        assert report.pairs_checked == 307

    def test_sampled_parity_coverage_within_bound(self):
        # minimum distance 2 keeps every sampled pair within the coverage
        # bound once n is in the valid range
        book = Codebook.parity(17, 3)
        report = read_coverage(book, pair_budget=1000, sample_pairs=500, seed=9)
        assert report.value <= 91


class TestReconstruct:
    def test_single_codeword_book(self):
        x = seq("011010")
        reads = ReadSet.from_sequences([delete(x, 1)])
        result = reconstruct(reads, Codebook.explicit([x]))
        assert result.outcome == "unique"
        assert result.codeword == x

    def test_infeasible_on_foreign_read(self):
        x = seq("000000")
        y = Sequence((1, 1, 1, 1, 1), 2)
        result = reconstruct(ReadSet.from_sequences([y]), Codebook.explicit([x]))
        assert result.outcome == "infeasible"
        assert result.candidates == ()

    def test_ambiguous_single_read(self):
        book = Codebook.explicit([seq("000000"), seq("000011")])
        result = reconstruct(ReadSet.from_sequences([seq("00000")]), book)
        assert result.outcome == "ambiguous"
        assert len(result.candidates) == 2

    def test_implicit_matches_explicit_filtering(self):
        rng = random.Random(17)
        for q, n in ((2, 7), (3, 5), (4, 4)):
            parity = Codebook.parity(n, q)
            explicit = Codebook.explicit([Sequence(w, q) for w in parity.iter_words()])
            outcomes = set()
            for trial in range(40):
                x = parity.sample_word(rng)
                ball = [Sequence(w, q) for w in sorted(ds_ball(x, BallSpec(1, 1)))]
                # the first trials pin the 1-read and 2-read cases
                k = trial + 1 if trial < 2 else rng.randint(1, min(6, len(ball)))
                reads = ReadSet.from_sequences(rng.sample(ball, k))
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
            reads = ReadSet.from_sequences(rng.sample(ball, 5))
            result = reconstruct(reads, book)
            assert result.outcome in ("unique", "ambiguous")
            for candidate in result.candidates:
                cball = ds_ball(candidate, BallSpec(1, 1))
                assert all(r.symbols in cball for r in reads)

    def test_read_length_checked(self):
        book = Codebook.parity(6, 2)
        with pytest.raises(ValueError):
            reconstruct(ReadSet.from_sequences([seq("0101")]), book)


class TestCoverageCriterion:
    """More distinct reads than the coverage always decode uniquely."""

    def test_adversarial_sets_at_small_length(self):
        book = Codebook.parity(7, 2)
        words = [Sequence(w, 2) for w in book.iter_words()]
        coverage = read_coverage(book).value
        balls = {w.symbols: ds_ball(w, BallSpec(1, 1)) for w in words}
        # the hardest instances: take a worst pair and feed the decoder
        # its full shared set plus fillers from the true ball
        worst = max(
            (pair for pair in combinations(words, 2)),
            key=lambda p: len(balls[p[0].symbols] & balls[p[1].symbols]),
        )
        x, other = worst
        shared = balls[x.symbols] & balls[other.symbols]
        assert len(shared) == coverage
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
