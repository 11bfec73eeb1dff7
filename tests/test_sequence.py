import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsub import Sequence, alternating, delete, hamming, levenshtein, phi, runs
from delsub.sequence import lcs_length, mismatch_counts, mismatches, run_last_positions

from helpers import brute_lcs, sequence_pairs, sequences, word_tuples


def seq(text, q=2):
    return Sequence.parse(text, q)


class TestSequenceBasics:
    def test_parse_and_str_roundtrip(self):
        s = seq("10212201", q=3)
        assert str(s) == "10212201"
        assert len(s) == 8
        assert s.symbols == (1, 0, 2, 1, 2, 2, 0, 1)

    def test_large_alphabet_uses_commas(self):
        s = Sequence.parse("10,3,11,0", q=12)
        assert s.symbols == (10, 3, 11, 0)
        assert str(s) == "10,3,11,0"
        assert Sequence.parse(str(s), q=12) == s

    def test_empty_word_allowed(self):
        assert len(Sequence.parse("", q=2)) == 0

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            Sequence((0, 2), q=2)

    def test_alphabet_too_small(self):
        with pytest.raises(ValueError):
            Sequence((0,), q=1)

    def test_immutable(self):
        s = seq("01")
        with pytest.raises(AttributeError):
            s.symbols = (1, 1)

    @pytest.mark.parametrize("q", [2, 256, 257, 300])
    def test_wrap_equals_validated_constructor(self, q):
        symbols = (0, q - 1, 1, q - 2)
        s = Sequence._wrap(symbols, q)
        assert type(s) is Sequence
        assert s == Sequence(symbols, q)
        assert hash(s) == hash(Sequence(symbols, q))
        assert s.symbols is symbols and s.q == q
        for name, value in (("symbols", (1,) * 4), ("q", 3), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(s, name, value)
        assert s.symbols is symbols and s.q == q

    def test_concat_requires_same_alphabet(self):
        with pytest.raises(ValueError):
            seq("01", q=2) + seq("01", q=3)
        assert str(seq("01") + seq("10")) == "0110"

    def test_symbol_at_is_one_based(self):
        s = seq("0123", q=4)
        assert s.symbol_at(1) == 0
        assert s.symbol_at(4) == 3
        with pytest.raises(IndexError):
            s.symbol_at(0)


class TestHamming:
    def test_identity(self):
        s = seq("10212201", q=3)
        assert hamming(s, s) == 0

    def test_worked_pair(self):
        assert hamming(seq("01010111"), seq("01101011")) == 4

    def test_complementary_alternating(self):
        assert hamming(seq("0101"), seq("1010")) == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming(seq("01"), seq("011"))

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            hamming(seq("01", q=2), seq("01", q=3))

    @given(sequence_pairs(q=3, min_n=1, max_n=7))
    def test_symmetric(self, pair):
        x, y = pair
        assert hamming(x, y) == hamming(y, x)
        assert (hamming(x, y) == 0) == (x == y)

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                *[
                    st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
                        lambda t: Sequence(tuple(t), 3)
                    )
                ]
                * 3
            )
        )
    )
    def test_triangle(self, triple):
        x, y, z = triple
        assert hamming(x, z) <= hamming(x, y) + hamming(y, z)


class TestLevenshtein:
    def test_identical(self):
        s = seq("012", q=3)
        assert levenshtein(s, s) == 0

    def test_swap_pair(self):
        # LCS("01","10") = 1, so the distance is 2 - 1 = 1
        assert levenshtein(seq("01"), seq("10")) == 1

    def test_blocks(self):
        # brute force over all subsequences gives LCS = 2
        assert brute_lcs((0, 0, 1, 1), (1, 1, 0, 0)) == 2
        assert levenshtein(seq("0011"), seq("1100")) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            levenshtein(seq("01"), seq("0"))

    @given(sequence_pairs(q=2, min_n=1, max_n=7))
    def test_lcs_against_brute_force(self, pair):
        x, y = pair
        assert lcs_length(x.symbols, y.symbols) == brute_lcs(x.symbols, y.symbols)

    @given(sequence_pairs(q=3, min_n=1, max_n=7))
    def test_at_most_hamming(self, pair):
        x, y = pair
        assert levenshtein(x, y) <= hamming(x, y)


class TestDelete:
    def test_middle(self):
        assert delete(seq("012", q=3), 2) == seq("02", q=3)

    def test_worked_examples(self):
        assert str(delete(seq("01010111"), 4)) == "0100111"
        assert str(delete(seq("01101011"), 7)) == "0110101"

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            delete(seq("01"), 3)
        with pytest.raises(IndexError):
            delete(seq("01"), 0)


class TestPhi:
    def test_worked_example_q3(self):
        x = seq("10212201", q=3)
        assert str(phi(x, 6, 3, 0)) == "1001201"

    def test_worked_example_binary(self):
        x = seq("01010111")
        assert str(phi(x, 4, 7, 0)) == "0100101"

    def test_identity_substitution_is_deletion(self):
        x = seq("10212201", q=3)
        for j1 in range(1, 9):
            for j2 in range(1, 9):
                if j1 == j2:
                    continue
                assert phi(x, j1, j2, x.symbol_at(j2)) == delete(x, j1)

    def test_equal_positions_rejected(self):
        with pytest.raises(ValueError):
            phi(seq("011"), 2, 2, 0)

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            phi(seq("011"), 1, 2, 2)

    @given(sequences(q=3, min_n=2, max_n=8), st.data())
    @settings(max_examples=60)
    def test_substitute_then_delete_orders_agree(self, x, data):
        n = len(x)
        j1 = data.draw(st.integers(1, n))
        j2 = data.draw(st.integers(1, n).filter(lambda v: v != j1))
        a = data.draw(st.integers(0, 2))
        substituted = Sequence(
            tuple(a if i == j2 else s for i, s in enumerate(x.symbols, start=1)), x.q
        )
        expected = delete(substituted, j1)
        assert phi(x, j1, j2, a) == expected
        # delete first, then substitute at the shifted coordinate
        shifted = j2 if j2 < j1 else j2 - 1
        deleted = delete(x, j1)
        other = Sequence(
            tuple(a if i == shifted else s for i, s in enumerate(deleted.symbols, start=1)),
            x.q,
        )
        assert phi(x, j1, j2, a) == other


class TestAlternating:
    def test_length_five_and_six(self):
        assert str(alternating(5, 0, 1)) == "01010"
        assert str(alternating(6, 0, 1)) == "010101"

    def test_zero_length(self):
        assert len(alternating(0, 0, 1)) == 0

    def test_equal_symbols_rejected(self):
        with pytest.raises(ValueError):
            alternating(4, 1, 1)

    def test_explicit_alphabet(self):
        s = alternating(3, 0, 1, q=4)
        assert s.q == 4


class TestRuns:
    def test_constant_word(self):
        assert runs(seq("000")).count == 1

    def test_worked_example(self):
        assert runs(seq("10212201", q=3)).count == 7
        assert runs(seq("10212201", q=3)).boundaries == (1, 2, 3, 4, 5, 7, 8)

    def test_interval_restriction_by_direct_scan(self):
        # positions 6..8 of 01010111 hold "111": a single run
        assert runs(seq("01010111"), (6, 8)).count == 1
        assert runs(seq("01010111"), (1, 5)).count == 5

    def test_empty_interval(self):
        assert runs(seq("0101"), (3, 2)).count == 0

    def test_malformed_interval(self):
        with pytest.raises(ValueError):
            runs(seq("0101"), (0, 2))
        with pytest.raises(ValueError):
            runs(seq("0101"), (4, 2))
        with pytest.raises(ValueError):
            runs(seq("0101"), (2, 5))

    @given(sequences(q=3, min_n=1, max_n=10))
    def test_count_matches_boundary_formula(self, x):
        expected = 1 + sum(
            1 for i in range(2, len(x) + 1) if x.symbol_at(i) != x.symbol_at(i - 1)
        )
        decomposition = runs(x)
        assert decomposition.count == expected
        assert decomposition.boundaries[0] == 1
        # concatenating the runs reproduces the word
        bounds = list(decomposition.boundaries) + [len(x) + 1]
        rebuilt = []
        for lo, hi in zip(bounds, bounds[1:]):
            piece = x.symbols[lo - 1 : hi - 1]
            assert len(set(piece)) == 1
            rebuilt.extend(piece)
        assert tuple(rebuilt) == x.symbols


class TestMismatches:
    @given(word_tuples(3, 0, 10), word_tuples(3, 0, 10), st.integers(-5, 5))
    def test_indices_match_comprehension(self, a, b, start):
        m = min(len(a), len(b))
        expected = [start + k for k in range(m) if a[k] != b[k]]
        assert list(mismatches(a, b, start)) == expected
        assert list(mismatches(a, b)) == [k for k in range(m) if a[k] != b[k]]

    @given(word_tuples(3, 0, 10), word_tuples(3, 0, 10))
    def test_counts_match_comprehension(self, a, b):
        m = min(len(a), len(b))
        expected = [sum(1 for k in range(i) if a[k] != b[k]) for i in range(m + 1)]
        assert mismatch_counts(a, b) == expected


def _loop_runs(xs, lo, hi):
    if hi < lo:
        return ()
    boundaries = [lo]
    for i in range(lo + 1, hi + 1):
        if xs[i - 1] != xs[i - 2]:
            boundaries.append(i)
    return tuple(boundaries)


def _loop_run_last_positions(xs, lo, hi):
    if hi < lo:
        return []
    out = []
    for i in range(lo, hi):
        if xs[i - 1] != xs[i]:
            out.append(i)
    out.append(hi)
    return out


class TestRunsAgainstLoops:
    """runs and run_last_positions against their definitions as explicit
    loops over adjacent symbols."""

    @given(sequences(q=3, min_n=0, max_n=12), st.data())
    def test_random_intervals(self, x, data):
        n = len(x)
        lo = data.draw(st.integers(1, max(n, 1)))
        hi = data.draw(st.integers(lo - 1, n))  # hi == lo - 1 is empty
        xs = x.symbols
        decomposition = runs(x, (lo, hi))
        assert decomposition.boundaries == _loop_runs(xs, lo, hi)
        assert decomposition.count == len(decomposition.boundaries)
        assert run_last_positions(xs, lo, hi) == _loop_run_last_positions(xs, lo, hi)
