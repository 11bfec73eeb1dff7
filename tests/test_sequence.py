import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from delsub import Sequence, alternating, delete, hamming
from delsub.sequence import mismatch_counts, mismatches, run_ends, run_last_table, run_spread

from helpers import (
    brute_lcs, lcs_length, run_last_positions, sequence_pairs, sequences, word_tuples,
)


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


def digit_texts():
    """(q, text) with q in 2..10 and an ASCII digit string below q."""
    return st.integers(min_value=2, max_value=10).flatmap(
        lambda q: st.tuples(st.just(q), st.text("0123456789"[:q], min_size=1, max_size=40))
    )


class TestDigitText:
    @given(digit_texts())
    def test_ascii_digits_parse_and_print(self, case):
        q, text = case
        s = Sequence.parse(text, q)
        assert s.symbols == tuple(map(int, text))
        assert s == Sequence(tuple(map(int, text)), q)
        assert str(s) == text

    @pytest.mark.parametrize("text, q, bad", [("0132", 3, 3), ("9", 9, 9), ("0120", 2, 2)])
    def test_out_of_alphabet_digit_keeps_message(self, text, q, bad):
        with pytest.raises(ValueError, match=f"^symbol {bad} outside alphabet of size {q}$"):
            Sequence.parse(text, q)

    def test_alphabet_too_small_keeps_message(self):
        with pytest.raises(ValueError, match="^alphabet size must be at least 2, got 1$"):
            Sequence.parse("00", 1)

    def test_non_ascii_digits_parse_as_before(self):
        s = Sequence.parse("٠١٢", 3)
        assert s.symbols == (0, 1, 2)
        assert str(s) == "012"

    @pytest.mark.parametrize("text", ["0a1", "0_1", "0 1", "0-1"])
    def test_non_digit_text_raises(self, text):
        with pytest.raises(ValueError, match="invalid literal for int"):
            Sequence.parse(text, 2)

    def test_large_alphabet_text_untouched(self):
        s = Sequence.parse("0,12,3", 13)
        assert s.symbols == (0, 12, 3)
        assert str(s) == "0,12,3"
        # digit text is one decimal number above q = 10
        with pytest.raises(ValueError, match="^symbol 123 outside alphabet of size 11$"):
            Sequence.parse("0123", 11)


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
    """The deletion distance n - LCS that the CLI's shift checks use."""

    def test_identical(self):
        s = (0, 1, 2)
        assert len(s) - lcs_length(s, s) == 0

    def test_swap_pair(self):
        # LCS("01","10") = 1, so the distance is 2 - 1 = 1
        assert 2 - lcs_length((0, 1), (1, 0)) == 1

    def test_blocks(self):
        # brute force over all subsequences gives LCS = 2
        assert brute_lcs((0, 0, 1, 1), (1, 1, 0, 0)) == 2
        assert 4 - lcs_length((0, 0, 1, 1), (1, 1, 0, 0)) == 2

    @given(sequence_pairs(q=2, min_n=1, max_n=7))
    def test_lcs_against_brute_force(self, pair):
        x, y = pair
        assert lcs_length(x.symbols, y.symbols) == brute_lcs(x.symbols, y.symbols)

    @given(sequence_pairs(q=3, min_n=1, max_n=7))
    def test_at_most_hamming(self, pair):
        x, y = pair
        assert len(x) - lcs_length(x.symbols, y.symbols) <= hamming(x, y)


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
    """Runs as ``run_ends`` names them, and as the reference
    ``run_last_positions`` names them within an interval: by their 1-based
    last positions."""

    def test_constant_word(self):
        assert run_ends((0, 0, 0)) == run_last_positions((0, 0, 0), 1, 3) == [3]

    def test_worked_example(self):
        xs = seq("10212201", q=3).symbols
        assert run_ends(xs) == run_last_positions(xs, 1, 8) == [1, 2, 3, 4, 6, 7, 8]

    def test_interval_restriction_by_direct_scan(self):
        # positions 6..8 of 01010111 hold "111": a single run
        xs = seq("01010111").symbols
        assert run_last_positions(xs, 6, 8) == [8]
        assert len(run_last_positions(xs, 1, 5)) == 5

    def test_empty_interval(self):
        assert run_last_positions(seq("0101").symbols, 3, 2) == []
        assert run_ends(()) == []

    @given(sequences(q=3, min_n=1, max_n=10))
    def test_count_matches_boundary_formula(self, x):
        xs = x.symbols
        n = len(xs)
        lasts = run_ends(xs)
        assert len(lasts) == 1 + sum(1 for i in range(1, n) if xs[i] != xs[i - 1])
        assert lasts[-1] == n
        # concatenating the runs reproduces the word
        rebuilt = []
        for lo, hi in zip([0] + lasts, lasts):
            piece = xs[lo:hi]
            assert len(set(piece)) == 1
            rebuilt.extend(piece)
        assert tuple(rebuilt) == xs


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


class TestRunsAgainstLoops:
    """Run ends, restricted to an interval, and the run-last table built
    from them (by ``run_last_table``, and by ``run_spread`` without the
    leading 0), against ``run_last_positions``, their definition as a
    loop over adjacent symbols."""

    @given(sequences(q=3, min_n=0, max_n=12), st.data())
    def test_random_intervals(self, x, data):
        n = len(x)
        lo = data.draw(st.integers(1, max(n, 1)))
        hi = data.draw(st.integers(lo - 1, n))  # hi == lo - 1 is empty
        xs = x.symbols
        inner = [e for e in run_ends(xs) if lo <= e < hi]
        assert (inner + [hi] if lo <= hi else []) == run_last_positions(xs, lo, hi)

    @given(word_tuples(3, 0, 12))
    @example(())
    @example((1,))
    def test_run_last_table(self, xs):
        lasts = run_last_positions(xs, 1, len(xs))
        expected = [0] + [min(k for k in lasts if k >= i) for i in range(1, len(xs) + 1)]
        assert run_last_table(run_ends(xs)) == expected
        if len(xs) >= 2:
            assert [0, *run_spread(xs)(run_ends(xs))] == expected
