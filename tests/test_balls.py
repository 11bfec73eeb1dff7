import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

from delsub import (
    DEFAULT_BUDGET,
    BallSpec,
    BudgetExceededError,
    Sequence,
    ball_intersection,
    delete,
    ds_ball,
    intersection_size_fast,
    lambda_enumerate,
    sub_intersection_size,
    substitution_ball,
    substitution_ball_size,
)
from delsub.balls import _ball_peak_bytes, _oracle_peak_bytes, ds11_packed
from helpers import all_words, run_last_positions, sequences, subsequences


def seq(text, q=2):
    return Sequence.parse(text, q)


def naive_ds11(x: Sequence) -> set:
    """Independent (1,1)-ball: nested loops, no vectorization."""
    out = set()
    n = len(x)
    for j in range(1, n + 1):
        w = delete(x, j).symbols
        out.add(w)
        for p in range(n - 1):
            for a in range(x.q):
                out.add(w[:p] + (a,) + w[p + 1 :])
    return out


class TestBallSpec:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            BallSpec(-1, 0)
        with pytest.raises(ValueError):
            BallSpec(0, -1)


class TestSubstitutionBall:
    def test_radius_one_binary(self):
        ball = substitution_ball(seq("01010111"), 1)
        assert len(ball) == 9  # 1 + (q-1)n with q=2, n=8

    def test_zero_budget(self):
        x = seq("0101")
        assert set(substitution_ball(x, 0)) == {x.symbols}

    def test_radius_one_ternary(self):
        ball = substitution_ball(seq("01201", q=3), 1)
        assert len(ball) == 11  # 1 + 2*5

    def test_closed_form_exhaustive(self):
        for q, n in [(2, 6), (3, 4)]:
            for x in all_words(q, n):
                for s in range(3):
                    assert len(substitution_ball(x, s)) == substitution_ball_size(n, q, s)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            substitution_ball(Sequence((0,) * 30, 4), 5, budget=1000)


class TestDeletionBall:
    def test_constant_word(self):
        assert len(ds_ball(Sequence((0,) * 6, 2), BallSpec(1, 0))) == 1

    def test_two_symbols(self):
        assert set(ds_ball(seq("01"), BallSpec(1, 0))) == {seq("0").symbols, seq("1").symbols}

    def test_size_equals_run_count_exhaustive(self):
        for x in all_words(2, 6):
            size = len(run_last_positions(x.symbols, 1, len(x)))
            assert len(ds_ball(x, BallSpec(1, 0))) == size

    def test_invalid_count(self):
        # t = n and t > n; t = 0 is the radius-0 substitution ball
        with pytest.raises(ValueError):
            ds_ball(seq("01"), BallSpec(2, 0))
        with pytest.raises(ValueError):
            ds_ball(seq("01"), BallSpec(3, 0))


class TestDsBall:
    def test_reduces_to_deletion_ball(self):
        assert ds_ball(seq("01"), BallSpec(1, 0)) == subsequences(seq("01").symbols, 1)

    def test_union_cap_and_exact_enumeration(self):
        x = seq("01010111")
        ball = ds_ball(x, BallSpec(1, 1))
        assert len(ball) <= 8 * (1 + 7) == 64
        assert ball == naive_ds11(x)

    def test_contains_pure_deletions(self):
        x = seq("01201", q=3)
        assert ds_ball(x, BallSpec(1, 0)).issubset(ds_ball(x, BallSpec(1, 1)))

    def test_precondition(self):
        with pytest.raises(ValueError):
            ds_ball(seq("01"), BallSpec(1, 1))

    @given(sequences(q=3, min_n=3, max_n=7))
    @settings(max_examples=40)
    def test_union_identity(self, x):
        # the (1,1)-ball is the union of radius-1 substitution balls of
        # the single-deletion results
        expected = set()
        for j in range(1, len(x) + 1):
            expected |= substitution_ball(delete(x, j), 1)
        assert ds_ball(x, BallSpec(1, 1)) == expected

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            ds_ball(Sequence((0, 1) * 11, 2), BallSpec(2, 2), budget=100)

    @pytest.mark.parametrize("q,n,t,s", [
        (2, 40, 1, 1), (4, 30, 1, 1), (3, 14, 2, 1), (2, 12, 0, 3), (2, 12, 3, 0), (300, 6, 1, 1),
    ])
    def test_peak_within_counted_bytes(self, q, n, t, s):
        # a word cycling through the alphabet has the most runs, and so the
        # most distinct members
        x = Sequence(tuple(i % q for i in range(n)), q)
        spec = BallSpec(t, s)
        bound = _ball_peak_bytes(n, q, spec)
        tracemalloc.start()
        try:
            ds_ball(x, spec, budget=bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
        with pytest.raises(BudgetExceededError, match="bytes"):
            ds_ball(x, spec, budget=bound - 1)


class TestPackedKernel:
    @given(sequences(q=4, min_n=3, max_n=9))
    @settings(max_examples=40)
    def test_matches_generic_materialization(self, x):
        packed = {tuple(b) for b in ds11_packed(x.symbols, x.q)}
        assert packed == ds_ball(x, BallSpec(1, 1))

    def test_trailing_zero_symbols_kept(self):
        # a packed member ending in symbol 0 must keep its zero bytes
        rng = random.Random(3)
        for _ in range(60):
            q, n = rng.randint(2, 5), rng.randint(3, 12)
            zeros = rng.randint(1, n - 1)
            word = tuple(rng.randrange(q) for _ in range(n - zeros)) + (0,) * zeros
            expected = {bytes(m) for m in ds_ball(Sequence(word, q), BallSpec(1, 1))}
            assert ds11_packed(word, q) == expected


class TestBallIntersection:
    def test_self_intersection(self):
        x = seq("010011")
        assert ball_intersection(x, x, BallSpec(1, 1)) == ds_ball(x, BallSpec(1, 1))

    def test_worked_example_member(self):
        inter = ball_intersection(seq("01010111"), seq("01101011"), BallSpec(1, 1))
        assert seq("0100101").symbols in inter
        assert seq("0110111").symbols in inter

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ball_intersection(seq("0101"), seq("010"), BallSpec(1, 1))

    def test_budget_counts_packed_bytes(self):
        # each packed array takes 60*59*4*59 = 835,440 bytes, but the bytes
        # objects, sets and tuples built from them bring the peak to
        # 9,072,160 bytes; the default budget still admits it
        x = Sequence((0, 1, 2, 3) * 15, 4)
        y = Sequence((1, 0, 2, 3) + (0, 1, 2, 3) * 14, 4)
        assert _oracle_peak_bytes(60, 4) == 9_072_160 <= DEFAULT_BUDGET
        with pytest.raises(BudgetExceededError, match="bytes"):
            ball_intersection(x, y, BallSpec(1, 1), budget=9_072_159)
        assert len(ball_intersection(x, y, BallSpec(1, 1), budget=9_072_160)) > 0

    @pytest.mark.parametrize("q,n", [(2, 120), (3, 60), (4, 60), (5, 40), (3, 8)])
    def test_peak_within_counted_bytes(self, q, n):
        # a word cycling through the alphabet has n runs, the most distinct
        # ball members, and against itself the whole ball is common
        x = Sequence(tuple(i % q for i in range(n)), q)
        rng = random.Random(n)
        y = Sequence(tuple(rng.randrange(q) for _ in range(n)), q)
        for a, b in ((x, x), (y, y)):
            tracemalloc.start()
            try:
                ball_intersection(a, b, BallSpec(1, 1), budget=10**9)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= _oracle_peak_bytes(n, q)

    @pytest.mark.parametrize("q", [255, 256, 257])
    @pytest.mark.parametrize("n", [4, 5])
    def test_alphabets_at_the_byte_limit(self, q, n):
        # symbols up to 255 fit in a byte, so q <= 256 takes the packed
        # path and q = 257 the generic one; both budgets count bytes
        top = q - 1
        x = Sequence((top, 0, top, 1, top)[:n], q)
        pairs = [
            (x, x),
            (x, Sequence((top - 1,) + x.symbols[1:], q)),
            (x, Sequence((top - 1, 2) + x.symbols[2:], q)),
            (x, Sequence(tuple(reversed(x.symbols)), q)),
        ]
        for a, b in pairs:
            common = ball_intersection(a, b, BallSpec(1, 1))
            assert len(common) == intersection_size_fast(a, b).size, (a, b)
            assert type(common) is frozenset
            assert all(type(w) is tuple and len(w) == n - 1 for w in common)
        assert x.symbols[1:] in ball_intersection(x, x, BallSpec(1, 1))
        with pytest.raises(BudgetExceededError, match="bytes"):
            ball_intersection(x, x, BallSpec(1, 1), budget=1)

    @given(sequences(q=2, min_n=4, max_n=7))
    @settings(max_examples=30)
    def test_union_over_deleted_pairs(self, x):
        # the intersection is the union of B1(z) & B1(z') over all
        # deleted pairs at Hamming distance <= 2
        y = Sequence(tuple(reversed(x.symbols)), x.q)
        expected = set()
        for pair in set().union(*lambda_enumerate(x, y).values()):
            z = Sequence(pair[0], x.q)
            zp = Sequence(pair[1], x.q)
            common = substitution_ball(z, 1) & substitution_ball(zp, 1)
            expected |= common
        got = ball_intersection(x, y, BallSpec(1, 1))
        assert got == expected


class TestSubIntersectionSize:
    def test_remark_values(self):
        x = Sequence((0, 1, 2, 3, 0), 4)
        y_d1 = Sequence((1, 1, 2, 3, 0), 4)
        assert sub_intersection_size(x, y_d1) == 4
        y_d2 = Sequence((1, 2, 2, 3, 0), 4)
        assert sub_intersection_size(x, y_d2) == 2
        y_d5 = Sequence((1, 2, 3, 0, 1), 4)
        assert sub_intersection_size(x, y_d5) == 0

    def test_identical_words_give_full_ball(self):
        x = seq("01010")
        assert sub_intersection_size(x, x) == 1 + (2 - 1) * 5

    def test_against_brute_force_sample(self):
        for x in all_words(2, 5):
            for y in all_words(2, 5):
                brute = len(substitution_ball(x, 1) & substitution_ball(y, 1))
                assert sub_intersection_size(x, y) == brute


def test_every_ball_is_a_frozenset_of_tuples():
    x = seq("01201", q=3)
    for ball in (
        substitution_ball(x, 1),
        ds_ball(x, BallSpec(1, 0)),
        ds_ball(x, BallSpec(1, 1)),
        ball_intersection(x, x, BallSpec(1, 1)),
        ball_intersection(x, x, BallSpec(1, 0)),
    ):
        assert type(ball) is frozenset
        assert all(type(w) is tuple for w in ball)


def test_numpy_loads_only_with_the_oracle():
    # importing the package and its command line must not pay numpy's
    # import; the packed oracle imports it when first called
    import delsub

    script = """
import json, sys
import delsub, delsub.cli, delsub.reconstruct
before = "numpy" in sys.modules
from delsub.balls import ds11_packed
size = len(ds11_packed((0, 1, 1, 0), 2))
delsub.cli.main(["intersect", "--q", "2", "--x", "01010111", "--y", "01101011",
                 "--mode", "oracle", "--format", "json"])
print(json.dumps({"before": before, "after": "numpy" in sys.modules, "size": size}))
"""
    src = str(Path(delsub.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, check=True)
    *cli_lines, last = done.stdout.strip().splitlines()
    assert json.loads(last) == {
        "before": False,
        "after": True,
        "size": len(ds_ball(seq("0110"), BallSpec(1, 1))),
    }
    oracle = json.loads("\n".join(cli_lines))
    assert oracle["method"] == "oracle"
    assert oracle["size"] == intersection_size_fast(seq("01010111"), seq("01101011")).size
