import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsub import (
    DiffProfile,
    Sequence,
    delete,
    hamming,
    lambda_enumerate,
)
from delsub.diffs import group_pairs, scan_candidates
from delsub.intersect import _above, _below, _claims_keys, _walk_keys
from delsub.sequence import _delete_t

from helpers import all_words, lcs_length, naive_lambda_groups, run_last_positions, sequence_pairs


def seq(text, q=2):
    return Sequence.parse(text, q)


WORKED_X = seq("01010111")
WORKED_Y = seq("01101011")


class TestDiffProfile:
    def test_identical_pair(self):
        x = seq("0101")
        p = DiffProfile(x, x)
        assert p.s == ()
        assert p.d == 0

    def test_worked_pair_sets(self):
        p = DiffProfile(WORKED_X, WORKED_Y)
        assert p.s == (3, 4, 5, 6)
        assert p.tl == (2, 3, 7)
        assert p.tr == (2,)
        assert p.d == hamming(WORKED_X, WORKED_Y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DiffProfile(seq("01"), seq("011"))

    def test_too_short(self):
        with pytest.raises(ValueError):
            DiffProfile(seq("0"), seq("1"))

    @given(sequence_pairs(q=3, min_n=2, max_n=9))
    def test_tr_is_tl_of_swapped_pair(self, pair):
        x, y = pair
        assert DiffProfile(x, y).tr == DiffProfile(y, x).tl

    @given(sequence_pairs(q=3, min_n=2, max_n=9))
    def test_interval_counts(self, pair):
        x, y = pair
        p = DiffProfile(x, y)
        n = len(x)
        # intervals reaching outside [1, n] count only their part inside
        for lo in range(-2, n + 4):
            for hi in range(lo - 1, n + 4):
                assert p.t_count("L", lo, hi) == sum(1 for v in p.tl if lo <= v <= hi)
                assert p.t_count("R", lo, hi) == sum(1 for v in p.tr if lo <= v <= hi)

    @pytest.mark.parametrize("q, n", [(2, n) for n in range(2, 9)] + [(3, n) for n in range(2, 6)]
                             + [(4, n) for n in range(2, 5)] + [(q, None) for q in range(2, 6)])
    def test_shifts_decide_shared_subsequences(self, q, n):
        # x != y share a length n-1 subsequence exactly when one side's
        # shifted set misses (i1, id]; n None takes the seeded pairs
        pairs = (seeded_shift_pairs(q) if n is None else
                 ((x, y) for x in product(range(q), repeat=n)
                  for y in product(range(q), repeat=n) if x != y))
        outcomes = set()
        for xs, ys in pairs:
            p = DiffProfile(Sequence._wrap(xs, q), Sequence._wrap(ys, q))
            shared = len(xs) - lcs_length(xs, ys) < 2
            assert (not (p.shifts("L") and p.shifts("R"))) == shared, (xs, ys)
            outcomes.add((p.d, shared))
        if n is None:
            assert outcomes == {(1, True)} | {(d, s) for d in range(2, 7) for s in (True, False)}


def seeded_shift_pairs(q):
    """Seeded pairs at Hamming distance d = 1..6 and n up to 200: d
    substitutions packed in a window of width d to d + 2, and a segment
    shifted one place (x minus a is y minus b), which shares a length
    n-1 subsequence at every d."""
    rng = random.Random(q)
    for n in (9, 29, 60, 200):
        for d in range(1, 7):
            for _ in range(10):
                xs = tuple(rng.choices(range(q), k=n))
                width = d + rng.randrange(3)
                start = rng.randrange(n - width + 1)
                ys = list(xs)
                for p in rng.sample(range(start, start + width), d):
                    ys[p] = (xs[p] + rng.randrange(1, q)) % q
                yield xs, tuple(ys)
                # y_i = x_{i+1} from a until d - 1 of them differ from x_i,
                # then a new symbol at b
                a = b = rng.randrange(n)
                moved = 0
                while b < n - 1 and moved < d - 1:
                    moved += xs[b] != xs[b + 1]
                    b += 1
                if moved == d - 1:
                    c = (xs[b] + rng.randrange(1, q)) % q
                    yield xs, xs[:a] + xs[a + 1 : b + 1] + (c,) + xs[b + 1 :]


def deleted_mismatches(x, y, j, jp, side):
    """Original positions of the mismatches of a deleted pair, found by
    deleting and comparing: side L deletes j from x and j' from y, side R
    deletes j' from x and j from y."""
    jx, jy = (j, jp) if side == "L" else (jp, j)
    z, zp = delete(x, jx).symbols, delete(y, jy).symbols
    # index k of the deleted words holds original position k + 1 before
    # the earlier deletion j and k + 2 from it on
    return tuple(k + 1 if k + 1 < j else k + 2 for k in range(len(z)) if z[k] != zp[k])


class TestDeletedHamming:
    """The deleted-pair identity behind ``mismatch_positions``: a deleted
    pair's mismatches are S before j, TL or TR in (j, j'] and S after j'."""

    def test_identical_words(self):
        x = seq("01100")
        p = DiffProfile(x, x)
        for j in range(1, 6):
            assert p.mismatch_positions(j, j, "L") == ()
            assert p.mismatch_positions(j, j, "R") == ()

    def test_worked_pair_all_positions_both_sides(self):
        p = DiffProfile(WORKED_X, WORKED_Y)
        n = len(WORKED_X)
        for j in range(1, n + 1):
            for jp in range(j, n + 1):
                for side in "LR":
                    expected = deleted_mismatches(WORKED_X, WORKED_Y, j, jp, side)
                    assert p.mismatch_positions(j, jp, side) == expected

    def test_collapsed_pair_is_exact_copy(self):
        # with no shifted mismatch between the first and last mismatch,
        # deleting (i1, id) aligns the words exactly
        x, y = seq("00110"), seq("01100")
        p = DiffProfile(x, y)
        assert p.t_count("L", p.s[0] + 1, p.s[-1]) == 0
        assert p.mismatch_positions(p.s[0], p.s[-1], "L") == ()
        assert delete(x, p.s[0]) == delete(y, p.s[-1])

    @given(sequence_pairs(q=5, min_n=2, max_n=10))
    @settings(max_examples=60)
    def test_matches_direct_computation(self, pair):
        x, y = pair
        p = DiffProfile(x, y)
        n = len(x)
        for j in range(1, n + 1):
            for jp in range(j, n + 1):
                for side in "LR":
                    expected = deleted_mismatches(x, y, j, jp, side)
                    assert p.mismatch_positions(j, jp, side) == expected


def reference_landmarks(p):
    """Recompute every landmark straight from its defining set."""
    i1, idd = p.s[0], p.s[-1]
    below = [v for v in p.tl if v <= i1]
    above = [v for v in p.tl if v > idd]
    below_r = [v for v in p.tr if v <= i1]
    above_r = [v for v in p.tr if v > idd]
    return {
        "k1": max(below) if below else None,
        "k1p": min(above) if above else None,
        "k2": max(below[:-1]) if len(below) >= 2 else None,
        "k2p": min(above[1:]) if len(above) >= 2 else None,
        "m1": max(below_r) if below_r else None,
        "m1p": min(above_r) if above_r else None,
        "m2": max(below_r[:-1]) if len(below_r) >= 2 else None,
        "m2p": min(above_r[1:]) if len(above_r) >= 2 else None,
    }


def direct_landmarks(p):
    """The landmarks as the direct construction reads them, each side's
    four marks from its own shifted set, under the reference names."""
    i1, idd = p.s[0], p.s[-1]
    marks = {}
    for prefix, t in (("k", p.tl), ("m", p.tr)):
        marks[prefix + "1"], marks[prefix + "2"] = _below(t, i1)
        marks[prefix + "1p"], marks[prefix + "2p"] = _above(t, idd)
    return marks


class TestLandmarks:
    def test_absent_when_defining_set_empty(self):
        # TL below i1 empty: k1 and k2 absent
        x, y = seq("0011"), seq("0101")
        p = DiffProfile(x, y)
        assert [v for v in p.tl if v <= p.s[0]] == []
        marks = direct_landmarks(p)
        assert marks["k1"] is None
        assert marks["k2"] is None

    @given(sequence_pairs(q=3, min_n=2, max_n=10))
    @settings(max_examples=150)
    def test_against_defining_sets(self, pair):
        x, y = pair
        if hamming(x, y) == 0:
            return
        p = DiffProfile(x, y)
        assert direct_landmarks(p) == reference_landmarks(p)

    @given(sequence_pairs(q=3, min_n=2, max_n=10))
    @settings(max_examples=150)
    def test_ordering_chains(self, pair):
        x, y = pair
        if hamming(x, y) == 0:
            return
        p = DiffProfile(x, y)
        m = direct_landmarks(p)
        i1, idd = p.s[0], p.s[-1]
        if m["k1"] is not None:
            assert 2 <= m["k1"] <= i1
            if m["k2"] is not None:
                assert 2 <= m["k2"] < m["k1"]
        if m["k1p"] is not None:
            assert idd < m["k1p"] <= p.n
            if m["k2p"] is not None:
                assert m["k1p"] < m["k2p"] <= p.n
        if m["m1"] is not None:
            assert 2 <= m["m1"] <= i1
        if m["m1p"] is not None and m["m2p"] is not None:
            assert idd < m["m1p"] < m["m2p"]


class TestLambdaEnumerate:
    def test_worked_pair_against_naive_classification(self):
        groups = lambda_enumerate(WORKED_X, WORKED_Y)
        assert groups == naive_lambda_groups(WORKED_X, WORKED_Y)

    def test_exhaustive_small_domain(self):
        for x in all_words(2, 5):
            for y in all_words(2, 5):
                assert lambda_enumerate(x, y) == naive_lambda_groups(x, y)

    def test_identical_pair_collapses_to_runs(self):
        x = seq("00110")
        level0 = set()
        for (_, ell, _), pairs in lambda_enumerate(x, x).items():
            if ell == 0:
                level0 |= pairs
        assert {z for z, _ in level0} == {delete(x, j).symbols for j in range(1, 6)}

    def test_entry_invariants(self):
        xs, ys = WORKED_X.symbols, WORKED_Y.symbols
        for side, ell, _, j, jp in scan_candidates(DiffProfile(WORKED_X, WORKED_Y)):
            # side L deletes j from x and j' from y, side R j' from x and j from y
            jx, jy = (j, jp) if side == "L" else (jp, j)
            z, zp = _delete_t(xs, jx), _delete_t(ys, jy)
            assert z == delete(WORKED_X, jx).symbols
            assert zp == delete(WORKED_Y, jy).symbols
            assert hamming(Sequence(z, 2), Sequence(zp, 2)) == ell

    def test_adjacent_swap_diagonal_family_counts_runs(self):
        # ...ab.../...ba... pair: the (2,0,0) family of pairs deleting the
        # same position from both words has one pair value per run of the
        # common tail
        x = seq("0110100")
        y = seq("1010100")
        p = DiffProfile(x, y)
        assert p.d == 2
        i2 = p.s[1]
        family = lambda_enumerate(x, y)[("L", 2, 1)]
        assert len(family) == len(run_last_positions(x.symbols, i2 + 1, len(x)))

    @given(sequence_pairs(q=3, min_n=2, max_n=7))
    @settings(max_examples=60)
    def test_against_naive_classification(self, pair):
        x, y = pair
        assert lambda_enumerate(x, y) == naive_lambda_groups(x, y)

    @given(sequence_pairs(q=2, min_n=2, max_n=9))
    @settings(max_examples=60)
    def test_group_rows_are_disjoint_per_index(self, pair):
        # every (j, j', side) lands in exactly one classification row
        x, y = pair
        p = DiffProfile(x, y)
        n = len(x)
        from delsub.diffs import CASE_BY_TRIPLE, scan_candidates

        seen = {}
        for side, ell, case, j, jp in scan_candidates(p):
            key = (side, j, jp)
            assert key not in seen
            seen[key] = (ell, case)
            prefix = sum(1 for v in p.s if v < j)
            mid = p.t_count(side, j + 1, jp)
            suffix = sum(1 for v in p.s if v > jp)
            assert prefix + mid + suffix == ell
            if ell:
                assert CASE_BY_TRIPLE[(prefix, mid, suffix)] == case


class TestRunContainment:
    @given(sequence_pairs(q=3, min_n=2, max_n=10), st.data())
    @settings(max_examples=150)
    def test_empty_windows_force_runs(self, pair, data):
        # if [j1, j2-1] holds no direct mismatch and [j1+1, j2] no shifted
        # one, then x[j1..j2] sits inside a run of x; dually for y with
        # both windows at [j1+1, j2]
        x, y = pair
        n = len(x)
        p = DiffProfile(x, y)
        j1 = data.draw(st.integers(1, n))
        j2 = data.draw(st.integers(j1, n))
        if not any(j1 <= v < j2 for v in p.s) and p.t_count("L", j1 + 1, j2) == 0:
            assert len(set(x.symbols[j1 - 1 : j2])) == 1
        if not any(j1 < v <= j2 for v in p.s) and p.t_count("L", j1 + 1, j2) == 0:
            assert len(set(y.symbols[j1 - 1 : j2])) == 1

    def test_pair_view_dedup_collapses_rectangles(self):
        # entries agreeing in value are merged in the group key sets: a
        # group holds fewer keys than entries, one key per distinct pair
        x, y = seq("000110"), seq("010100")
        xs, ys, n = x.symbols, y.symbols, len(x)
        p = DiffProfile(x, y)
        raw = scan_candidates(p)
        groups = group_pairs(p, raw)
        enumerated = lambda_enumerate(x, y)
        assert any(
            len(keys) < sum(1 for e in raw if e[:3] == key) for key, keys in groups.items()
        )
        for key, keys in groups.items():
            deleted = [(j, jp) if side == "L" else (jp, j)
                       for side, ell, case, j, jp in raw if (side, ell, case) == key]
            values = {(_delete_t(xs, jx), _delete_t(ys, jy)) for jx, jy in deleted}
            words = [(_delete_t(xs, kx), _delete_t(ys, ky)) for kx, ky in keys]
            assert values == set(words) == enumerated[key]
            assert len(words) == len(set(words))
            # each key is the run-last positions of x's and y's deleted index
            for kx, ky in keys:
                assert kx == n or xs[kx - 1] != xs[kx]
                assert ky == n or ys[ky - 1] != ys[ky]

    @given(st.one_of(sequence_pairs(q=2, min_n=2, max_n=10),
                     sequence_pairs(q=3, min_n=2, max_n=8)))
    @settings(max_examples=150)
    def test_keys_delete_to_group_distance(self, pair):
        # a key (jx, jy) of the scan or of the size path's family (the
        # direct construction, or the segment walk below d = 2) is itself
        # a deleted pair of its group: x minus jx and y minus jy sit at the
        # group's Hamming distance
        x, y = pair
        p = DiffProfile(x, y)
        families = [group_pairs(p, scan_candidates(p))]
        families.append(_claims_keys(p) if p.d >= 2 else _walk_keys(p))
        for groups in families:
            for (_, ell, _), keys in groups.items():
                for jx, jy in keys:
                    assert hamming(delete(x, jx), delete(y, jy)) == ell, (x, y, jx, jy)
