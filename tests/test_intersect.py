import hashlib
import inspect
import json
import random
import textwrap
import time
from collections import Counter
from itertools import combinations, product
from operator import ne

import pytest
from hypothesis import given, settings

from delsub import (
    BallSpec,
    DiffProfile,
    Sequence,
    ball_intersection,
    bound_applicable,
    claims_lambda,
    constant_regime_bound,
    coverage_bound,
    delete,
    ds_ball,
    extremal_pair,
    hamming,
    intersection_size_fast,
    lambda_enumerate,
    min_valid_length,
    verify_claims,
    verify_lemmas,
)
from delsub.balls import ds11_packed
from delsub.diffs import group_pairs, scan_candidates
from delsub import diffs as diffs_module
from delsub import intersect as intersect_module
from delsub.intersect import ALL_GROUP_KEYS, group_label, structural_group_sets
from delsub.sequence import run_ends

from helpers import (all_words, expand_members, lcs_length, reference_group_sets, sequence_pairs,
                     twin_union_bound)


def seq(text, q=2):
    return Sequence.parse(text, q)


def failures(checks):
    return [c for c in checks if not c.passed]


def all_checks(x, y):
    """The group checks and the fact checks of one pair."""
    return verify_claims(x, y) + verify_lemmas(x, y)


WORKED_X = seq("01010111")
WORKED_Y = seq("01101011")


class TestBoundHelpers:
    def test_kronecker_in_bound(self):
        assert coverage_bound(29, 2) == 4 * 29 - 6 - 2 - 1  # 107
        assert coverage_bound(17, 3) == 2 * 3 * 17 - 9 - 2  # 91

    def test_min_valid_length(self):
        assert min_valid_length(2) == 29
        assert min_valid_length(3) == 17
        assert min_valid_length(4) == 14
        assert min_valid_length(5) == 14

    def test_applicability(self):
        assert bound_applicable(29, 2, 2)
        assert not bound_applicable(28, 2, 2)
        assert not bound_applicable(29, 2, 1)

    def test_constant_regime(self):
        assert constant_regime_bound(2) == 40
        assert constant_regime_bound(4) == 48


class TestExtremalPair:
    def test_q3_form(self):
        x, y = extremal_pair(3, 17)
        assert str(x) == "01201" + "01" * 6
        assert str(y) == "10201" + "01" * 6
        assert hamming(x, y) == 2

    def test_q2_form(self):
        x, y = extremal_pair(2, 6)
        assert (str(x), str(y)) == ("010101", "100101")

    def test_minimum_lengths(self):
        with pytest.raises(ValueError):
            extremal_pair(3, 4)
        with pytest.raises(ValueError):
            extremal_pair(2, 3)


class TestClaimsLambda:
    def test_rejects_small_distance(self):
        with pytest.raises(ValueError):
            claims_lambda(seq("0101"), seq("0111"))

    def test_collapsed_group_when_no_shift(self):
        # no shifted mismatch inside the window: the distance-0 group is
        # the single collapsed pair, and the two deletions really agree
        x, y = seq("00110"), seq("01100")
        p = DiffProfile(x, y)
        assert p.t_count("L", p.s[0] + 1, p.s[-1]) == 0
        (pair,) = claims_lambda(x, y)[("L", 0, None)]
        assert pair == (delete(x, p.s[0]).symbols, delete(y, p.s[-1]).symbols)
        assert pair[0] == pair[1]

    def test_empty_group_when_shifted(self):
        x, y = seq("0110"), seq("1001")
        p = DiffProfile(x, y)
        assert p.t_count("L", p.s[0] + 1, p.s[-1]) >= 1
        assert ("L", 0, None) not in claims_lambda(x, y)

    def test_matches_enumeration_exhaustive(self):
        for q, n in [(2, 6), (3, 4)]:
            for x in all_words(q, n):
                for y in all_words(q, n):
                    if hamming(x, y) < 2:
                        continue
                    assert claims_lambda(x, y) == lambda_enumerate(x, y)

    @given(sequence_pairs(q=4, min_n=5, max_n=12))
    @settings(max_examples=150)
    def test_matches_enumeration_random(self, pair):
        x, y = pair
        if hamming(x, y) < 2:
            return
        assert claims_lambda(x, y) == lambda_enumerate(x, y)

    def test_matches_enumeration_seeded_long_words(self):
        # q 2..5, n 6..100: y from x by 2-6 substitutions, an adjacent
        # swap, or a window of up to 8 symbols shifted one step
        import random

        rng = random.Random(5)
        checked = 0
        for q in (2, 3, 4, 5):
            for n in range(6, 101):
                xs = [rng.randrange(q) for _ in range(n)]
                for kind in ("substitutions", "swap", "shift"):
                    ys = list(xs)
                    if kind == "substitutions":
                        for pos in rng.sample(range(n), rng.randint(2, 6)):
                            ys[pos] = (xs[pos] + 1 + rng.randrange(q - 1)) % q
                    elif kind == "swap":
                        i = rng.randrange(n - 1)
                        ys[i], ys[i + 1] = ys[i + 1], ys[i]
                    else:
                        i = rng.randrange(n - 1)
                        k = rng.randint(i + 1, min(n - 1, i + 8))
                        window = ys[i : k + 1]
                        if rng.random() < 0.5:
                            ys[i : k + 1] = window[1:] + [rng.randrange(q)]
                        else:
                            ys[i : k + 1] = [rng.randrange(q)] + window[:-1]
                    x, y = Sequence(tuple(xs), q), Sequence(tuple(ys), q)
                    if hamming(x, y) < 2:
                        continue
                    failed = failures(all_checks(x, y))
                    assert not failed, (x, y, failed)
                    assert claims_lambda(x, y) == lambda_enumerate(x, y), (x, y)
                    checked += 1
        assert checked > 900


def scanned_groups(x, y):
    """The scan's grouped pairs of (x, y) and their expanded member sets."""
    p = DiffProfile(x, y)
    groups = group_pairs(p, scan_candidates(p))
    return groups, structural_group_sets(p, x.symbols, y.symbols, groups)


class TestGroupMembers:
    def test_worked_distance2_members(self):
        groups = lambda_enumerate(WORKED_X, WORKED_Y)
        target = (delete(WORKED_X, 4).symbols, delete(WORKED_Y, 7).symbols)
        hit = [key for key in groups if key[:2] == ("L", 2) and target in groups[key]]
        assert hit
        members = set()
        for key in hit:
            members |= expand_members(groups[key], WORKED_X.q)
        assert seq("0100101").symbols in members
        assert seq("0110111").symbols in members

    def test_distance1_groups_have_q_members_per_pair(self):
        x, y = seq("00110"), seq("01100")
        groups, sets = scanned_groups(x, y)
        for key, members in sets.items():
            if key[1] == 1:
                assert len(members) == 2 * len(groups[key])

    def test_distance0_group_is_full_ball(self):
        x, y = seq("00110"), seq("01100")
        _, sets = scanned_groups(x, y)
        for key, members in sets.items():
            if key[1] == 0:
                assert len(members) == 1 + (x.q - 1) * (len(x) - 1)

    def test_absorption_into_collapsed_ball(self):
        # when the left window carries no shifted mismatch, any pair whose
        # first word is the collapsed deletion (or second word its twin)
        # contributes nothing outside the distance-0 members
        from delsub import substitution_ball

        x, y = seq("0011010"), seq("0110010")
        p = DiffProfile(x, y)
        assert p.t_count("L", p.s[0] + 1, p.s[-1]) == 0
        groups = lambda_enumerate(x, y)
        omega0 = expand_members(groups[("L", 0, None)], x.q)
        collapsed_x = delete(x, p.s[0])
        collapsed_y = delete(y, p.s[-1])
        checked = 0
        for key, pairs in groups.items():
            if key[1] == 0:
                continue
            for z, zp in pairs:
                if z == collapsed_x.symbols or zp == collapsed_y.symbols:
                    zs = Sequence(z, x.q)
                    zps = Sequence(zp, x.q)
                    common = substitution_ball(zs, 1) & substitution_ball(zps, 1)
                    assert common <= omega0
                    checked += 1
        assert checked > 0


class TestIntersectionSizeFast:
    def test_worked_pair(self):
        report = intersection_size_fast(WORKED_X, WORKED_Y)
        oracle = len(ball_intersection(WORKED_X, WORKED_Y, BallSpec(1, 1)))
        assert report.size == oracle
        assert report.method == "structural"

    def test_extremal_q3(self):
        x, y = extremal_pair(3, 17)
        report = intersection_size_fast(x, y)
        assert report.size == 91
        assert report.bound == 91
        assert report.bound_applicable

    def test_extremal_q2(self):
        x, y = extremal_pair(2, 29)
        assert intersection_size_fast(x, y).size == 4 * 29 - 9 == 107

    def test_distance_one_is_structural(self):
        x, y = seq("01010"), seq("01011")
        report = intersection_size_fast(x, y)
        assert report.d == 1
        assert report.method == "structural"
        assert report.group_sizes
        assert report.size == len(ball_intersection(x, y, BallSpec(1, 1)))

    def test_below_distance_two_matches_oracle_exhaustively(self):
        for q, n in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)):
            words = all_words(q, n)
            for x in words:
                for y in words:
                    if hamming(x, y) > 1:
                        continue
                    report = intersection_size_fast(x, y)
                    assert report.method == "structural"
                    oracle = len(ball_intersection(x, y, BallSpec(1, 1)))
                    assert report.size == oracle, (x, y)

    def test_self_intersection(self):
        x = seq("010011")
        report = intersection_size_fast(x, x)
        assert report.d == 0
        assert report.method == "structural"
        assert report.size == len(ds_ball(x, BallSpec(1, 1)))

    def test_size_at_most_group_total(self):
        report = intersection_size_fast(WORKED_X, WORKED_Y)
        assert report.size <= sum(report.group_sizes.values())

    def test_monotone_floor(self):
        # with a collapsed pair present the full small ball is included
        x, y = seq("00110"), seq("01100")
        report = intersection_size_fast(x, y)
        assert report.omega0_size > 0
        assert report.size >= report.omega0_size

    def test_json_roundtrip(self):
        report = intersection_size_fast(WORKED_X, WORKED_Y)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["size"] == report.size
        assert set(payload) == {
            "n", "q", "d", "size", "method", "bound", "bound_applicable",
            "group_sizes", "omega0_size", "omega1_size", "omega2_size",
            "omega1_minus_omega0", "omega2_minus_omega0",
        }

    @given(sequence_pairs(q=3, min_n=3, max_n=8))
    @settings(max_examples=100)
    def test_oracle_equivalence_random(self, pair):
        x, y = pair
        assert intersection_size_fast(x, y).size == len(
            ball_intersection(x, y, BallSpec(1, 1))
        )


def tuple_report(x, y):
    """``intersection_size_fast(x, y).to_dict()`` rebuilt from the scan's
    deleted pairs and the tests' word-tuple expansion."""
    n, q, d = len(x), x.q, hamming(x, y)
    sets = {key: expand_members(pairs, q) for key, pairs in lambda_enumerate(x, y).items()}
    levels = {ell: set() for ell in (0, 1, 2)}
    for key, members in sets.items():
        levels[key[1]] |= members
    return {
        "n": n,
        "q": q,
        "d": d,
        "size": len(set().union(*sets.values())),
        "method": "structural",
        "bound": coverage_bound(n, q),
        "bound_applicable": bound_applicable(n, q, d),
        "group_sizes": {group_label(k): len(v) for k, v in sets.items()},
        "omega0_size": len(levels[0]),
        "omega1_size": len(levels[1]),
        "omega2_size": len(levels[2]),
        "omega1_minus_omega0": len(levels[1] - levels[0]),
        "omega2_minus_omega0": len(levels[2] - levels[0]),
    }


class TestMemberIds:
    @pytest.mark.parametrize("order_seed", [0, 1000003, 1])
    def test_ids_equal_exactly_when_words_equal(self, order_seed):
        # every edit (j, p, c) of every binary word up to n = 9, ternary
        # word up to n = 6 and q = 4, 5 word up to n = 4, each word's edits
        # queried in an order shuffled by order_seed
        rng = random.Random(order_seed)
        for q, top in ((2, 9), (3, 6), (4, 4), (5, 4)):
            for n in range(2, top + 1):
                for x in all_words(q, n):
                    xs = x.symbols
                    ids = intersect_module._MemberIds(xs, q, run_ends(xs))
                    edits = [(j, p, c) for j in range(n) for p in range(n - 1) for c in range(q)]
                    rng.shuffle(edits)
                    id_of_word = {}
                    for j, p, c in edits:
                        z = xs[:j] + xs[j + 1 :]
                        word = z[:p] + (c,) + z[p + 1 :]
                        k = ids.edit(j, p, c)
                        assert id_of_word.setdefault(word, k) == k, (xs, j, p, c)
                    assert len(set(id_of_word.values())) == len(id_of_word), xs
                    for j in range(n):
                        z = xs[:j] + xs[j + 1 :]
                        ball = set()
                        ids.add_ball(ball, j)
                        assert ball == {
                            id_of_word[z[:p] + (c,) + z[p + 1 :]]
                            for p in range(n - 1) for c in range(q)
                        }
                        for p in range(n - 1):
                            column = set()
                            ids.add_column(column, j, p)
                            assert column == {
                                id_of_word[z[:p] + (c,) + z[p + 1 :]] for c in range(q)
                            }

    def test_ids_do_not_depend_on_query_order(self):
        # an id is a function of the edited word alone: two id tables
        # queried in opposite orders agree, and every id is below n n q
        words = [(2, x.symbols) for n in range(2, 8) for x in all_words(2, n)]
        rng = random.Random(31)
        for q in (3, 4):
            words += [(q, tuple(rng.randrange(q) for _ in range(40))) for _ in range(200)]
        for q, xs in words:
            n = len(xs)
            edits = [(j, p, c) for j in range(n) for p in range(n - 1) for c in range(q)]
            forward = intersect_module._MemberIds(xs, q, run_ends(xs))
            backward = intersect_module._MemberIds(xs, q, run_ends(xs))
            ids = [forward.edit(*e) for e in edits]
            assert ids == [backward.edit(*e) for e in reversed(edits)][::-1], xs
            assert 0 <= min(ids) and max(ids) < n * n * q, xs

    def test_sizes_match_oracle_exhaustively(self):
        for n in range(3, 7):
            words = all_words(2, n)
            for x in words:
                for y in words:
                    oracle = len(ball_intersection(x, y, BallSpec(1, 1)))
                    assert intersection_size_fast(x, y).size == oracle, (x, y)

    def test_reports_match_tuple_expansion_on_long_words(self):
        rng = random.Random(23)
        checked = 0
        for q in (2, 3, 4):
            for n in (100, 400):
                pairs = [extremal_pair(q, n)]
                for d in (1, 2, 3, 4):
                    xs = tuple(rng.randrange(q) for _ in range(n))
                    ys = list(xs)
                    for pos in rng.sample(range(n), d):
                        ys[pos] = (xs[pos] + 1 + rng.randrange(q - 1)) % q
                    pairs.append((Sequence(xs, q), Sequence(tuple(ys), q)))
                xs = list(pairs[-1][0].symbols)
                i = rng.randrange(n - 1)
                xs[i], xs[i + 1] = 0, 1
                ys = list(xs)
                ys[i], ys[i + 1] = ys[i + 1], ys[i]
                pairs.append((Sequence(tuple(xs), q), Sequence(tuple(ys), q)))
                for x, y in pairs:
                    assert intersection_size_fast(x, y).to_dict() == tuple_report(x, y), (x, y)
                    checked += 1
        # near-constant words, where many (j, j') share one deleted-pair
        # key: 0^n against itself and against 0^(n-1)1, and 0^k 1^k 0^k
        # against a copy with one substitution in each 0-run
        for n in (60, 100):
            k = n // 3
            zeros = Sequence((0,) * n, 2)
            runs = (0,) * k + (1,) * k + (0,) * (n - 2 * k)
            changed = list(runs)
            changed[k // 2] = changed[n - 1 - k // 2] = 1
            pairs = [
                (zeros, zeros),
                (zeros, Sequence((0,) * (n - 1) + (1,), 2)),
                (Sequence(runs, 2), Sequence(tuple(changed), 2)),
            ]
            for x, y in pairs:
                assert intersection_size_fast(x, y).to_dict() == tuple_report(x, y), (x, y)
                checked += 1
        assert checked == 42

    def test_self_intersection_matches_tuple_expansion(self):
        # x == y: the side-R groups take side L's member sets, and the
        # distance-0 balls are mostly interior edits
        rng = random.Random(29)
        for q in (2, 3, 4):
            for n in (60, 120):
                x = Sequence(tuple(rng.randrange(q) for _ in range(n)), q)
                report = intersection_size_fast(x, x)
                assert report.to_dict() == tuple_report(x, x), x
                if n == 60:
                    assert report.size == len(ds11_packed(x.symbols, q))

    def test_two_substitutions_of_constant_word_is_fast(self):
        n = 2000
        x = Sequence((0,) * n, 2)
        ys = [0] * n
        ys[600] = ys[1400] = 1
        start = time.perf_counter()
        report = intersection_size_fast(x, Sequence(tuple(ys), 2))
        assert time.perf_counter() - start < 1.0
        assert report.size == 5


def size_path_groups(profile):
    """The grouped deleted pairs that intersection_size_fast expands: the
    direct construction (side L, then side R) at d >= 2, the segment walk
    below."""
    if profile.d >= 2:
        return intersect_module._claims_keys(profile)
    return intersect_module._walk_keys(profile)


class TestTwinGroups:
    DIAGONAL = (1, 3, 5)

    def check_pair(self, x, y):
        """Every group's set equals its key-by-key reference expansion, in
        the size path's order (L before R), the scan's interleaved order,
        the scan's order reversed (R before L) and the scan's order with
        each group's keys reversed; at d = 2 the later of two diagonal
        twins is the earlier one's set object."""
        profile = DiffProfile(x, y)
        orders = [size_path_groups(profile)]
        scanned = group_pairs(profile, scan_candidates(profile))
        orders += [scanned, dict(reversed(scanned.items())),
                   {key: dict.fromkeys(reversed(keys)) for key, keys in scanned.items()}]
        reference = reference_group_sets(x, y, scanned)
        for groups in orders:
            sets = structural_group_sets(profile, x.symbols, y.symbols, groups)
            expected = reference if groups == scanned else reference_group_sets(x, y, groups)
            assert sets == expected, (x, y)
            if profile.d == 2:
                order = list(groups)
                for case in self.DIAGONAL:
                    twins = [key for key in order if key[1:] == (2, case)]
                    assert len(twins) in (0, 2), (x, y, case)
                    if twins:
                        first, second = twins
                        assert sets[second] is sets[first], (x, y, case)

    def test_sets_match_per_key_reference_exhaustively(self):
        for q, n in ((2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4)):
            words = all_words(q, n)
            for x in words:
                for y in words:
                    self.check_pair(x, y)

    def test_sets_match_per_key_reference_on_long_words(self):
        rng = random.Random(37)
        n = 400
        for q in (2, 3):
            x, y = extremal_pair(q, n)
            self.check_pair(x, y)
            xs = [rng.randrange(q) for _ in range(n)]
            i = rng.randrange(n - 1)
            xs[i], xs[i + 1] = 0, 1
            ys = list(xs)
            ys[i], ys[i + 1] = ys[i + 1], ys[i]
            self.check_pair(Sequence(tuple(xs), q), Sequence(tuple(ys), q))

    @staticmethod
    def block_pairs(rng, q, n, words):
        """Every d = 2 pair of each of ``words`` random words made of runs
        of length 1-3: some run ends at i1 - 1 or i2 - 1, or two runs
        before, so the first diagonal keys above a mismatch need a check."""
        for _ in range(words):
            xs = []
            while len(xs) < n:
                symbol = rng.choice([a for a in range(q) if not xs or a != xs[-1]])
                xs += [symbol] * rng.randint(1, 3)
            xs = tuple(xs[:n])
            for i1 in range(n):
                for i2 in range(i1 + 1, n):
                    ys = list(xs)
                    for i in (i1, i2):
                        ys[i] = (xs[i] + rng.randrange(1, q)) % q
                    yield Sequence(xs, q), Sequence(tuple(ys), q)

    def test_bulk_diagonal_where_runs_end_next_to_mismatches(self):
        rng = random.Random(43)
        # 0^k 1 0^k 1 ... against every two substitutions, and every three
        # (d = 3, where a diagonal key can delete a mismatch itself)
        for k in (1, 2, 3):
            xs = ((0,) * k + (1,)) * 4
            for d in (2, 3):
                for positions in combinations(range(len(xs)), d):
                    ys = list(xs)
                    for i in positions:
                        ys[i] = 1 - ys[i]
                    self.check_pair(Sequence(xs, 2), Sequence(tuple(ys), 2))
        for q in (2, 3, 4):
            for x, y in self.block_pairs(rng, q, 14, 3):
                self.check_pair(x, y)

    def test_bulk_diagonal_exhaustive_binary_distance_two(self):
        words = all_words(2, 8)
        for x in words:
            for y in words:
                if hamming(x, y) == 2:
                    self.check_pair(x, y)

    def test_bulk_diagonal_on_long_words(self):
        rng = random.Random(47)
        n = 400
        for q in (2, 3, 4):
            pairs = [extremal_pair(q, n)]
            xs = tuple(rng.randrange(q) for _ in range(n))
            blocks = next(self.block_pairs(rng, q, n, 1))[0].symbols
            for word in (xs, blocks):
                for _ in range(3):
                    ys = list(word)
                    for i in rng.sample(range(n), 2):
                        ys[i] = (word[i] + rng.randrange(1, q)) % q
                    pairs.append((Sequence(word, q), Sequence(tuple(ys), q)))
            for x, y in pairs:
                self.check_pair(x, y)

    def test_bulk_diagonal_sizes_match_oracle(self):
        rng = random.Random(53)
        for q, n in ((2, 60), (3, 40), (4, 30)):
            pairs = list(self.block_pairs(rng, q, n, 1))
            for x, y in rng.sample(pairs, 25):
                oracle = len(ball_intersection(x, y, BallSpec(1, 1)))
                assert intersection_size_fast(x, y).size == oracle, (x, y)

    def test_diagonal_twins_hold_the_same_keys(self):
        # at d = 2 deleting one index from both words leaves no middle
        # term, so the two sides' diagonal groups list the same keys
        rng = random.Random(41)
        for q in (2, 3, 4):
            xs = [rng.randrange(q) for _ in range(60)]
            ys = list(xs)
            for i in (20, 40):
                ys[i] = (xs[i] + 1) % q
            x, y = Sequence(tuple(xs), q), Sequence(tuple(ys), q)
            profile = DiffProfile(x, y)
            for groups in (size_path_groups(profile),
                           group_pairs(profile, scan_candidates(profile))):
                for case in self.DIAGONAL:
                    assert groups["L", 2, case] == groups["R", 2, case], (q, case)


def run_heavy_word(rng, q, n):
    """A random length-n word made of runs of length 1-4."""
    xs = []
    while len(xs) < n:
        symbol = rng.choice([a for a in range(q) if not xs or a != xs[-1]])
        xs += [symbol] * rng.randint(1, 4)
    return tuple(xs[:n])


class TestSizePathKeys:
    """The size path writes each group's keys itself: the segment walk
    below Hamming distance 2 against the scan it replaces there, and the
    whole path without the scan or its grouping."""

    @staticmethod
    def near_pairs(q, n):
        """Every ordered pair of length-n words at Hamming distance <= 1."""
        for x in all_words(q, n):
            xs = x.symbols
            yield x, x
            for i in range(n):
                for c in range(q):
                    if c != xs[i]:
                        yield x, Sequence(xs[:i] + (c,) + xs[i + 1 :], q)

    @staticmethod
    def check_walk(x, y):
        profile = DiffProfile(x, y)
        scanned = group_pairs(profile, scan_candidates(profile))
        walked = intersect_module._walk_keys(profile)
        assert walked.keys() == scanned.keys(), (x, y)
        for key, keys in scanned.items():
            assert walked[key] == keys, (x, y, key)

    def test_walk_equals_scan_exhaustively(self):
        for q, top in ((2, 9), (3, 6)):
            for n in range(2, top + 1):
                for x, y in self.near_pairs(q, n):
                    self.check_walk(x, y)

    def test_walk_equals_scan_on_long_words(self):
        # the scan is O(n^2) on near-constant words, so n = 1000 gets two
        rng = random.Random(59)
        for n in (400, 1000):
            zeros = (0,) * n
            middle = list(zeros)
            middle[rng.randrange(n)] = 1
            pairs = [(zeros, zeros, 2), (zeros, tuple(middle), 2)]
            if n == 400:
                last = zeros[1:] + (1,)
                pairs += [(zeros, last, 3), (last, zeros, 2), (last, last, 2)]
            for q in (2, 3, 4):
                runs = run_heavy_word(rng, q, n)
                i = rng.randrange(n)
                changed = runs[:i] + ((runs[i] + rng.randrange(1, q)) % q,) + runs[i + 1 :]
                pairs += [(runs, runs, q), (runs, changed, q), (changed, runs, q)]
            for xs, ys, q in pairs:
                self.check_walk(Sequence(xs, q), Sequence(ys, q))

    @pytest.mark.parametrize("last", [0, 1], ids=["equal", "last-substituted"])
    def test_near_constant_words_are_fast(self, last):
        n = 3000
        x = Sequence((0,) * n, 2)
        y = Sequence((0,) * (n - 1) + (last,), 2)
        start = time.perf_counter()
        report = intersection_size_fast(x, y)
        assert time.perf_counter() - start < 1.0
        assert report.size == n

    def test_size_path_runs_neither_scan_nor_grouping(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the size path ran the reference scan or grouping")

        for module in (diffs_module, intersect_module):
            for name in ("scan_candidates", "group_pairs"):
                monkeypatch.setattr(module, name, forbidden)
        rng = random.Random(61)
        for q, n in ((2, 10), (3, 7)):
            for d in range(n + 1):
                xs = tuple(rng.randrange(q) for _ in range(n))
                ys = list(xs)
                for i in rng.sample(range(n), d):
                    ys[i] = (xs[i] + rng.randrange(1, q)) % q
                x, y = Sequence(xs, q), Sequence(tuple(ys), q)
                oracle = len(ball_intersection(x, y, BallSpec(1, 1)))
                assert intersection_size_fast(x, y).size == oracle, (x, y)


def window_families(rng, q, n):
    """Seeded pairs of length n >= 12 as (x, y, collapsed side or None): x
    against a uniform word, against 6-12 substitutions, and against a
    shifted window both ways.  The shifted word is x minus index i with a
    symbol inserted at index k, so the two share a length n-1
    subsequence: the side deleting i from x and k from the other word
    collapses the window."""
    xs = tuple(rng.randrange(q) for _ in range(n))
    subs = list(xs)
    for i in rng.sample(range(n), rng.randint(6, 12)):
        subs[i] = (xs[i] + rng.randrange(1, q)) % q
    i = rng.randrange(n - 6)
    k = rng.randint(i + 6, min(n - 1, i + 60))
    shifted = xs[:i] + xs[i + 1 : k + 1] + (rng.randrange(q),) + xs[k + 1 :]
    return [(xs, tuple(rng.randrange(q) for _ in range(n)), None),
            (xs, tuple(subs), None), (xs, shifted, "L"), (shifted, xs, "R")]


class TestWindowExit:
    """At Hamming distance >= 6 a side whose shifted set holds more than
    two positions in (i3, i_{d-2}] has no group: every pair j <= j' of
    that side within distance 2 has j <= i3 and j' >= i_{d-2}, so its
    middle count is at least that many.  The direct construction reads
    such a side like any other and must write it no key."""

    @staticmethod
    def exits(p):
        return {side for side in "LR" if p.t_count(side, p.s[2] + 1, p.s[-3]) > 2}

    def check(self, xs, ys, q):
        """The direct family against the scan's on one pair at d >= 6;
        returns the family and the sides the count leaves without a group."""
        p = DiffProfile._of_words(xs, ys, q)
        sides = self.exits(p)
        direct = intersect_module._claims_keys(p)
        assert direct == group_pairs(p, scan_candidates(p)), (xs, ys)
        assert not [key for key in direct if key[0] in sides], (xs, ys)
        return direct, sides

    def test_exit_equals_scan_exhaustively(self):
        skipped = Counter()
        for q, top in ((2, 9), (3, 6)):
            for n in range(6, top + 1):
                words = list(product(range(q), repeat=n))
                for xs in words:
                    for ys in words:
                        if sum(map(ne, xs, ys)) >= 6:
                            skipped[len(self.check(xs, ys, q)[1])] += 1
        assert skipped[1] and skipped[2], skipped

    def test_exit_equals_scan_on_long_words(self):
        # the exit must not skip the side that collapses a shifted window
        rng = random.Random(67)
        skipped = Counter()
        for q in (2, 3, 4, 5):
            for n in (12, 29, 60, 200, 1000):
                for _ in range(3):
                    for x, y, collapsed in window_families(rng, q, n):
                        if sum(map(ne, x, y)) < 6:
                            continue
                        direct, sides = self.check(x, y, q)
                        skipped[len(sides)] += 1
                        if collapsed:
                            assert collapsed not in sides, (x, y)
                            assert (collapsed, 0, None) in direct, (x, y)
        assert skipped[0] and skipped[2] > 50, skipped


def relabeled_pairs(q, n):
    """Every ordered pair of length-n q-ary words up to a relabeling of
    the alphabet: x runs over the words whose symbols first appear in the
    order 0, 1, 2, ..., y over all words."""
    words = list(product(range(q), repeat=n))
    for xs in words:
        if list(dict.fromkeys(xs)) == list(range(max(xs) + 1)):
            for ys in words:
                yield xs, ys


class TestEmptyFamilyMasks:
    """The sweep's packed bound against the direct family: it is 0 exactly
    when no deleted-pair key is written, and never below the union bound
    of the keys."""

    # each branch count of the bound, and the run-end count, the run
    # through each diagonal window's last position and the two shared
    # distance-1 keys of d = 2, as the source writes them
    TERMS = ("mid_all == 0", "(2, 1, 0)[min(mid_all, 2)]", "(3, 2, 1, 0)[min(mid_all, 3)]",
             "(2, 1, 0)[min(mid_front, 2)]", "(2, 1, 0)[min(mid_back, 2)]",
             "(mid_back == 0)", "(mid_front == 0)",
             "(c3 - e1 == 0)", "(c1 - e3 == 0)", "(c2 - e2 == 0)",
             "(ends & ~(s | s >> width)).bit_count()",
             "(l1 > width)", "(l2 - l1 > width)", "(l2 < n * width)", "keys1 += 2")
    SIDES = "for v in (x ^ y << width, x << width ^ y):"

    @staticmethod
    def check(xs, ys, q):
        """Whether the pair's family is empty, after checking the bound
        against it and against the union bound of its keys."""
        keys = intersect_module._pair_keys(DiffProfile._of_words(xs, ys, q))
        bound = intersect_module._packed_bound(xs, ys, q)
        assert (bound == 0) == (not keys), (xs, ys, q)
        assert bound >= intersect_module._union_bound(keys, len(xs), q), (xs, ys, q)
        return not keys

    def test_equals_family_exhaustively(self):
        # both read only which symbols are equal, so the pairs up to a
        # relabeling of the alphabet stand for every pair
        outcomes = Counter()
        for q, top in ((2, 9), (3, 6), (4, 5)):
            for n in range(3, top + 1):
                for xs, ys in relabeled_pairs(q, n):
                    outcomes[q, self.check(xs, ys, q)] += 1
        assert all(outcomes[q, e] for q in (2, 3, 4) for e in (True, False)), outcomes

    @pytest.mark.parametrize("q", [257, (1 << 16) + 1, (1 << 32) + 1])
    def test_equals_family_past_byte_alphabets(self, q):
        # ternary pairs written with 0, q - 1 and q - 2, where q - 1 differs
        # from 0 only past the narrower field: each field must hold a symbol
        symbols = (0, q - 1, q - 2)
        for n in range(3, 6):
            for xs, ys in relabeled_pairs(3, n):
                self.check(*(tuple(symbols[a] for a in w) for w in (xs, ys)), q)

    def test_equals_family_on_long_words(self):
        rng = random.Random(73)
        outcomes = Counter()
        for q in (2, 3, 4, 5):
            for n in (29, 60, 200, 1000):
                for _ in range(3):
                    for xs, ys, _ in window_families(rng, q, n):
                        outcomes[self.check(xs, ys, q)] += 1
        assert outcomes[True] > 20 and outcomes[False] > 20, outcomes

    def test_bound_on_low_distances_and_wide_alphabets(self):
        # d = 2 to 5, where few branches are cut off by the counts, up to
        # two-byte fields
        rng = random.Random(79)
        for q in (2, 3, 5, 257, (1 << 16) + 1):
            for n in (12, 29, 60, 200, 1000):
                for _ in range(20):
                    xs = tuple(rng.randrange(q) for _ in range(n))
                    ys = list(xs)
                    for i in rng.sample(range(n), rng.randint(2, 5)):
                        ys[i] = (xs[i] + rng.randrange(1, q)) % q
                    self.check(xs, tuple(ys), q)

    def test_each_term_and_side_is_needed(self):
        # any branch count lowered by one where it is positive, or one side
        # left unread, undercuts the union bound somewhere
        source = textwrap.dedent(inspect.getsource(intersect_module._packed_bound))
        for text in (*self.TERMS, self.SIDES):
            assert source.count(text) == 1, text
        mutants = [source.replace(term, "keys1 += 1" if term == "keys1 += 2"
                                  else f"max(({term}) - 1, 0)") for term in self.TERMS]
        mutants += [source.replace(self.SIDES, f"for v in ({side},):")
                    for side in ("x ^ y << width", "x << width ^ y")]
        pairs = [(xs, ys, q) for q, n in ((2, 8), (3, 5), (4, 4)) for xs, ys in relabeled_pairs(q, n)]
        # lowering the d = 2 run-end count needs a pair at d = 2 whose x
        # has a run end away from both mismatches and whose bound meets the
        # union bound: no binary pair up to n = 12 is one, this ternary one is
        pairs.append(((0, 0, 1, 0, 1, 0, 1), (0, 0, 2, 0, 2, 0, 1), 3))
        union = [intersect_module._union_bound(
            intersect_module._pair_keys(DiffProfile._of_words(*p)), len(p[0]), p[2]) for p in pairs]
        for mutant in mutants:
            namespace = dict(vars(intersect_module))
            exec(mutant, namespace)
            wrong = namespace["_packed_bound"]
            assert any(wrong(*p) < u for p, u in zip(pairs, union)), mutant


class TestPairSize:
    """The sweep's size stage, :func:`_pair_report`, against the report of
    :func:`intersection_size_fast`."""

    def test_equals_report_size_at_every_distance(self):
        rng = random.Random(71)
        for q in (2, 3, 4, 5):
            for n in (3, 4, 5, 6, 7, 8, 10, 13, 29, 60, 200):
                for d in range(n + 1) if n <= 29 else (*range(9), n // 2, n):
                    xs = tuple(rng.randrange(q) for _ in range(n))
                    ys = list(xs)
                    for i in rng.sample(range(n), d):
                        ys[i] = (xs[i] + rng.randrange(1, q)) % q
                    ys = tuple(ys)
                    x, y = Sequence(xs, q), Sequence(ys, q)
                    report = intersection_size_fast(x, y).to_dict()
                    assert intersect_module._pair_report(xs, ys, q).to_dict() == report, (x, y)
                    # the profile a caller built, as the remark5 sampler hands it on
                    p, checked = DiffProfile._of_words(xs, ys, q), DiffProfile(x, y)
                    assert [getattr(p, a) for a in ("n", "q", "s", "tl", "tr", "d", "_words")] \
                        == [getattr(checked, a) for a in ("n", "q", "s", "tl", "tr", "d", "_words")]
                    assert intersect_module._pair_report(xs, ys, q, p).to_dict() == report, (x, y)

    @staticmethod
    def check_bound(xs, ys, q):
        """The size, after checking that the union bound lies between it
        and the group-by-group reference bound, and that a floor one below
        the size still gives the full report; returns the bound too."""
        n = len(xs)
        report = intersect_module._pair_report(xs, ys, q)
        size = report.size
        assert intersect_module._pair_report(xs, ys, q, floor=size - 1) == report, (xs, ys)
        keys = intersect_module._pair_keys(DiffProfile._of_words(xs, ys, q))
        bound = intersect_module._union_bound(keys, n, q)
        assert size <= bound <= twin_union_bound(keys, n, q), (xs, ys)
        return size, bound

    @pytest.mark.parametrize("q, n", [(2, 3), (2, 5), (2, 7), (3, 4), (4, 3)])
    def test_bound_never_below_size_on_every_pair(self, q, n):
        # at every distance, x == y included
        words = list(product(range(q), repeat=n))
        for xs in words:
            for ys in words:
                self.check_bound(xs, ys, q)

    @pytest.mark.parametrize("n", [29, 60, 200])
    def test_bound_never_below_size_on_pinned_families(self, n):
        # extremal, adjacent-swap and near-constant pairs, where the
        # intersection fills most of what the keys could add
        for x, y in pinned_families(n):
            xs, ys, q = x.symbols, y.symbols, x.q
            size, bound = self.check_bound(xs, ys, q)
            # and a floor at the bound skips the expansion
            assert intersect_module._pair_report(xs, ys, q, floor=bound) is None, (x, y)


def pinned_families(n):
    """Seeded pairs of length n, for each q in 2, 3, 4: a run-heavy word
    against itself with 0-4 substitutions, an adjacent swap 01/10, 0^n
    against itself, against 0^(n-1)1 both ways and against 0^n with two
    1s, and the extremal pair."""
    rng = random.Random(f"pinned:{n}")
    pairs = []
    for q in (2, 3, 4):
        runs = run_heavy_word(rng, q, n)
        for k in range(5):
            ys = list(runs)
            for i in rng.sample(range(n), k):
                ys[i] = (ys[i] + rng.randrange(1, q)) % q
            pairs.append((runs, tuple(ys), q))
        xs = [rng.randrange(q) for _ in range(n)]
        i = rng.randrange(n - 1)
        xs[i : i + 2] = [0, 1]
        pairs.append((tuple(xs), tuple(xs[:i] + [1, 0] + xs[i + 2 :]), q))
        zeros, last = (0,) * n, (0,) * (n - 1) + (1,)
        two = list(zeros)
        for i in rng.sample(range(n), 2):
            two[i] = 1
        pairs += [(zeros, zeros, q), (zeros, last, q), (last, zeros, q), (zeros, tuple(two), q)]
        pairs.append((*(w.symbols for w in extremal_pair(q, n)), q))
    return [(Sequence(xs, q), Sequence(ys, q)) for xs, ys, q in pairs]


class TestPinnedReports:
    """sha256 of the JSON of every report, one line per pair in order,
    recorded before the size path wrote its keys directly: a change that
    alters any size, group size or overlap field on these domains fails."""

    @pytest.mark.parametrize("pairs, digest", [
        (lambda: [(x, y) for x in all_words(2, 7) for y in all_words(2, 7)],
         "3aefd520cdb9f865fa463973110b8d6f023f6a755c773743786c51d07c5bbda0"),
        (lambda: [(x, y) for x in all_words(3, 5) for y in all_words(3, 5)],
         "2dceebf48f3cd52d9b7bb5d4bc9988fcc39423aa1d78912424fdacdf36433bd7"),
        (lambda: pinned_families(60), "eda3f19368a5eff0a92d7eb4e4f4c65dabe072a66afc1e9476760168887b3db7"),
        (lambda: pinned_families(400), "ccd19641500d3a2a49f75ec4944ec9254e989b3cdd0f893bb0140d9319294787"),
    ], ids=["q2n7-exhaustive", "q3n5-exhaustive", "families-n60", "families-n400"])
    def test_report_digest(self, pairs, digest):
        h = hashlib.sha256()
        for x, y in pairs():
            h.update(json.dumps(intersection_size_fast(x, y).to_dict()).encode() + b"\n")
        assert h.hexdigest() == digest


class TestTightFamilies:
    def test_q3_family_meets_lower_bound(self):
        for n in range(5, 26):
            x, y = extremal_pair(3, n)
            assert intersection_size_fast(x, y).size >= 2 * 3 * n - 9 - 2

    def test_q2_family_meets_lower_bound(self):
        for n in range(4, 26):
            x, y = extremal_pair(2, n)
            assert intersection_size_fast(x, y).size >= 4 * n - 9

    def test_bound_holds_at_and_past_threshold(self):
        for q in (2, 3, 4, 11, 16):
            m = min_valid_length(q)
            for n in range(m, m + 4):
                x, y = extremal_pair(q, n)
                assert intersection_size_fast(x, y).size == coverage_bound(n, q)
            if q > 10:
                # symbols past 9 take more than one digit in text form
                x, y = extremal_pair(q, m)
                assert len(ball_intersection(x, y, BallSpec(1, 1))) == coverage_bound(m, q)


class TestVerifyClaims:
    def test_needs_distance_two(self):
        for verify in (verify_claims, verify_lemmas):
            for y in ("0101", "0100"):
                with pytest.raises(ValueError, match="Hamming distance >= 2"):
                    verify(seq("0101"), seq(y))

    def test_worked_pair_all_pass(self):
        group_checks = verify_claims(WORKED_X, WORKED_Y)
        assert failures(group_checks) == []
        assert failures(verify_lemmas(WORKED_X, WORKED_Y)) == []
        assert len(group_checks) == len(ALL_GROUP_KEYS) == 20

    def test_group_mismatch_reported_per_group(self, monkeypatch):
        # drop one group from the direct construction: that group alone
        # fails, with both pair counts, and the others keep passing
        x, y = WORKED_X, WORKED_Y
        p = DiffProfile(x, y)
        scanned = group_pairs(p, scan_candidates(p))
        target = max(scanned, key=lambda key: len(scanned[key]))
        original = intersect_module._claims_keys

        def without_target(profile):
            return {key: keys for key, keys in original(profile).items() if key != target}

        monkeypatch.setattr(intersect_module, "_claims_keys", without_target)
        group_checks = verify_claims(x, y)
        assert [(c.name, c.detail) for c in failures(group_checks)] == [
            (group_label(target), f"direct has 0 pairs, scan has {len(scanned[target])}")
        ]
        assert len(group_checks) == 20
        assert [c.name for c in group_checks] == [group_label(k) for k in ALL_GROUP_KEYS]
        # the facts read the scan only, so the broken construction leaves them passing
        assert failures(verify_lemmas(x, y)) == []

    def test_exhaustive_small_domain(self):
        for x in all_words(2, 6):
            for y in all_words(2, 6):
                if hamming(x, y) < 2:
                    continue
                failed = failures(all_checks(x, y))
                assert not failed, (x, y, failed)

    def test_adjacent_swap_core_size(self):
        # u a b v / u b a v with no shifted mismatch in the window: the
        # distance-0 members number 2(1+(q-1)(n-1)) - q
        q, n = 3, 9
        x = Sequence((2, 0, 1, 2, 2, 0, 1, 2, 0), q)
        y = Sequence((2, 0, 1, 2, 0, 2, 1, 2, 0), q)  # swap at positions 5,6
        p = DiffProfile(x, y)
        assert p.d == 2 and p.s[1] == p.s[0] + 1
        assert p.t_count("L", p.s[0] + 1, p.s[1]) == 0
        assert p.t_count("R", p.s[0] + 1, p.s[1]) == 0
        report = intersection_size_fast(x, y)
        assert report.omega0_size == 2 * (1 + (q - 1) * (n - 1)) - q
        checks = {c.name: c for c in verify_lemmas(x, y)}
        assert "adjacent-swap-core-size" in checks
        assert checks["adjacent-swap-core-size"].passed

    @pytest.mark.parametrize("x, y, q, names", [
        # d = 2, neither window shifted: the adjacent swap at positions 5, 6
        ("201220120", "201202120", 3, [
            "dist1-absorbed[L]", "dist1-absorbed[R]", "dist2-diagonal-family",
            "dist2-offdiag-new[L]", "dist2-offdiag-new[R]",
            "adjacent-swap-core-size", "adjacent-swap-new",
        ]),
        # d = 2, only side R shifted
        ("000011", "000110", 2, [
            "dist1-absorbed[L]", "dist1-family[R]", "dist2-diagonal-family",
            "dist2-offdiag-new[L]", "dist2-offdiag-family[R]",
        ]),
        # d = 3, both sides shifted
        ("000000", "000111", 2, [
            "dist1-family[L]", "dist1-family[R]", "dist2-family-d3[L]", "dist2-family-d3[R]",
        ]),
        # d = 3, side L unshifted
        ("000100", "001001", 2, [
            "dist1-absorbed[L]", "dist1-family[R]", "dist2-new-d3[L]", "dist2-family-d3[R]",
        ]),
    ])
    def test_each_branch_lists_exactly_its_facts(self, x, y, q, names):
        fact_checks = verify_lemmas(seq(x, q), seq(y, q))
        assert [c.name for c in fact_checks] == names
        assert failures(fact_checks + verify_claims(seq(x, q), seq(y, q))) == []

    def test_constant_regime_bound_on_shifted_pairs(self):
        # both windows shifted and Hamming distance >= 3: size <= 4q + 32
        import random

        rng = random.Random(11)
        q, n = 4, min_valid_length(4)
        checked = 0
        while checked < 50:
            xs = tuple(rng.randrange(q) for _ in range(n))
            ys = list(xs)
            for pos in rng.sample(range(n), 4):
                ys[pos] = (xs[pos] + 1 + rng.randrange(q - 1)) % q
            x, y = Sequence(xs, q), Sequence(tuple(ys), q)
            if hamming(x, y) < 3 or n - lcs_length(xs, ys) < 2:
                continue
            assert intersection_size_fast(x, y).size <= constant_regime_bound(q)
            checked += 1

    def test_group_labels(self):
        assert group_label(("L", 0, None)) == "L:0"
        assert group_label(("R", 2, 5)) == "R:2.5"
