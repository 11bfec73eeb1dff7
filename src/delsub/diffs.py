"""Mismatch structure of an ordered pair of equal-length words.

For words x, x' of length n the three index sets

* ``S``  = positions i with x_i != x'_i,
* ``TL`` = positions i in [2, n] with x_i != x'_{i-1},
* ``TR`` = positions i in [2, n] with x_{i-1} != x'_i,

determine the Hamming distance of any pair of one-deletion results in
constant time: deleting position j from x and j' >= j from x' leaves
exactly the mismatches counted by ``|S  [1, j-1]| + |TL  [j+1, j']| +
|S  [j'+1, n]|`` (and the ``TR`` variant when the later position is
deleted from x instead).  Everything in this module is bookkeeping on
top of that identity: interval counts by bisection, and the reference
that the size path of :mod:`delsub.intersect` is checked against.  That
is the exhaustive scan (with its own prefix tables) of every deleted
pair at Hamming distance at most 2, classified by which of the three
terms carry it, and :func:`group_pairs`, which reduces its entries to
each group's distinct pair keys without building a word: deleting two
positions of one word gives the same word exactly when both lie in one
run, so a deleted pair is named by the run ends (jx, jy) of its two
deleted positions, itself a deletion pair giving the same two words.

All positions are 1-based.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, FrozenSet, List, Optional, Tuple

from .sequence import (Sequence, Word, _delete_t, _require_same_shape, mismatch_counts,
                       mismatches, run_ends, run_last_table)

GroupKey = Tuple[str, int, Optional[int]]

# Case index per (prefix, middle, suffix) mismatch-count triple.
CASE_BY_TRIPLE: Dict[Tuple[int, int, int], int] = {
    (1, 0, 0): 1,
    (0, 1, 0): 2,
    (0, 0, 1): 3,
    (2, 0, 0): 1,
    (0, 2, 0): 2,
    (0, 0, 2): 3,
    (0, 1, 1): 4,
    (1, 0, 1): 5,
    (1, 1, 0): 6,
}


class DiffProfile:
    """Index sets S, TL, TR of an ordered pair, with interval counts by
    bisection, and each word's run ends, which name deleted pairs."""

    __slots__ = ("n", "q", "s", "tl", "tr", "d", "_words", "_ends")

    def __init__(self, x: Sequence, y: Sequence):
        _require_same_shape(x, y)
        if len(x) < 2:
            raise ValueError("diff profile needs words of length at least 2")
        self._fill(x.symbols, y.symbols, x.q)

    @classmethod
    def _of_words(cls, xs: Word, ys: Word, q: int) -> "DiffProfile":
        """The profile of two symbol tuples already known to be q-ary words
        of one length >= 2, built without wrapping or checking them."""
        profile = object.__new__(cls)
        profile._fill(xs, ys, q)
        return profile

    def _fill(self, xs: Word, ys: Word, q: int) -> None:
        self.n = len(xs)
        self.q = q
        self.s = tuple(mismatches(xs, ys, 1))
        self.tl = tuple(mismatches(xs[1:], ys, 2))
        self.tr = tuple(mismatches(xs, ys[1:], 2))
        self.d = len(self.s)
        self._words = xs, ys
        self._ends: Optional[Tuple[List[int], List[int]]] = None

    def run_ends(self) -> Tuple[List[int], List[int]]:
        """The run ends of x and of y, built on first use: a pair with no
        deleted pair to name never needs them."""
        if self._ends is None:
            self._ends = run_ends(self._words[0]), run_ends(self._words[1])
        return self._ends

    def t_count(self, side: str, lo: int, hi: int) -> int:
        """|TL or TR intersected with [lo, hi]|."""
        t = self._t(side)
        return max(0, bisect_right(t, hi) - bisect_left(t, lo))

    def shifts(self, side: str) -> bool:
        """Whether TL (side L) or TR (side R) meets the mismatch window
        (i1, id]; needs d >= 1.

        Deleting j from x and j' >= j from y leaves no mismatch only when
        j <= i1, j' >= id and TL misses (i1, id], and then (i1, id) is such
        a pair; side R is the same with TR.  So x != y share a length n-1
        subsequence exactly when one side does not shift."""
        return self.t_count(side, self.s[0] + 1, self.s[-1]) != 0

    def mismatch_positions(self, j: int, jprime: int, side: str) -> Tuple[int, ...]:
        """The 1-based original positions carrying the residual mismatches
        of the deleted pair selected by (j, j', side)."""
        t, s = self._t(side), self.s
        return (
            s[: bisect_left(s, j)]
            + t[bisect_right(t, j) : bisect_right(t, jprime)]
            + s[bisect_right(s, jprime) :]
        )

    def _t(self, side: str) -> Tuple[int, ...]:
        if side not in ("L", "R"):
            raise ValueError(f"side must be 'L' or 'R', got {side!r}")
        return self.tl if side == "L" else self.tr


RawEntry = Tuple[str, int, Optional[int], int, int]
PairKey = Tuple[int, int]


def scan_candidates(profile: DiffProfile) -> List[RawEntry]:
    """Every (side, ell, case, j, j') with j <= j' whose deleted pair has
    Hamming distance at most 2.

    The scan walks the (j, j') grid but skips ranges where the prefix or
    suffix mismatch count alone already exceeds 2, and leaves a row once
    both shifted middle counts (nondecreasing in j') exceed what the
    prefix leaves, so pairs at large Hamming distance cost little.
    """
    n = profile.n
    xs, ys = profile._words
    ps = mismatch_counts(xs, ys)
    ptl = [0] + mismatch_counts(xs[1:], ys)
    ptr = [0] + mismatch_counts(xs, ys[1:])
    total = ps[n]
    out: List[RawEntry] = []
    append, case_of = out.append, CASE_BY_TRIPLE.get
    for j in range(1, n + 1):
        prefix = ps[j - 1]
        if prefix > 2:
            break
        # smallest j' with suffix count <= 2 - prefix, so rest >= 0 below
        target = total - 2 + prefix
        start = j if target <= 0 else max(j, bisect_left(ps, target))
        budget = 2 - prefix
        tlj = ptl[j]
        trj = ptr[j]
        for jprime in range(start, n + 1):
            suffix = total - ps[jprime]
            rest = budget - suffix
            mid_l = ptl[jprime] - tlj
            mid_r = ptr[jprime] - trj
            if mid_l > budget and mid_r > budget:
                break
            if mid_l <= rest:
                append(("L", prefix + mid_l + suffix, case_of((prefix, mid_l, suffix)), j, jprime))
            if mid_r <= rest:
                append(("R", prefix + mid_r + suffix, case_of((prefix, mid_r, suffix)), j, jprime))
    return out


def group_pairs(
    profile: DiffProfile, raw: List[RawEntry]
) -> Dict[GroupKey, Dict[PairKey, None]]:
    """Per group, the keys of the distinct deleted pairs of the raw entries.

    A pair is keyed by the run-last positions (jx, jy) of the index
    deleted from x and of the index deleted from y, which names it
    exactly (two deletions from one word agree exactly when they fall in
    one run) at O(1) cost.  The key is itself a deletion pair with the
    same (z, z'): z is x minus jx and z' is y minus jy.

    Each group's keys are a dict with None values, a key set that keeps
    the entries' order: member expansion fills its id sets measurably
    faster in that order than in a set's hash order.

    This is the reference that the size path's direct key construction
    (:mod:`delsub.intersect`) is checked against.
    """
    groups: Dict[GroupKey, Dict[PairKey, None]] = {}
    if not raw:
        return groups
    last_x, last_y = map(run_last_table, profile.run_ends())
    for side, ell, case, j, jprime in raw:
        if side == "L":
            key = (last_x[j], last_y[jprime])
        else:
            key = (last_x[jprime], last_y[j])
        groups.setdefault((side, ell, case), {})[key] = None
    return groups


def lambda_enumerate(x: Sequence, y: Sequence) -> Dict[GroupKey, FrozenSet[Tuple[Word, Word]]]:
    """The distinct deleted pairs (z, z') of every group of (x, y),
    collected by the exhaustive scan.

    This is the reference decomposition; the direct construction in
    :mod:`delsub.intersect` is checked against it groupwise.
    """
    profile = DiffProfile(x, y)
    return group_words(profile, group_pairs(profile, scan_candidates(profile)))


def group_words(
    profile: DiffProfile, groups: Dict[GroupKey, Dict[PairKey, None]]
) -> Dict[GroupKey, FrozenSet[Tuple[Word, Word]]]:
    """Each group's distinct deleted pairs, as words, from its keys."""
    xs, ys = profile._words
    return {
        key: frozenset((_delete_t(xs, jx), _delete_t(ys, jy)) for jx, jy in keys)
        for key, keys in groups.items()
    }
