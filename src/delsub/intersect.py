"""Structural computation of (1,1)-ball intersections.

The intersection of the single-deletion single-substitution balls of two
words x, x' is the union, over every deleted pair (z, z') at Hamming
distance at most 2, of the radius-1 substitution balls' intersection
B(z) & B(z').  Each such intersection has a direct form: the full
radius-1 ball of z when z == z', exactly q words (one per alphabet
symbol written at the single residual mismatch) at distance 1, and
exactly 2 words (each mismatch repaired with the other word's symbol)
at distance 2.  Generating those members straight from the deletion
positions and residual mismatches, never materializing a ball, gives the
exact intersection size.  Deleted pairs are named by keys, the run ends
holding their two deleted indices (see :func:`delsub.diffs.group_pairs`),
written directly, by the direct construction at Hamming distance >= 2
and by a walk over pairs of segments below it (:func:`_walk_keys`), and
expanded into canonical member ids computed in O(1) each from the member
word alone (:class:`_MemberIds`).  Twin groups holding the same keys
share one expansion, and a group's diagonal keys (deleting one index
from both words) are expanded one slice per mismatch
(:meth:`_MemberIds.add_diagonal`).  So the cost is O(n) plus the output
size at every Hamming distance, near-constant words included.  One
pipeline, keys then member ids then Omega levels (:func:`_pair_report`),
gives every report.  A sweep first bounds every pair's size on packed
mismatch masks, counting the keys each branch of the direct
construction can write (:func:`_packed_bound`, 0 exactly when the pair
has no deleted pair at all), and visits the pairs from the largest
bound down; a visited pair is bounded again by its keys, each distinct
key adding a known number of members (:func:`_union_bound`), and
reported only when that bound can exceed what the sweep looks for.

:func:`delsub.diffs.lambda_enumerate` (the scan) and :func:`claims_lambda`
(the direct construction, from interval counts and landmark indices:
the elements of TL or TR nearest the mismatch window) return each
group's pairs as words, the form the tests compare; :func:`verify_claims`
compares the two families' key sets group by group.  :func:`verify_lemmas`
checks, on the scanned family and its members, the cardinality and
absorption facts of the pair's branch that the coverage bound
2qn - 3q - 2 - [q == 2] rests on.

Every pair, at any Hamming distance, goes through the same structural
path; the materialized oracle of :mod:`delsub.balls` is for tests and
the CLI's ``--mode oracle`` only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .diffs import (CASE_BY_TRIPLE, DiffProfile, GroupKey, PairKey, group_pairs, group_words,
                    scan_candidates)
from .sequence import Sequence, Word, _packing, _require_same_shape, alternating, run_spread

TRIPLE_BY_CASE: Dict[Tuple[int, int], Tuple[int, int, int]] = {
    (sum(t), c): t for t, c in CASE_BY_TRIPLE.items()
}

ALL_GROUP_KEYS: Tuple[GroupKey, ...] = tuple(
    [("L", 0, None), ("R", 0, None)]
    + [(side, 1, i) for side in ("L", "R") for i in (1, 2, 3)]
    + [(side, 2, i) for side in ("L", "R") for i in (1, 2, 3, 4, 5, 6)]
)


def group_label(key: GroupKey) -> str:
    side, ell, case = key
    return f"{side}:{ell}" if case is None else f"{side}:{ell}.{case}"


GROUP_LABELS: Dict[GroupKey, str] = {key: group_label(key) for key in ALL_GROUP_KEYS}


def kronecker_q2(q: int) -> int:
    return 1 if q == 2 else 0


def coverage_bound(n: int, q: int) -> int:
    """Upper bound on the (1,1)-ball intersection size of two length-n
    words at Hamming distance >= 2, valid for n >= min_valid_length(q)."""
    return 2 * q * n - 3 * q - 2 - kronecker_q2(q)


def min_valid_length(q: int) -> int:
    """Smallest n for which the coverage bound is guaranteed:
    n >= (q+23)/2 and n >= (5q+19)/(q-1)."""
    return max(-(-(q + 23) // 2), -(-(5 * q + 19) // (q - 1)))


def bound_applicable(n: int, q: int, d: int) -> bool:
    return d >= 2 and n >= min_valid_length(q)


def constant_regime_bound(q: int) -> int:
    """Size bound 4q + 32, independent of n, for pairs with Hamming
    distance >= 3 whose mismatch windows shift on both sides (exactly
    when the two words do not share a length n-1 subsequence)."""
    return 4 * q + 32


def extremal_pair(q: int, n: int) -> Tuple[Sequence, Sequence]:
    """A pair of length-n words at Hamming distance 2 whose (1,1)-ball
    intersection meets the coverage bound once n is in the valid range.

    For q >= 3 the pair is 01201 / 10201 followed by an alternating
    tail; for q = 2 it is 0101 / 1001 followed by an alternating tail.
    """
    if q < 2:
        raise ValueError("alphabet size must be at least 2")
    # symbol tuples, not text, which is comma-separated for q > 10
    if q >= 3:
        head_x, head_y, alphabet = (0, 1, 2, 0, 1), (1, 0, 2, 0, 1), "q >= 3"
    else:
        head_x, head_y, alphabet = (0, 1, 0, 1), (1, 0, 0, 1), "q = 2"
    if n < len(head_x):
        raise ValueError(f"construction needs n >= {len(head_x)} for {alphabet}")
    tail = alternating(n - len(head_x), 0, 1, q=q)
    return Sequence(head_x, q) + tail, Sequence(head_y, q) + tail


# ---------------------------------------------------------------------------
# Member expansion


class _MemberIds:
    """Member ids for the words reachable from x by one edit (j, p, c):
    delete 0-based index j of x, then write symbol c at index p of the
    result.  The id is a function of the edited word w alone, so ids are
    equal exactly when words are.

    Deleting j and deleting j' from an earlier run give words that differ
    exactly at the run boundaries k of x with j' <= k < j (index k with
    x[k] != x[k+1]).  So w, one rewrite away from x minus j, is within
    one substitution of x minus an earlier run only for the run just
    before j's (last index a1) when w rewrites a1 or is x minus j itself,
    and for the run two before (last index a2) when w rewrites a1 or a2
    to x's next symbol; runs further back leave two mismatches.  Let e be
    the last index of the earliest run whose deletion comes within one
    substitution of w.  The id of w is e n q + m q + w[m], where m is
    w's one mismatch against x minus e, or e n q + (n-1) q when w is x
    minus e; it gives back w.
    """

    __slots__ = ("xs", "q", "nq", "run_start", "run_stop", "rewrites")

    def __init__(self, xs: Word, q: int, ends: List[int]):
        self.xs = xs
        self.q = q
        self.nq = len(xs) * q
        # the first index of the run holding i and one past its last: a1 = run_start[j] - 1
        spread = run_spread(xs)
        self.run_start = spread([0, *ends])
        self.run_stop = spread(ends)
        self.rewrites: Optional[Tuple[List[int], List[int]]] = None

    def deleted(self, j: int) -> int:
        """The id of x minus index j."""
        a1 = self.run_start[j] - 1
        if a1 < 0:
            return (self.run_stop[j] - 1) * self.nq + (len(self.xs) - 1) * self.q
        return a1 * (self.nq + self.q) + self.xs[a1]

    def edit(self, j: int, p: int, c: int) -> int:
        """The id of edit (j, p, c)."""
        xs, q = self.xs, self.q
        if c == (xs[p] if p < j else xs[p + 1]):
            return self.deleted(j)
        a1 = self.run_start[j] - 1
        if p == a1:
            # x minus a1 itself, or one substitution from it at a1
            if c == xs[a1 + 1]:
                return self.deleted(a1)
            return a1 * (self.nq + q) + c
        if p < a1 and p == self.run_start[a1] - 1 and c == xs[p + 1]:
            # p is a2: one substitution from x minus a2, at a1
            return p * self.nq + a1 * q + xs[a1]
        # no earlier run comes within one substitution
        return (self.run_stop[j] - 1) * self.nq + p * q + c

    def add_column(self, out: Set[int], j: int, p: int) -> None:
        """Add the ids of every symbol written at index p after deleting j."""
        a1 = self.run_start[j] - 1
        if p == a1 or (p < a1 and p == self.run_start[a1] - 1):
            out.update([self.edit(j, p, c) for c in range(self.q)])
            return
        xs, q = self.xs, self.q
        old = xs[p] if p < j else xs[p + 1]
        base = (self.run_stop[j] - 1) * self.nq + p * q
        out.update([base + c for c in range(q) if c != old])
        out.add(self.deleted(j))

    def add_ball(self, out: Set[int], j: int) -> None:
        """Add the ids of the radius-1 substitution ball of x minus index j."""
        xs, q = self.xs, self.q
        n = len(xs)
        if self.rewrites is None:
            # p q + c for every c != x[p] (before j), != x[p+1] (from j on):
            # mask row a flags each c != a, and the rows of x[:n-1] (or
            # x[1:]) joined pick those cells out of range((n-1) q)
            rows = [bytes(c != a for c in range(q)) for a in range(q)]
            cells = range((n - 1) * q)
            self.rewrites = (
                list(compress(cells, b"".join(map(rows.__getitem__, xs[: n - 1])))),
                list(compress(cells, b"".join(map(rows.__getitem__, xs[1:])))),
            )
        before, after = self.rewrites
        k = q - 1
        add = ((self.run_stop[j] - 1) * self.nq).__add__
        a1 = self.run_start[j] - 1
        # the rewrite indices a2 < a1 that need a check, when they exist
        near = [a for a in (self.run_start[a1] - 1, a1) if a >= 0] if a1 >= 0 else []
        lo = 0
        for cut in near:
            out.update(map(add, before[lo * k : cut * k]))
            self.add_column(out, j, cut)
            lo = cut + 1
        out.update(map(add, before[lo * k : j * k]))
        out.update(map(add, after[j * k :]))
        out.add(self.deleted(j))

    def add_diagonal(self, out: Set[int], keys: List[int], s: Tuple[int, ...], ys: Word) -> None:
        """Add the ids of the distance-2 keys (j, j) for the ascending
        1-based run-last positions j of ``keys``: deleting j from both
        words leaves the residual mismatches S minus j, each repaired with
        y's symbol.

        Original position m sits at index m - 2 after a key j < m and at
        m - 1 before a key j > m, and writing y_m there never gives x
        minus j back.  For j < m both a1 and a2 lie before the rewrite, so
        the id is always (j-1) n q + (m-2) q + y_m.  For j > m it
        is (j-1) n q + (m-1) q + y_m once a2 (so a1 too) lies past
        m - 1; a2 never falls as j grows, so only the first few keys above
        m go through :meth:`_MemberIds.edit`, and each m adds the rest in
        one slice.
        """
        q, nq, start = self.q, self.nq, self.run_start
        # index j - 1 is the last of its run
        bases = [(j - 1) * nq for j in keys]
        top = len(keys)
        for m in s:
            c = ys[m - 1]
            k = bisect_left(keys, m)
            if k:
                out.update(map(((m - 2) * q + c).__add__, bases[:k]))
            if k < top and keys[k] == m:
                # the key (m, m) deletes the mismatch m itself
                k += 1
            while k < top:
                a1 = start[keys[k] - 1] - 1
                if a1 >= 0 and start[a1] > m:
                    break
                out.add(self.edit(keys[k] - 1, m - 1, c))
                k += 1
            if k < top:
                out.update(map(((m - 1) * q + c).__add__, bases[k:]))


def structural_group_sets(
    profile: DiffProfile, xs: Word, ys: Word, groups: Dict[GroupKey, Dict[PairKey, None]]
) -> Dict[GroupKey, Set[int]]:
    """Expand each group's deleted-pair keys (as
    :func:`delsub.diffs.group_pairs` gives them) into the ids of the
    group's members.

    A key (jx, jy) deletes jx from x and jy from y, so its residual
    mismatches are those of the side-L pair (jx, jy) when jx <= jy and of
    the side-R pair (jy, jx) otherwise; a key with jx == jy leaves S
    minus jx, and a distance-2 group's such keys (all of the d = 2
    diagonal groups 2.1, 2.3 and 2.5) are expanded together by
    :meth:`_MemberIds.add_diagonal`.  The members of B(z) & B(z') are z
    with at most one index rewritten: all of B(z) when z == z', every
    symbol at the one residual mismatch at distance 1, and the symbol of
    z' at either mismatch at distance 2.  Each is an edit of x, and ids
    are shared across groups, so sizes and unions are set algebra on ints.

    A group whose keys equal those of its twin (the other side's group of
    the same distance and case, as the d = 2 diagonal groups always are)
    maps to the twin's set object instead of a second expansion; so does
    every side-R group when x == y, by the symmetry of B(z) & B(z').  So
    one set can belong to two groups: :func:`_pair_report` reads every
    group's size before it grows each level's first set in place, and
    :func:`_fact_checks` only builds new unions.
    """
    if not groups:
        return {}
    ids = _MemberIds(xs, profile.q, profile.run_ends()[0])
    s = profile.s
    out: Dict[GroupKey, Set[int]] = {}
    mirror = xs == ys
    for key, pairs in groups.items():
        side, ell, case = key
        if mirror and side == "R":
            continue
        twin = ("R" if side == "L" else "L", ell, case)
        if twin in out and groups[twin] == pairs:
            out[key] = out[twin]
            continue
        members: Set[int] = set()
        # the distance-2 keys deleting one index from both words, expanded
        # in bulk after the loop
        diagonal: List[int] = []
        for jx, jy in pairs:
            if ell == 0:
                ids.add_ball(members, jx - 1)
                continue
            if ell == 2 and jx == jy:
                diagonal.append(jx)
                continue
            j, jprime, pair_side = (jx, jy, "L") if jx <= jy else (jy, jx, "R")
            for m in profile.mismatch_positions(j, jprime, pair_side):
                # original position m sits at index m - 1 before the
                # first deletion and m - 2 after it, in z and in z'
                p = m - 1 if m < j else m - 2
                if ell == 1:
                    ids.add_column(members, jx - 1, p)
                else:
                    members.add(ids.edit(jx - 1, p, ys[p] if p < jy - 1 else ys[p + 1]))
        if diagonal:
            ids.add_diagonal(members, sorted(diagonal), s, ys)
        out[key] = members
    if mirror:
        for side, ell, case in groups:
            if side == "R":
                out[side, ell, case] = out["L", ell, case]
    return out


# ---------------------------------------------------------------------------
# Direct (claims-based) construction of the decomposition


def claims_lambda(x: Sequence, y: Sequence) -> Dict[GroupKey, FrozenSet[Tuple[Word, Word]]]:
    """The distinct deleted pairs of every group, built directly from
    interval counts and landmarks without scanning position pairs, in the
    form of :func:`delsub.diffs.lambda_enumerate`.  A group characterized
    only by a containment is generated as candidates, each kept only when
    it has its defining count triple.  Requires Hamming distance >= 2."""
    profile = DiffProfile(x, y)
    return group_words(profile, _claims_keys(profile))


def _claims_keys(p: DiffProfile) -> Dict[GroupKey, Dict[PairKey, None]]:
    """Both sides' groups from one profile, keyed as
    :func:`delsub.diffs.group_pairs` keys the scan's entries; position j
    is deleted from x on side L and from y on side R.  The reversed pair
    (y, x) has TL equal to this pair's TR, so side R is side L of that
    pair read off TR.

    The landmarks are the elements of the side's shifted set t nearest
    the mismatch window [i1, id]: k1 and k2 the largest and second
    largest at most i1, k1' and k2' the smallest and second smallest
    above id, each None when t has too few there."""
    if p.d < 2:
        raise ValueError("direct construction needs Hamming distance >= 2")
    s, d, n = p.s, p.d, p.n
    i1, i2, id1, idd = s[0], s[1], s[-2], s[-1]
    groups: Dict[GroupKey, Dict[PairKey, None]] = {}
    ends: List[List[int]] = []  # the run ends of x and y, read with the first key

    def cnt(lo: int, hi: int) -> int:
        return bisect_right(t, hi) - bisect_left(t, lo) if lo <= hi else 0

    def emit(ell: int, case: Optional[int], j: int, jprime: int) -> None:
        # keyed by the run ends of x and of y holding the deleted positions
        if not ends:
            ends.extend(p.run_ends())
        jx, jy = (j, jprime) if side == "L" else (jprime, j)
        ex, ey = ends
        key = ex[bisect_left(ex, jx)], ey[bisect_left(ey, jy)]
        groups.setdefault((side, ell, case), {})[key] = None

    def emit_validated(ell: int, case: int, j: int, jprime: int) -> None:
        if not 1 <= j <= jprime <= n:
            return
        triple = (bisect_left(s, j), cnt(j + 1, jprime), d - bisect_right(s, jprime))
        if triple == TRIPLE_BY_CASE[(ell, case)]:
            emit(ell, case, j, jprime)

    def emit_diagonal(case: int, lo: int, hi: int) -> None:
        # at d = 2 the pairs (j, j) for the runs of [lo, hi], which holds no
        # mismatch: a run of one word ending at j < hi ends at j in the other
        # too, so only the run through hi may reach into a mismatch
        if lo <= hi:
            e = p.run_ends()[side == "R"]
            inner = e[bisect_left(e, lo) : bisect_left(e, hi)]
            groups[side, 2, case] = dict.fromkeys(zip(inner, inner))
            emit(2, case, hi, hi)

    for side, t in (("L", p.tl), ("R", p.tr)):
        k1, k2 = _below(t, i1)
        k1p, k2p = _above(t, idd)
        # t's elements in (i1, id], (i1, id-1] and (i2, id]
        first, last = bisect_right(t, i1), bisect_right(t, idd)
        mid_all, mid_front = last - first, bisect_right(t, id1) - first
        mid_back = last - bisect_right(t, i2)

        # distance 0: one collapsed pair when nothing shifts inside [i1, id]
        if mid_all == 0:
            emit(0, None, i1, idd)

        # distance 1, case (1,0,0)
        if mid_back == 0:
            emit(1, 1, i2, idd)
        # distance 1, case (0,1,0)
        if mid_all == 1:
            emit(1, 2, i1, idd)
        elif mid_all == 0:
            if k1 is not None:
                emit_validated(1, 2, k1 - 1, idd)
            if k1p is not None:
                emit_validated(1, 2, i1, k1p)
        # distance 1, case (0,0,1)
        if mid_front == 0:
            emit(1, 3, i1, id1)

        # distance 2, case (2,0,0)
        if d == 2:
            emit_diagonal(1, i2 + 1, n)
        elif cnt(s[2] + 1, idd) == 0:
            emit(2, 1, s[2], idd)
        # distance 2, case (0,2,0)
        if mid_all == 2:
            emit(2, 2, i1, idd)
        elif mid_all == 1:
            if k1 is not None:
                emit_validated(2, 2, k1 - 1, idd)
            if k1p is not None:
                emit_validated(2, 2, i1, k1p)
        elif mid_all == 0:
            if k2 is not None:
                emit_validated(2, 2, k2 - 1, idd)
            if k1 is not None and k1p is not None:
                emit_validated(2, 2, k1 - 1, k1p)
            if k2p is not None:
                emit_validated(2, 2, i1, k2p)
        # distance 2, case (0,0,2)
        if d == 2:
            emit_diagonal(3, 1, i1 - 1)
        elif cnt(i1 + 1, s[-3]) == 0:
            emit(2, 3, i1, s[-3])
        # distance 2, case (0,1,1)
        if mid_front == 1:
            emit(2, 4, i1, id1)
        elif mid_front == 0:
            if k1 is not None:
                emit_validated(2, 4, k1 - 1, id1)
            # the smallest element of t in (id1, id)
            k = bisect_right(t, id1)
            if k < len(t) and t[k] < idd:
                emit_validated(2, 4, i1, t[k])
        # distance 2, case (1,0,1)
        if d == 2:
            emit_diagonal(5, i1 + 1, i2 - 1)
        elif cnt(i2 + 1, id1) == 0:
            emit(2, 5, i2, id1)
        # distance 2, case (1,1,0)
        if mid_back == 1:
            emit(2, 6, i2, idd)
        elif mid_back == 0:
            if k1p is not None:
                emit_validated(2, 6, i2, k1p)
            # the largest element of t in (i1 + 1, i2]
            k = bisect_right(t, i2)
            if k and t[k - 1] > i1 + 1:
                emit_validated(2, 6, t[k - 1] - 1, idd)
    return groups


def _walk_keys(p: DiffProfile) -> Dict[GroupKey, Dict[PairKey, None]]:
    """Both sides' groups at Hamming distance <= 1, keyed as
    :func:`delsub.diffs.group_pairs` keys the scan's entries, from a walk
    over pairs of segments instead of pairs of positions.

    The segments cut [1, n] at each run start of x and, at d = 1, at the
    mismatch m and at m + 1.  A run start of y and an element of TL or TR
    is a run start of x unless it is m or m + 1, so no count and no run
    changes inside a segment: all j <= j' with j in segment a and j' in b
    share a's prefix count, b's suffix count, the middle count TL (or TR)
    in (start of a, start of b], and one key.  Middle counts grow with b,
    so each row stops a few segments on."""
    n, s = p.n, p.s
    ends_x, ends_y = p.run_ends()
    cuts = [i for m in s for i in (m, m + 1) if i <= n]
    starts = sorted({1, *[e + 1 for e in ends_x[:-1]], *cuts})

    def per_segment(find, table):
        return list(map(find, repeat(table), starts))

    last_x, last_y = ([e[i] for i in per_segment(bisect_left, e)] for e in (ends_x, ends_y))
    prefix, suffix = per_segment(bisect_left, s), [p.d - c for c in per_segment(bisect_right, s)]
    t_l, t_r = per_segment(bisect_right, p.tl), per_segment(bisect_right, p.tr)
    groups: Dict[GroupKey, Dict[PairKey, None]] = {}

    def emit(side: str, pre: int, mid: int, suf: int, key: PairKey) -> None:
        group = (side, pre + mid + suf, CASE_BY_TRIPLE.get((pre, mid, suf)))
        groups.setdefault(group, {})[key] = None

    for a, (pre, la, ra) in enumerate(zip(prefix, t_l, t_r)):
        budget = 2 - pre
        for b in range(a, len(starts)):
            mid_l, mid_r, suf = t_l[b] - la, t_r[b] - ra, suffix[b]
            if mid_l > budget and mid_r > budget:
                break
            if mid_l + suf <= budget:
                emit("L", pre, mid_l, suf, (last_x[a], last_y[b]))
            if mid_r + suf <= budget:
                emit("R", pre, mid_r, suf, (last_x[b], last_y[a]))
    return groups


def _below(positions: Tuple[int, ...], bound: int):
    """Largest and second largest elements <= bound (None-padded)."""
    idx = bisect_right(positions, bound)
    padded = (None, None) + positions[max(0, idx - 2) : idx]
    return padded[-1], padded[-2]


def _above(positions: Tuple[int, ...], bound: int):
    """Smallest and second smallest elements > bound (None-padded)."""
    idx = bisect_right(positions, bound)
    padded = positions[idx : idx + 2] + (None, None)
    return padded[0], padded[1]


# ---------------------------------------------------------------------------
# Fast intersection size


@dataclass(frozen=True)
class IntersectionReport:
    """Size and structure of a (1,1)-ball intersection.

    ``method`` is "structural" when the size came from the deleted-pair
    expansion, which :func:`intersection_size_fast` uses at every Hamming
    distance; "oracle" marks a report built from the materialized balls,
    which only the CLI's ``--mode oracle`` produces.  ``group_sizes`` holds
    each group's member count before cross-group deduplication; the
    overlap fields describe how the distance-1 and distance-2 members sit
    inside the distance-0 core.
    """

    n: int
    q: int
    d: int
    size: int
    method: str
    bound: int
    bound_applicable: bool
    group_sizes: Dict[str, int] = field(default_factory=dict)
    omega0_size: Optional[int] = None
    omega1_size: Optional[int] = None
    omega2_size: Optional[int] = None
    omega1_minus_omega0: Optional[int] = None
    omega2_minus_omega0: Optional[int] = None

    def to_dict(self) -> dict:
        # the fields in order; group_sizes, the one mutable field, is copied sorted
        return {**vars(self), "group_sizes": dict(sorted(self.group_sizes.items()))}


def intersection_size_fast(x: Sequence, y: Sequence) -> IntersectionReport:
    """Exact size of the (1,1)-ball intersection of two equal-length
    words, computed structurally at every Hamming distance (x == y
    included), with the group sizes and Omega levels behind it, by the
    stages a sweep sizes its pairs with (:func:`_pair_report`)."""
    _require_same_shape(x, y)
    if len(x) < 3:
        raise ValueError("(1,1)-ball intersections need length at least 3")
    return _pair_report(x.symbols, y.symbols, x.q, DiffProfile(x, y))


def _pair_report(
    xs: Word, ys: Word, q: int, profile: Optional[DiffProfile] = None, floor: int = -1
) -> Optional[IntersectionReport]:
    """The report of :func:`intersection_size_fast`, for two q-ary symbol
    tuples of one length >= 3; ``profile`` is the pair's profile when the
    caller has built it.

    The keys (:func:`_pair_keys`) first bound the size by
    :func:`_union_bound`.  When that bound is at most ``floor``, the pair
    cannot exceed ``floor`` and None is returned instead of a report; the
    default floor of -1 always gives the report.  A sweep calls it only
    for pairs whose :func:`_packed_bound`, taken before any profile,
    exceeds the floor.  Otherwise the keys are expanded into member ids,
    and the report counts Omega_0, Omega_1 and Omega_2, the unions of the
    distance-0, -1 and -2 groups."""
    if profile is None:
        profile = DiffProfile._of_words(xs, ys, q)
    n, d = profile.n, profile.d
    groups = _pair_keys(profile)
    if _union_bound(groups, n, q) <= floor:
        return None
    sets = structural_group_sets(profile, xs, ys, groups)
    group_sizes = {GROUP_LABELS[key]: len(members) for key, members in sets.items()}
    # each level grows in place in its first group's set, which is not
    # read again (a twin holding that same set is skipped), so no level
    # copies a large distance-0 group
    levels: Dict[int, Set[int]] = {}
    for key, members in sets.items():
        level = levels.setdefault(key[1], members)
        if level is not members:
            level |= members
    omega0, omega1, omega2 = (levels.get(ell, set()) for ell in range(3))
    fresh1, fresh2 = omega1 - omega0, omega2 - omega0
    return IntersectionReport(
        n=n, q=q, d=d, size=len(omega0) + len(fresh1) + len(fresh2 - omega1),
        method="structural", bound=coverage_bound(n, q),
        bound_applicable=bound_applicable(n, q, d), group_sizes=group_sizes,
        omega0_size=len(omega0), omega1_size=len(omega1), omega2_size=len(omega2),
        omega1_minus_omega0=len(fresh1), omega2_minus_omega0=len(fresh2),
    )


def _packed_bound(xs: Word, ys: Word, q: int) -> int:
    """An upper bound on the intersection size of two q-ary words of one
    length, from packed words without a profile: at least
    :func:`_union_bound` of the pair's keys, and 0 exactly when the pair
    has no deleted pair within Hamming distance 2.

    S, TL and TR are the nonzero fields of x ^ y, x ^ (y << w) and
    (x << w) ^ y (field k holding position k + 1; TL and TR drop fields
    0 and n), each field collapsed to its top bit.  On each side the
    branches of :func:`_claims_keys` read only T's counts in
    (i_{a+1}, i_{d-b}] for a + b <= 2, c_{a+1} - e_{b+1} below; from them
    the bound counts the keys each branch can write (a branch that
    validates its landmarks is counted as if all of them passed), and
    weighs each level's count by what one key adds, as the union bound
    does.  A branch validates its landmarks only where a branch of lower
    distance on its side writes a key unvalidated (distance 0 under 1.2,
    1.2 or distance 0 under 2.2, 1.3 under 2.4, 1.1 under 2.6), so the
    bound is 0 exactly when no key is written.  At d = 2 both sides
    write the same keys (i1, i1) and (i2, i2) at distance 1 and the same
    diagonal families 2.1, 2.3 and 2.5, so those are counted once: the
    run ends j of x with j, j + 1 outside S (set fields of x ^ (x >> w)),
    plus the run through each window's last position.  Below d = 2 the
    bound is the n^2 run-end pairs of each level."""
    n = len(xs)
    x, y, width, low, inner, s = _packed_masks(xs, ys, q)
    d = s.bit_count()
    ball = 1 + (q - 1) * (n - 1)
    if d < 2:
        return n * n * (ball + q + 2)
    # one past the bits of i1, i2, i3 and of id, i_{d-1}, i_{d-2}: t >> l
    # keeps t's fields past that landmark
    lo2 = s & s - 1
    lo3 = lo2 & lo2 - 1
    l1, l2, l3 = (s & -s).bit_length(), (lo2 & -lo2).bit_length(), (lo3 & -lo3).bit_length()
    h1 = s.bit_length()
    hi2 = s ^ 1 << h1 - 1
    h2 = hi2.bit_length()
    h3 = (hi2 ^ 1 << h2 - 1).bit_length()
    # the keys each level can hold
    keys0 = keys1 = keys2 = 0
    for v in (x ^ y << width, x << width ^ y):
        t = ((v & low) + low | v) & inner
        c1, c2 = (t >> l1).bit_count(), (t >> l2).bit_count()
        e1, e2 = (t >> h1).bit_count(), (t >> h2).bit_count()
        # T's counts in (i1, id], (i1, i_{d-1}] and (i2, id]
        mid_all, mid_front, mid_back = c1 - e1, c1 - e2, c2 - e1
        # on most sides all three are too large for any of these branches
        if mid_all < 3 or mid_front < 2 or mid_back < 2:
            keys0 += mid_all == 0
            keys1 += (2, 1, 0)[min(mid_all, 2)]
            keys2 += ((3, 2, 1, 0)[min(mid_all, 3)] + (2, 1, 0)[min(mid_front, 2)]
                      + (2, 1, 0)[min(mid_back, 2)])
        if d > 2:
            c3, e3 = (t >> l3).bit_count(), (t >> h3).bit_count()
            keys1 += (mid_back == 0) + (mid_front == 0)
            keys2 += (c3 - e1 == 0) + (c1 - e3 == 0) + (c2 - e2 == 0)
    if d == 2:
        u = x ^ x >> width
        ends = ((u & low) + low | u) & inner >> width
        # run ends j in [1, i1 - 1), [i1 + 1, i2 - 1) and [i2 + 1, n), and the
        # run through each non-empty window's last position
        keys1 += 2
        keys2 += (ends & ~(s | s >> width)).bit_count()
        keys2 += (l1 > width) + (l2 - l1 > width) + (l2 < n * width)
    return ball * keys0 + q * keys1 + 2 * keys2


def _packed_masks(xs: Word, ys: Word, q: int) -> Tuple[int, int, int, int, int, int]:
    """Two words packed by :func:`delsub.sequence._packing` into x and y,
    its field width w and low-bit mask, the top bits of fields 1 to n-1,
    and S: the nonzero fields of x ^ y, each collapsed to its top bit."""
    pack, width, low, high = _packing(len(xs), q)
    x = int.from_bytes(pack(*xs), "little")
    y = int.from_bytes(pack(*ys), "little")
    v = x ^ y
    return x, y, width, low, high ^ 1 << width - 1, ((v & low) + low | v) & high


def _packed_shifts(xs: Word, ys: Word, q: int) -> bool:
    """:meth:`DiffProfile.shifts` on both sides, for words at distance >= 1,
    from the masks of :func:`_packed_bound`: a side shifts exactly when
    T's count in (i1, id], its ``mid_all``, is nonzero."""
    x, y, width, low, inner, s = _packed_masks(xs, ys, q)
    lo, hi = (s & -s).bit_length(), s.bit_length()
    sides = (((v & low) + low | v) & inner for v in (x ^ y << width, x << width ^ y))
    return all((t >> lo).bit_count() > (t >> hi).bit_count() for t in sides)


def _pair_keys(profile: DiffProfile) -> Dict[GroupKey, Dict[PairKey, None]]:
    """Each group's deleted-pair keys, written directly: by the direct
    construction at Hamming distance >= 2, which :func:`verify_claims`
    checks against the scan, and by a walk over pairs of segments below
    that."""
    return _claims_keys(profile) if profile.d >= 2 else _walk_keys(profile)


def _union_bound(groups: Dict[GroupKey, Dict[PairKey, None]], n: int, q: int) -> int:
    """An upper bound on the intersection size from the keys alone.  A
    key (jx, jy) names the deleted pair (x minus jx, y minus jy) whatever
    its group, so it adds the same members wherever it appears: at most
    the members of its B(z) & B(z'), 1 + (q-1)(n-1) (the whole radius-1
    ball of a length n-1 word) at distance 0, q at distance 1 and 2 at
    distance 2.  So the bound counts each level's distinct keys once:
    the sum over the levels of |union of the level's keys| times that
    count."""
    levels: Tuple[Set[PairKey], ...] = (set(), set(), set())
    for key, keys in groups.items():
        levels[key[1]].update(keys)
    return sum(len(keys) * m for keys, m in zip(levels, (1 + (q - 1) * (n - 1), q, 2)))


# ---------------------------------------------------------------------------
# Verification of the structural facts


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# The passing group check of each group; results are immutable, so every
# pair's checks share these.
_GROUP_PASSED: Dict[GroupKey, CheckResult] = {
    key: CheckResult(label, True) for key, label in GROUP_LABELS.items()
}

# The group checks of a pair whose scanned and direct families agree.
_ALL_GROUPS_PASSED: Tuple[CheckResult, ...] = tuple(_GROUP_PASSED.values())


def verify_claims(x: Sequence, y: Sequence) -> Tuple[CheckResult, ...]:
    """Compare the direct per-group construction against the exhaustive
    scan: one check per group, in :data:`ALL_GROUP_KEYS` order.  Requires
    Hamming distance >= 2.

    One profile serves the scan and both sides of the direct
    construction, and its run ends key both families; no member is
    expanded.
    """
    profile, scanned = _scanned_groups(x, y)
    direct = _claims_keys(profile)
    if scanned == direct:
        return _ALL_GROUPS_PASSED
    # some group differs: name each one with its two pair counts
    checks = []
    for key, passed in _GROUP_PASSED.items():
        expected = scanned.get(key, {})
        got = direct.get(key, {})
        checks.append(
            passed if expected == got else CheckResult(
                passed.name, False, f"direct has {len(got)} pairs, scan has {len(expected)}"
            )
        )
    return tuple(checks)


def verify_lemmas(x: Sequence, y: Sequence) -> Tuple[CheckResult, ...]:
    """Evaluate the cardinality/absorption facts used by the coverage
    bound that apply to the pair's branch, on the scanned family and its
    member expansion.  Requires Hamming distance >= 2.

    The direct construction is not run: the facts read only the scan.
    """
    profile, scanned = _scanned_groups(x, y)
    sets = structural_group_sets(profile, x.symbols, y.symbols, scanned)
    return tuple(_fact_checks(profile, scanned, sets))


def _scanned_groups(
    x: Sequence, y: Sequence
) -> Tuple[DiffProfile, Dict[GroupKey, Dict[PairKey, None]]]:
    """The pair's profile and its scanned family, grouped; both checks
    need Hamming distance >= 2."""
    profile = DiffProfile(x, y)
    if profile.d < 2:
        raise ValueError("verification needs Hamming distance >= 2")
    return profile, group_pairs(profile, scan_candidates(profile))


def _fact_checks(
    profile: DiffProfile,
    groups: Dict[GroupKey, Dict[PairKey, None]],
    sets: Dict[GroupKey, Set[int]],
) -> List[CheckResult]:
    """The facts of the pair's branch: per side, whether its shifted set
    meets the window (i1, id], and whether d = 2 or d >= 3.  Each union
    of pair keys or member ids is built only where a fact reads it."""
    n, q, d = profile.n, profile.q, profile.d
    shifted = {side: profile.shifts(side) for side in "LR"}
    checks: List[CheckResult] = []

    def union(table: dict, sides: str, ell: int, cases=(None, 1, 2, 3, 4, 5, 6)) -> set:
        out: set = set()
        for side in sides:
            for case in cases:
                out.update(table.get((side, ell, case), ()))
        return out

    def at_most(name: str, value: int, limit: int, what: str) -> None:
        checks.append(CheckResult(name, value <= limit, f"{value} {what} vs limit {limit}"))

    for side in "LR":
        if shifted[side]:
            count = len(union(groups, side, 1))
            at_most(f"dist1-family[{side}]", count, 3 if d == 2 else 2, "pairs")
        else:
            absorbed = union(sets, side, 1) <= union(sets, side, 0)
            checks.append(CheckResult(f"dist1-absorbed[{side}]", absorbed))
    if d == 2:
        diagonal = len(union(groups, "LR", 2, (1, 3, 5)))
        at_most("dist2-diagonal-family", diagonal, n - 2, "pairs")
        for side in "LR":
            if shifted[side]:
                count = len(union(groups, side, 2, (2, 4, 6)))
                at_most(f"dist2-offdiag-family[{side}]", count, 6, "pairs")
            else:
                fresh = len(union(sets, side, 2, (2, 4, 6)) - union(sets, side, 0))
                at_most(f"dist2-offdiag-new[{side}]", fresh, 6, "new members")
        if not shifted["L"] and not shifted["R"]:
            core = union(sets, "LR", 0)
            expected = 2 * (1 + (q - 1) * (n - 1)) - q
            checks.append(CheckResult("adjacent-swap-core-size", len(core) == expected,
                                      f"core {len(core)} vs expected {expected}"))
            fresh = len(union(sets, "LR", 2) - core)
            at_most("adjacent-swap-new", fresh, 2 * n - 6 - kronecker_q2(q), "new members")
    else:
        for side in "LR":
            if shifted[side]:
                at_most(f"dist2-family-d3[{side}]", len(union(groups, side, 2)), 8, "pairs")
            else:
                fresh = len(union(sets, side, 2) - union(sets, side, 0))
                at_most(f"dist2-new-d3[{side}]", fresh, 8, "new members")
    return checks
