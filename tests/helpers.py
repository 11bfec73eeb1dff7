"""Shared test utilities: independent oracles and hypothesis strategies.

The oracles here deliberately reimplement things the library computes
cleverly, in the dumbest correct way available, so the two sides stay
independent.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from hypothesis import strategies as st

from delsub import Sequence

Word = Tuple[int, ...]


def all_words(q: int, n: int) -> List[Sequence]:
    return [Sequence(t, q) for t in product(range(q), repeat=n)]


def parity_words(q: int, n: int) -> List[Sequence]:
    """The single parity-check code {x : sum(x) = 0 mod q} in
    lexicographic order: each prefix of length n-1 completed by the one
    symbol that makes the sum 0."""
    return [Sequence(p + ((-sum(p)) % q,), q) for p in product(range(q), repeat=n - 1)]


def subsequences(word: Word, length: int) -> FrozenSet[Word]:
    return frozenset(
        tuple(word[i] for i in kept) for kept in combinations(range(len(word)), length)
    )


def lcs_length(xs: Word, ys: Word) -> int:
    """Longest-common-subsequence length by the standard two-row dynamic
    program: the reference that the O(n) shift test of
    ``DiffProfile.shifts`` is checked against (two words of length n
    share a length n-1 subsequence exactly when n - LCS <= 1)."""
    if not xs or not ys:
        return 0
    prev = [0] * (len(ys) + 1)
    for a in xs:
        cur = [0]
        best = 0
        for j, b in enumerate(ys, start=1):
            if a == b:
                best = prev[j - 1] + 1
            elif prev[j] > cur[j - 1]:
                best = prev[j]
            else:
                best = cur[j - 1]
            cur.append(best)
        prev = cur
    return prev[-1]


def brute_lcs(a: Word, b: Word) -> int:
    """Longest common subsequence by enumerating all subsequences of the
    shorter word, longest first."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    for length in range(len(short), -1, -1):
        if subsequences(short, length) & subsequences(long_, length):
            return length
    return 0


def brute_hamming(a: Word, b: Word) -> int:
    return sum(1 for u, v in zip(a, b) if u != v)


def naive_lambda_groups(x: Sequence, y: Sequence) -> Dict[tuple, FrozenSet[tuple]]:
    """Classify every deleted pair at Hamming distance <= 2 straight from
    the definitions: materialize the deleted words, count the prefix /
    shifted-window / suffix mismatches directly, no prefix tables."""
    xs, ys, n = x.symbols, y.symbols, len(x)
    groups: Dict[tuple, set] = {}
    case_by_triple = {
        (1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3,
        (2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 3,
        (0, 1, 1): 4, (1, 0, 1): 5, (1, 1, 0): 6,
    }
    for j in range(1, n + 1):
        for jp in range(j, n + 1):
            for side in ("L", "R"):
                if side == "L":
                    z = xs[: j - 1] + xs[j:]
                    zp = ys[: jp - 1] + ys[jp:]
                else:
                    z = xs[: jp - 1] + xs[jp:]
                    zp = ys[: j - 1] + ys[j:]
                ell = brute_hamming(z, zp)
                if ell > 2:
                    continue
                prefix = sum(1 for i in range(1, j) if xs[i - 1] != ys[i - 1])
                suffix = sum(1 for i in range(jp + 1, n + 1) if xs[i - 1] != ys[i - 1])
                if side == "L":
                    mid = sum(1 for i in range(j + 1, jp + 1) if xs[i - 1] != ys[i - 2])
                else:
                    mid = sum(1 for i in range(j + 1, jp + 1) if xs[i - 2] != ys[i - 1])
                assert prefix + mid + suffix == ell, "shifted-count identity broken"
                case = case_by_triple.get((prefix, mid, suffix))
                groups.setdefault((side, ell, case), set()).add((z, zp))
    return {k: frozenset(v) for k, v in groups.items()}


def expand_members(pairs: Iterable[Tuple[Word, Word]], q: int) -> Set[Word]:
    """The words of B(z) & B(z') over a group's deleted pairs (z, z'),
    from the direct forms: all of B(z) when z == z', every symbol at the
    one mismatch at Hamming distance 1, and either mismatch repaired with
    the other word's symbol at distance 2."""
    out: Set[Word] = set()
    for z, zp in pairs:
        diff = [i for i in range(len(z)) if z[i] != zp[i]]
        if len(diff) == 2:
            out.update(z[:i] + (zp[i],) + z[i + 1 :] for i in diff)
        else:
            rewritten = diff or range(len(z))
            out.update(z[:i] + (a,) + z[i + 1 :] for i in rewritten for a in range(q))
    return out


def reference_group_sets(
    x: Sequence, y: Sequence, groups: Dict[tuple, Iterable[Tuple[int, int]]]
) -> Dict[tuple, Set[int]]:
    """Each group's member ids, expanded key by key into a set of its own:
    key (jx, jy) names z = x minus jx and z' = y minus jy, whose residual
    mismatches are found by comparing the two words, and each member id
    comes from ``_MemberIds.add_ball``, ``add_column`` or ``edit``."""
    from delsub.intersect import _MemberIds
    from delsub.sequence import run_last_table

    xs, ys = x.symbols, y.symbols
    ids = _MemberIds(xs, x.q, run_last_table(xs))
    out: Dict[tuple, Set[int]] = {}
    for key, keys in groups.items():
        ell = key[1]
        members: Set[int] = set()
        for jx, jy in keys:
            z, zp = xs[: jx - 1] + xs[jx:], ys[: jy - 1] + ys[jy:]
            diff = [p for p in range(len(z)) if z[p] != zp[p]]
            assert len(diff) == ell, (key, jx, jy)
            if ell == 0:
                ids.add_ball(members, jx - 1)
            elif ell == 1:
                ids.add_column(members, jx - 1, diff[0])
            else:
                members.update(ids.edit(jx - 1, p, zp[p]) for p in diff)
        out[key] = members
    return out


def inverse_ball_oracle(y: Word, q: int, residue: Optional[int] = None) -> Set[Word]:
    """The words of length len(y)+1 whose (1,1)-ball holds ``y`` (with
    ``residue``, only those of symbol sum ``residue`` mod q), as a set of
    tuples: every symbol inserted at every slot of y and of each word at
    Hamming distance 1 from it."""
    m = len(y)
    variants = [y] + [y[:p] + (a,) + y[p + 1 :] for p in range(m) for a in range(q) if a != y[p]]
    out: Set[Word] = set()
    for v in variants:
        symbols = range(q) if residue is None else ((residue - sum(v)) % q,)
        out.update(v[:pos] + (a,) + v[pos:] for a in symbols for pos in range(m + 1))
    return out


def word_tuples(q: int, min_n: int = 1, max_n: int = 8) -> st.SearchStrategy:
    return st.lists(
        st.integers(min_value=0, max_value=q - 1), min_size=min_n, max_size=max_n
    ).map(tuple)


def sequences(q: int, min_n: int = 1, max_n: int = 8) -> st.SearchStrategy:
    return word_tuples(q, min_n, max_n).map(lambda t: Sequence(t, q))


def sequence_pairs(q: int, min_n: int = 2, max_n: int = 8) -> st.SearchStrategy:
    """Pairs of equal-length words over one alphabet."""

    def build(n: int):
        word = st.lists(
            st.integers(min_value=0, max_value=q - 1), min_size=n, max_size=n
        ).map(lambda t: Sequence(tuple(t), q))
        return st.tuples(word, word)

    return st.integers(min_value=min_n, max_value=max_n).flatmap(build)
