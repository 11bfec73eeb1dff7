"""Ground-truth error-ball materialization.

Everything here enumerates: a ball is produced by literally applying
every admissible combination of deletions and substitutions and
deduplicating, and is returned as a frozenset of symbol tuples.  The
structural fast path in :mod:`delsub.intersect` is always tested
against these sets, so this module must stay independent of the
mismatch machinery in :mod:`delsub.diffs`.

Materialization refuses to run past a configurable budget of bytes
held at once, bounded from the word length, the alphabet size and the
error counts and checked before anything is allocated.  The
enumeration here is meant for desk-scale verification, not production
workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import FrozenSet, Set

from .sequence import Sequence, Word, _require_same_shape, hamming

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Raised when a requested enumeration would exceed its budget."""


@dataclass(frozen=True)
class BallSpec:
    """Channel error budget: exactly ``t`` deletions, at most ``s``
    substitutions."""

    t: int
    s: int

    def __post_init__(self) -> None:
        if self.t < 0 or self.s < 0:
            raise ValueError("deletion and substitution counts must be non-negative")


def _check_budget(what: str, peak: int, budget: int) -> None:
    if peak > budget:
        raise BudgetExceededError(
            f"{what} may hold {peak} bytes at once, above the budget of {budget}"
        )


def _table_bytes(keys: int) -> int:
    """Bytes of a CPython set's hash table holding at most ``keys`` keys:
    16-byte entries, at most 2^bit_length(4 keys) of them."""
    return 16 << (4 * keys).bit_length()


def _ball_peak_bytes(n: int, q: int, spec: BallSpec) -> int:
    """Upper bound on the bytes :func:`ds_ball` holds at once, as CPython
    allocates them, from n, q, t and s alone.

    With t deletions it holds the deletion results (at most C(n, t) words
    of length m = n - t), the members found so far (at most C(n, t) times
    the size S of a radius-s substitution ball at length m), the one
    substitution ball being built, and at the end the members' frozenset
    copy; with no deletion, only that one ball and its copy.  Each word
    is a tuple of 40 + 8m bytes.  Each substitution ball also holds, per
    position, a list of the q - 1 other symbols, which above 256 are int
    objects of their own; 1 KiB covers the set objects and iterators.
    """
    m = n - spec.t
    subs = substitution_ball_size(m, q, spec.s)
    kept = math.comb(n, spec.t) if spec.t else 0
    members = max(kept, 1) * subs
    words = members + kept + (subs if spec.t else 0)
    tables = 2 * _table_bytes(members) + 3 * _table_bytes(subs) // 2 + _table_bytes(kept)
    return words * (40 + 8 * m) + tables + m * (128 + 40 * q) + 1024


def substitution_ball_size(n: int, q: int, s: int) -> int:
    """Closed-form size of the radius-s substitution ball."""
    return sum(math.comb(n, k) * (q - 1) ** k for k in range(min(s, n) + 1))


def substitution_ball(x: Sequence, s: int, budget: int = DEFAULT_BUDGET) -> FrozenSet[Word]:
    """All words within Hamming distance ``s`` of ``x``, including ``x``."""
    if s < 0:
        raise ValueError("substitution budget must be non-negative")
    n = len(x)
    _check_budget(f"the radius-{s} substitution ball at n={n}, q={x.q}",
                  _ball_peak_bytes(n, x.q, BallSpec(0, s)), budget)
    return frozenset(_sub_ball_t(x.symbols, s, x.q))


def ds_ball(x: Sequence, spec: BallSpec, budget: int = DEFAULT_BUDGET) -> FrozenSet[Word]:
    """All words reachable from ``x`` by exactly ``spec.t`` deletions
    followed by at most ``spec.s`` substitutions.

    "At most" includes zero, so the pure-deletion results are always
    members.
    """
    n = len(x)
    if spec.t + spec.s >= n:
        raise ValueError(f"need t + s < n, got t={spec.t}, s={spec.s}, n={n}")
    if spec.t == 0:
        return substitution_ball(x, spec.s, budget)
    _check_budget(f"the ({spec.t},{spec.s})-ball at n={n}, q={x.q}",
                  _ball_peak_bytes(n, x.q, spec), budget)
    out: Set[Word] = set()
    for deleted in _del_ball_t(x.symbols, spec.t):
        out |= _sub_ball_t(deleted, spec.s, x.q)
    return frozenset(out)


def ball_intersection(
    x: Sequence, y: Sequence, spec: BallSpec, budget: int = DEFAULT_BUDGET
) -> FrozenSet[Word]:
    """Members common to the two materialized balls.

    This is the oracle every structural computation is checked against;
    it never takes shortcuts.  The budget bounds the bytes held at once:
    as :func:`_oracle_peak_bytes` counts them for spec (1, 1) and q <= 256,
    else two balls as :func:`_ball_peak_bytes` counts each.
    """
    _require_same_shape(x, y)
    n = len(x)
    if spec.t + spec.s >= n:
        raise ValueError(f"need t + s < n, got t={spec.t}, s={spec.s}, n={n}")
    if spec == BallSpec(1, 1) and x.q <= 256:
        _check_budget(f"the (1,1)-ball oracle at n={n}, q={x.q}",
                      _oracle_peak_bytes(n, x.q), budget)
        common = ds11_packed(x.symbols, x.q) & ds11_packed(y.symbols, y.q)
        return frozenset(tuple(w) for w in common)
    _check_budget(f"the ({spec.t},{spec.s})-ball oracle at n={n}, q={x.q}",
                  2 * _ball_peak_bytes(n, x.q, spec), budget)
    return ds_ball(x, spec, budget) & ds_ball(y, spec, budget)


def _oracle_peak_bytes(n: int, q: int) -> int:
    """Upper bound on the bytes the packed (1,1) path of
    :func:`ball_intersection` holds at once, as CPython allocates them.

    :func:`ds11_packed` builds each ball as an n(n-1)q x (n-1) array, a
    list of as many bytes objects and a frozenset of the distinct ones.
    The first ball is held while the second is built, both while they are
    intersected, and the common words then become tuples in a frozenset.
    """
    rows, width = n * (n - 1) * q, n - 1
    members = n * (1 + (q - 1) * width)  # distinct words one ball can hold
    word = 33 + width  # one bytes object
    # a set of at most `members` keys: its hash table, and while it grows
    # the old table next to the new one
    table = _table_bytes(members)
    growing = table + table // 2
    ball = members * word + table
    # array, row list and bytes objects; 18 n (n-1) for the index tables
    building = rows * (width + 8 + word) + 18 * n * width + growing
    result = members * (word + 40 + 8 * width) + table + growing  # + one tuple per word
    return max(ball + building, 2 * ball + growing, result)


def sub_intersection_size(x: Sequence, y: Sequence) -> int:
    """Size of the intersection of the two radius-1 substitution balls,
    by the closed form: q at Hamming distance 1, 2 at distance 2, 0 at
    distance 3 or more, and the full ball size 1 + (q-1)n for x == y.
    """
    _require_same_shape(x, y)
    d = hamming(x, y)
    if d == 0:
        return 1 + (x.q - 1) * len(x)
    if d == 1:
        return x.q
    if d == 2:
        return 2
    return 0


def _sub_ball_t(word: Word, s: int, q: int) -> Set[Word]:
    n = len(word)
    out: Set[Word] = {word}
    alternates = [[a for a in range(q) if a != sym] for sym in word]
    for k in range(1, min(s, n) + 1):
        for positions in combinations(range(n), k):
            for choice in product(*(alternates[p] for p in positions)):
                w = list(word)
                for p, a in zip(positions, choice):
                    w[p] = a
                out.add(tuple(w))
    return out


def _del_ball_t(word: Word, t: int) -> FrozenSet[Word]:
    n = len(word)
    return frozenset(tuple(word[i] for i in kept) for kept in combinations(range(n), n - t))


def ds11_packed(word: Word, q: int) -> FrozenSet[bytes]:
    """The (1,1)-ball of a word as a set of packed byte strings.

    Same enumeration as :func:`ds_ball` with spec (1, 1), vectorized so
    the oracle stays usable inside large verification sweeps.  Requires
    q <= 256, so that every symbol fits in one byte.  numpy is imported
    here, its only use, so importing the package does not load it.
    """
    import numpy as np

    n = len(word)
    if n < 3:
        raise ValueError("(1,1)-ball needs length at least 3")
    arr = np.frombuffer(bytes(word), dtype=np.uint8)
    cols = np.arange(n - 1)
    # row j is the word without its symbol at index j
    deleted = arr[np.where(cols[None, :] < np.arange(n)[:, None], cols, cols + 1)]
    out = np.empty((n, n - 1, q, n - 1), dtype=np.uint8)
    out[:] = deleted[:, None, None, :]
    symbols = np.arange(q, dtype=np.uint8)
    for p in range(n - 1):
        out[:, p, :, p] = symbols[None, :]
    # each row viewed as one (n-1)-byte void scalar; tolist() gives bytes
    # with trailing zero symbols kept
    return frozenset(out.reshape(-1, n - 1).view(f"V{n - 1}").ravel().tolist())
