"""Channel simulation and the reconstruction decoder.

A word of length n passes through a channel that deletes one symbol and
substitutes at most one of the rest, so every read is a length n-1
member of its (1,1)-ball.  With codewords at Hamming distance 2 or more
(one parity symbol suffices), more distinct reads than the worst
pairwise ball intersection pin the word down; the decoder finds it by
candidate filtering.  For the parity code the candidates are the words
holding the two smallest reads (``inverse_pair_words``, built without
either inverse ball), filtered by the other reads (``_survivors``, a few
big-int operations per read and candidate), or a single read's whole
restricted inverse ball (``inverse_ball_words``), bounded in bytes
before it is built and returned sorted as the candidate list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat, starmap
from pathlib import Path
from struct import Struct
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .balls import DEFAULT_BUDGET, _check_budget, _table_bytes
from .intersect import coverage_bound, min_valid_length
from .sequence import (Sequence, Word, _delete_t, _packing, _set_q, _set_symbols,
                       mismatch_counts, mismatches)


class Codebook:
    """A set of equal-length codewords, either listed explicitly or given
    implicitly as the single parity-check code {x : sum(x) = 0 mod q}.

    Either way the minimum Hamming distance is at least 2, which is what
    the read-coverage bound asks of the codebook: the parity-check code
    has exactly 2 for n >= 2, and an explicit codebook with two words at
    distance 1 is refused.
    """

    def __init__(self, kind: str, n: int, q: int, words: Optional[Tuple[Word, ...]] = None):
        self.kind = kind
        self.n = n
        self.q = q
        self.words = words

    @classmethod
    def explicit(cls, sequences: Iterable[Sequence]) -> "Codebook":
        seqs = list(sequences)
        if not seqs:
            raise ValueError("explicit codebook cannot be empty")
        q = seqs[0].q
        n = len(seqs[0])
        words = []
        seen: Set[Word] = set()
        for s in seqs:
            if s.q != q or len(s) != n:
                raise ValueError("codewords must share one length and alphabet")
            w = s.symbols
            if w in seen:
                raise ValueError(f"duplicate codeword {s}")
            # the words at Hamming distance 1 from w: O(n q) lookups
            for p in range(n):
                for a in range(q):
                    near = w[:p] + (a,) + w[p + 1 :]
                    if near in seen:
                        near = Sequence._wrap(near, q)
                        raise ValueError(f"codewords {near} and {s} are closer than 2")
            seen.add(w)
            words.append(w)
        return cls("explicit", n, q, tuple(words))

    @classmethod
    def parity(cls, n: int, q: int) -> "Codebook":
        if n < 2:
            raise ValueError("parity codebook needs n >= 2")
        if q < 2:
            raise ValueError("alphabet size must be at least 2")
        return cls("parity", n, q)

    @classmethod
    def load(cls, path, q: int) -> "Codebook":
        """Explicit codebook from a newline-delimited text file of words;
        blank lines and lines starting with '#' are skipped."""
        lines = (line.strip() for line in Path(path).read_text().splitlines())
        seqs = [Sequence.parse(line, q) for line in lines if line and not line.startswith("#")]
        if not seqs:
            raise ValueError(f"no sequences found in {path}")
        return cls.explicit(seqs)

    def size(self) -> int:
        if self.kind == "explicit":
            return len(self.words)
        return self.q ** (self.n - 1)

    def sample_word(self, rng: random.Random) -> Sequence:
        """Uniformly random codeword."""
        if self.kind == "explicit":
            return Sequence._wrap(self.words[rng.randrange(len(self.words))], self.q)
        prefix = tuple(rng.randrange(self.q) for _ in range(self.n - 1))
        return Sequence._wrap(prefix + ((-sum(prefix)) % self.q,), self.q)

    def __repr__(self) -> str:
        return f"Codebook(kind={self.kind}, n={self.n}, q={self.q}, size={self.size()})"


class ReadSet:
    """Distinct channel outputs, all of one length, with the raw
    (pre-deduplication) count retained for reporting."""

    def __init__(self, reads: Iterable[Word], q: int, length: int, raw_count: Optional[int] = None):
        collected = list(reads)
        self.reads: FrozenSet[Word] = frozenset(collected)
        self.q, self.length = q, length
        self.raw_count = raw_count if raw_count is not None else len(collected)
        if not set(map(len, self.reads)) <= {length}:
            raise ValueError("all reads must share one length")
        # one set of the distinct symbols, never a set of the alphabet
        symbols = set().union(*self.reads)
        if not all(isinstance(s, int) and 0 <= s < q for s in symbols):
            raise ValueError(f"reads hold symbols outside the alphabet 0..{q - 1}")

    def __len__(self) -> int:
        return len(self.reads)

    def __iter__(self) -> Iterator[Sequence]:
        for r in self.reads:
            yield Sequence._wrap(r, self.q)


@dataclass(frozen=True)
class ReconResult:
    """Decoder outcome: a unique codeword, an ambiguous candidate list,
    or no feasible candidate at all."""

    outcome: str  # "unique" | "ambiguous" | "infeasible"
    candidates: Tuple[Sequence, ...]
    distinct_reads: int
    raw_reads: int

    @property
    def codeword(self) -> Optional[Sequence]:
        return self.candidates[0] if self.outcome == "unique" else None


def channel_transmit(
    x: Sequence,
    substitution_probability: float,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Sequence:
    """One channel use: delete a uniformly random position, then with the
    given probability substitute one uniformly random remaining position
    with a uniformly random different symbol.

    Deterministic under a fixed seed (or caller-supplied generator).
    """
    n = len(x)
    if n < 2:
        raise ValueError("channel needs words of length at least 2")
    if not 0.0 <= substitution_probability <= 1.0:
        raise ValueError("substitution probability must lie in [0, 1]")
    if rng is None:
        if seed is None:
            raise ValueError("provide a seed (or an explicit generator)")
        rng = random.Random(seed)
    j = rng.randrange(1, n + 1)
    out = list(_delete_t(x.symbols, j))
    if rng.random() < substitution_probability:
        p = rng.randrange(n - 1)
        out[p] = (out[p] + 1 + rng.randrange(x.q - 1)) % x.q
    return Sequence._wrap(tuple(out), x.q)


def inverse_ball_words(y: Word, q: int, *, residue: Optional[int] = None) -> List[Word]:
    """All words of length n = len(y)+1 whose (1,1)-ball contains ``y``,
    sorted and each listed once: the single-symbol insertions into the
    words within Hamming distance 1 of ``y``.

    With ``residue``, only the words of symbol sum ``residue`` mod q: each
    variant v takes the one symbol (residue - sum(v)) mod q, at most
    n(1 + (q-1)(n-1)) insertions (about 3.5k distinct words at q = 4,
    n = 40).  An insertion right after an equal symbol repeats the one a
    slot earlier and is skipped.  For q <= 256 the words are built,
    deduplicated and sorted as ``bytes`` (byte order is tuple order) and
    unpacked into tuples by one ``struct`` pass; larger alphabets use tuples.
    The decoder calls it only for a single read.
    """
    enc = bytes if q <= 256 else tuple
    ins = [enc((a,)) for a in range(q)]
    m = len(y)
    yw = enc(y)
    total = sum(y)
    variants = [(yw, total)]
    for p, base in enumerate(y):
        head, tail = yw[:p], yw[p + 1 :]
        for a in range(q):
            if a != base:
                variants.append((head + ins[a] + tail, total - base + a))
    out = set()
    for v, s in variants:
        symbols = range(q) if residue is None else ((residue - s) % q,)
        for a in symbols:
            one = ins[a]
            out.add(one + v)
            out.update(v[:pos] + one + v[pos:] for pos in range(1, m + 1) if v[pos - 1] != a)
    words = sorted(out)
    return words if q > 256 else list(map(Struct(f"{m + 1}B").unpack, words))


def _one_read_peak_bytes(n: int, q: int) -> int:
    """Upper bound on the bytes a one-read parity decode holds at once,
    from n and q alone: the read's 1 + (q-1)(n-1) variants and at most n
    insertions into each, counted as a set of bytes words (tuples above
    q = 256) with its hash table and the one it outgrew, the sorted list
    and its merge buffer, one tuple and one Sequence per word and their
    containers, all alive together."""
    variants = 1 + (q - 1) * (n - 1)
    word, as_tuple = (33 + n if q <= 256 else 40 + 8 * n), 40 + 8 * n
    table = _table_bytes(n * variants)
    return (variants * (word + 96) + n * variants * (word + as_tuple + 80)
            + table + table // 2 + 96 * q + 1024)


def inverse_pair_words(
    r1: Word, r2: Word, q: int, *, residue: int, budget: int = DEFAULT_BUDGET
) -> Set[Word]:
    """The words of symbol sum ``residue`` mod q in the inverse (1,1)-balls
    of both reads, built without either ball.

    x lies in both balls when deleting some k1 from x leaves a word within
    Hamming distance 1 of r1 and deleting some k2 leaves one within 1 of
    r2.  k1 == k2 asks for a word within distance 1 of both reads plus
    one inserted symbol; k1 < k2 and k1 > k2 are the cells visited by
    ``_pair_cells``, each of which holds O(1) words or, with no conflict,
    O(n) words.  The two reads must differ.

    Before each loop over the alphabet, the words held and those the loop
    adds are checked against ``budget`` (:func:`_check_pool`), so a huge
    alphabet is refused with ``BudgetExceededError`` before it is walked.
    """
    if r1 == r2:
        raise ValueError("the two reads must differ; one read's pool is inverse_ball_words")
    out: Set[Word] = set()
    d0, p0 = list(mismatches(r1, r2)), mismatch_counts(r1, r2)
    if len(d0) == 1:
        p = d0[0]
        # q middles, and the len(r1) + 1 insertions into each
        _check_pool(0, q * (len(r1) + 2), len(r1) + 1, q, budget)
        middles = [r1[:p] + (a,) + r1[p + 1 :] for a in range(q)]
    elif len(d0) == 2:
        middles = [r1[:p] + (r2[p],) + r1[p + 1 :] for p in d0]
    else:
        middles = []
    for z in middles:
        a = (residue - sum(z)) % q
        out.update(z[:k] + (a,) + z[k:] for k in range(len(z) + 1))
    _pair_cells(r1, r2, d0, p0, q, residue, out, budget)
    _pair_cells(r2, r1, d0, p0, q, residue, out, budget)
    return out


def _check_pool(held: int, more: int, n: int, q: int, budget: int) -> None:
    """Refuse a two-read pool that holds ``held`` words of length n and
    is about to add ``more``, when those words, as tuples in a set with
    its hash table (as :func:`_one_read_peak_bytes` counts them), would
    pass ``budget``."""
    words = held + more
    _check_budget(f"the two-read pool at n={n}, q={q}",
                  words * (40 + 8 * n) + _table_bytes(words), budget)


def _pair_cells(
    a: Word, b: Word, d0: List[int], p0: List[int], q: int, residue: int, out: Set[Word],
    budget: int,
) -> None:
    """Add the words of the cells k1 < k2, where deleting k1 from x comes
    within distance 1 of ``a`` and deleting k2 within distance 1 of ``b``.

    Position i of x is compared with A[i] = a with a hole at k1 and with
    B[i] = b with a hole at k2; a conflict is an i where both exist and
    differ.  The conflicts are those of a[:k1] against b[:k1] (indices
    d0, prefix table p0), of a[k1:k2-1] against b[k1+1:k2] (indices d1,
    table s) and of a[k2:] against b[k2:], so the cell loops break once
    the first two pass 2.
    w follows A, with its hole filled from B; ``delta`` is what the
    residue asks to be added to w's symbol sum.
    """
    m = len(a)
    d1 = list(mismatches(a, b[1:], 1))
    s = [0] + mismatch_counts(a, b[1:])
    lowest_k2 = d0[-3] + 1 if len(d0) > 2 else 0
    base = sum(a)
    rewritten: Set[Word] = set()  # w whose one-rewrite family is already in out
    for k1 in range(m):
        pre = p0[k1]
        if pre > 2:
            break
        for k2 in range(max(k1 + 1, lowest_k2), m + 1):
            if pre + s[k2] - s[k1 + 1] > 2:
                break
            conflicts = d0[:pre] + d1[s[k1 + 1] : s[k2]] + [t + 1 for t in d0[p0[k2] :]]
            if len(conflicts) > 2:
                continue
            w = a[:k1] + (b[k1],) + a[k1:]
            delta = (residue - base - b[k1]) % q
            # B's symbol at each conflict: b[i] before the hole k2, b[i-1] after
            theirs = [b[i] if i < k2 else b[i - 1] for i in conflicts]
            if len(conflicts) == 2:
                # each read takes one conflict; both holes keep w's symbols
                for i, c in zip(conflicts, theirs):
                    if (c - w[i]) % q == delta:
                        out.add(w[:i] + (c,) + w[i + 1 :])
            elif conflicts:
                (p,), (c,) = conflicts, theirs
                # p follows A and hole k2 is free; p follows B and hole k1
                # is free; or p takes a third symbol
                out.add(w[:k2] + ((w[k2] + delta) % q,) + w[k2 + 1 :])
                v = w[:p] + (c,) + w[p + 1 :]
                out.add(v[:k1] + ((w[k1] + delta - c + w[p]) % q,) + v[k1 + 1 :])
                third = (w[p] + delta) % q
                if third != c:
                    out.add(w[:p] + (third,) + w[p + 1 :])
            else:
                # both holes free, or one position rewritten against both reads
                _check_pool(len(out), q, m + 1, q, budget)
                for h in range(q):
                    tail = ((w[k2] + delta - h + w[k1]) % q,) + w[k2 + 1 :]
                    out.add(w[:k1] + (h,) + w[k1 + 1 : k2] + tail)
                if delta and w not in rewritten:
                    rewritten.add(w)
                    out.update(w[:i] + ((w[i] + delta) % q,) + w[i + 1 :] for i in range(m + 1))


def _survivors(pool: Iterable[Word], reads: Iterable[Word], q: int, n: int) -> List[Word]:
    """The words of ``pool`` (length n) whose (1,1)-ball holds every read,
    sorted.  Words become ints, symbol k in field k of the narrowest struct
    field holding q symbols.  Deleting index j of x leaves the mismatches
    x[k] != y[k] at k < j and x[k+1] != y[k] at k >= j: the nonzero fields
    of ahead ^ y and behind ^ y, ahead = x[:n-1] and behind = x[1:].  The
    first two of the former (f1 < f2, padded with n-1 by a sentinel field)
    are its two lowest (``a & -a``), the last two of the latter (b1 > b2,
    padded with -1) its two highest (``bit_length``).  Some j leaves at
    most one mismatch iff b2 < j <= f1 or b1 < j <= f2.
    """
    m = n - 1
    pack, width = _packing(n, q)[:2]
    shift = width.bit_length() - 1  # log2 of the field's bit width
    packed = list(map(int.from_bytes, starmap(_packing(m, q)[0], reads), repeat("little")))
    sentinel, out = 1 << width * m, []
    for w in pool:
        full = int.from_bytes(pack(*w), "little")
        ahead, behind = full & (sentinel - 1) | sentinel, full >> width
        for r in packed:
            a, b = ahead ^ r, behind ^ r
            f1 = ((a & -a).bit_length() - 1) >> shift
            b1 = (b.bit_length() - 1) >> shift
            if b1 < f1:
                continue
            v = b >> (f1 << shift)  # b's fields from f1 on; b1's is the highest
            if ((v & -v).bit_length() - 1) >> shift == b1 - f1:
                continue  # and the lowest: b2 < f1
            v = a >> (f1 + 1 << shift)  # a's fields above f1; f2's is the lowest
            if ((v & -v).bit_length() - 1) >> shift < b1 - f1:
                break  # nor b1 < f2
        else:
            out.append(w)
    return sorted(out)


def reconstruct(reads: ReadSet, codebook: Codebook, budget: int = DEFAULT_BUDGET) -> ReconResult:
    """Codewords whose (1,1)-ball contains every read: a unique codeword,
    the sorted candidates when several remain, or an infeasible outcome.
    With more distinct reads than the codebook's read coverage, the unique
    outcome is guaranteed.

    Explicit codebooks and the parity pool of the two smallest reads
    (``inverse_pair_words``) are filtered by ``_survivors``; one read's
    candidates are its restricted inverse ball, refused with
    ``BudgetExceededError`` when its bound from n and q passes ``budget``;
    the two-read pool is refused the same way before a loop over the
    alphabet would pass it.  An alphabet of more than 2^64 symbols is
    refused with ValueError.
    """
    if len(reads) == 0:
        raise ValueError("read set cannot be empty")
    if reads.length != codebook.n - 1:
        raise ValueError(f"reads have length {reads.length}, codebook needs {codebook.n - 1}")
    if reads.q != codebook.q:
        raise ValueError("reads and codebook use different alphabets")
    n, q = codebook.n, codebook.q
    # the packed filter has no field past 64 bits, and the pools loop over
    # the alphabet: such a q is refused before any pool is built
    _packing(n, q)
    if codebook.kind == "explicit":
        candidates = _survivors(codebook.words, reads.reads, q, n)
    elif len(reads) == 1:
        _check_budget(f"the one-read decode at n={n}, q={q}", _one_read_peak_bytes(n, q), budget)
        # already sorted, and every word of it is a parity codeword
        candidates = inverse_ball_words(min(reads.reads), q, residue=0)
    else:
        # the two smallest reads fix the pool; the rest filter it in any order
        r1 = min(reads.reads)
        r2 = min(reads.reads - {r1})
        pool = inverse_pair_words(r1, r2, q, residue=0, budget=budget)
        candidates = _survivors(pool, reads.reads - {r1, r2}, q, n)
    # Sequence._wrap over every candidate, in C-level passes
    seqs = tuple(map(object.__new__, repeat(Sequence, len(candidates))))
    list(map(_set_symbols, seqs, candidates))
    list(map(_set_q, seqs, repeat(q)))
    outcome = {0: "infeasible", 1: "unique"}.get(len(seqs), "ambiguous")
    return ReconResult(outcome, seqs, len(reads), reads.raw_count)


def required_reads(n: int, q: int) -> int:
    """Number of distinct reads that guarantees unique reconstruction
    over any codebook with minimum Hamming distance 2: one more than the
    coverage bound.  Only valid from min_valid_length(q) on; shorter
    lengths are reported, not clamped."""
    threshold = min_valid_length(q)
    if n < threshold:
        raise ValueError(f"coverage bound needs n >= {threshold} for q = {q}, got n = {n}")
    return coverage_bound(n, q) + 1
