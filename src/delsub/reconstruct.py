"""Channel simulation and the reconstruction decoder.

A transmitted word of length n passes through a channel that deletes
exactly one symbol and substitutes at most one of the remaining ones,
so every read is a length n-1 member of the transmitted word's
(1,1)-ball.  Once the codebook keeps all pairwise Hamming distances at
2 or more (one parity symbol suffices), any collection of distinct
reads larger than the worst pairwise ball-intersection size pins the
transmitted word down uniquely; the decoder here recovers it by
candidate filtering.  For the parity code, the candidates are the words
that hold both of the first two reads (``inverse_pair_words``, built
cell by cell from the two reads without either inverse ball), or the
whole restricted inverse ball of a single read (``inverse_ball_words``),
which comes back sorted and is the candidate list as it stands: every
word of it is a parity codeword, and no other read is left to filter it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .intersect import coverage_bound, min_valid_length
from .sequence import Sequence, Word, _delete_t, mismatch_counts, mismatches


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
        self.word_set = None if words is None else frozenset(words)

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
            # each word at Hamming distance 1 from w among the earlier
            # codewords: O(n q) lookups per word
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
        self.q = q
        self.length = length
        self.raw_count = raw_count if raw_count is not None else len(collected)
        for r in self.reads:
            if len(r) != length:
                raise ValueError("all reads must share one length")
        if not set().union(*self.reads) <= set(range(q)):
            raise ValueError(f"reads hold symbols outside the alphabet 0..{q - 1}")

    @classmethod
    def from_sequences(cls, seqs: Iterable[Sequence]) -> "ReadSet":
        seqs = list(seqs)
        if not seqs:
            raise ValueError("read set cannot be empty")
        q, length = seqs[0].q, len(seqs[0])
        for s in seqs:
            if s.q != q:
                raise ValueError("reads must share one alphabet")
        return cls((s.symbols for s in seqs), q, length, raw_count=len(seqs))

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


def _membership_t(y: Word, x: Word) -> bool:
    """Whether the read ``y`` lies in the (1,1)-ball of ``x``: some single
    deletion of ``x`` is within Hamming distance 1 of ``y``.  O(n), with
    no ball built."""
    # Deleting index j of x leaves the mismatches x[k] != y[k] at k < j and
    # x[k+1] != y[k] at k >= j, so two early-stopping scans decide: the
    # first two of the former (f1 < f2, padded with n-1) and the last two
    # of the latter (b1 > b2, padded with -1).  Some j leaves at most one
    # mismatch iff b2 < j <= f1 or b1 < j <= f2.
    n = len(x)
    ahead = mismatches(x, y)
    f1, f2 = next(ahead, n - 1), next(ahead, n - 1)
    # read backwards and numbered from 2 - n, the scan yields -k
    back = mismatches(reversed(x), reversed(y), 2 - n)
    b1, b2 = -next(back, 1), -next(back, 1)
    return b2 < f1 or b1 < f2


def inverse_ball_words(y: Word, q: int, *, residue: Optional[int] = None) -> List[Word]:
    """All words of length n = len(y)+1 whose (1,1)-ball contains ``y``,
    sorted and each listed once: exactly the single-symbol insertions
    into the words within Hamming distance 1 of ``y``.

    With ``residue``, only the words whose symbol sum is congruent to
    ``residue`` mod q (residue 0: the parity codewords).  Each variant v
    then takes the one symbol (residue - sum(v)) mod q, so the pool is
    at most n(1 + (q-1)(n-1)) insertions instead of q times that: at
    q = 4, n = 40 that is 4720 against 18880, or about 3.5k distinct
    words against 13.7k.  In both modes an insertion right after an
    equal symbol is skipped, as it repeats the insertion one slot
    earlier.

    The words are built, deduplicated and sorted as ``bytes`` when
    q <= 256, where slicing, hashing and comparison run as C-level
    memcmp and byte order is tuple order; larger alphabets use tuples
    throughout.  Either way each word becomes a tuple once, after the
    sort.

    The decoder uses it only for a single read, whose pool is this whole
    ball; two or more reads take ``inverse_pair_words``.
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
    return [tuple(w) for w in sorted(out)]


def inverse_pair_words(r1: Word, r2: Word, q: int, *, residue: int) -> Set[Word]:
    """The words of symbol sum ``residue`` mod q in the inverse (1,1)-balls
    of both reads, built without either ball.

    x lies in both balls when deleting some k1 from x leaves a word within
    Hamming distance 1 of r1 and deleting some k2 leaves one within 1 of
    r2.  k1 == k2 asks for a word within distance 1 of both reads plus
    one inserted symbol; k1 < k2 and k1 > k2 are the cells visited by
    ``_pair_cells``, each of which holds O(1) words or, with no conflict,
    O(n) words.  The two reads must differ.
    """
    if r1 == r2:
        raise ValueError("the two reads must differ; one read's pool is inverse_ball_words")
    out: Set[Word] = set()
    d0, p0 = list(mismatches(r1, r2)), mismatch_counts(r1, r2)
    if len(d0) == 1:
        p = d0[0]
        middles = [r1[:p] + (a,) + r1[p + 1 :] for a in range(q)]
    elif len(d0) == 2:
        middles = [r1[:p] + (r2[p],) + r1[p + 1 :] for p in d0]
    else:
        middles = []
    for z in middles:
        a = (residue - sum(z)) % q
        out.update(z[:k] + (a,) + z[k:] for k in range(len(z) + 1))
    _pair_cells(r1, r2, d0, p0, q, residue, out)
    _pair_cells(r2, r1, d0, p0, q, residue, out)
    return out


def _pair_cells(
    a: Word, b: Word, d0: List[int], p0: List[int], q: int, residue: int, out: Set[Word]
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
                for h in range(q):
                    tail = ((w[k2] + delta - h + w[k1]) % q,) + w[k2 + 1 :]
                    out.add(w[:k1] + (h,) + w[k1 + 1 : k2] + tail)
                if delta and w not in rewritten:
                    rewritten.add(w)
                    out.update(w[:i] + ((w[i] + delta) % q,) + w[i + 1 :] for i in range(m + 1))


def reconstruct(reads: ReadSet, codebook: Codebook) -> ReconResult:
    """Codewords whose (1,1)-ball contains every read.

    An explicit codebook is filtered word by word.  For the parity code
    the pool is the parity words holding the first two reads in sorted
    order, generated directly by ``inverse_pair_words``, and the rest of
    the reads filter it by O(n) membership; a single read's candidates
    are its sorted restricted inverse ball as returned.

    Returns a unique codeword, the sorted candidate list when several
    remain, or an infeasible outcome when no codeword explains all
    reads.  With more distinct reads than the codebook's read coverage,
    the unique outcome is guaranteed.
    """
    if len(reads) == 0:
        raise ValueError("read set cannot be empty")
    if reads.length != codebook.n - 1:
        raise ValueError(
            f"reads have length {reads.length}, codebook needs {codebook.n - 1}"
        )
    if reads.q != codebook.q:
        raise ValueError("reads and codebook use different alphabets")
    ordered = sorted(reads.reads)
    if codebook.kind == "parity" and len(ordered) == 1:
        # already sorted, and every word of it is a parity codeword
        candidates = inverse_ball_words(ordered[0], codebook.q, residue=0)
    else:
        if codebook.kind == "explicit":
            pool, rest = codebook.word_set, ordered
        else:
            pool = inverse_pair_words(ordered[0], ordered[1], codebook.q, residue=0)
            rest = ordered[2:]
        candidates = sorted(w for w in pool if all(_membership_t(r, w) for r in rest))
    seqs = tuple(Sequence._wrap(w, codebook.q) for w in candidates)
    if not seqs:
        outcome = "infeasible"
    elif len(seqs) == 1:
        outcome = "unique"
    else:
        outcome = "ambiguous"
    return ReconResult(outcome, seqs, len(reads), reads.raw_count)


def required_reads(n: int, q: int) -> int:
    """Number of distinct reads that guarantees unique reconstruction
    over any codebook with minimum Hamming distance 2: one more than the
    coverage bound.  Only valid from min_valid_length(q) on; shorter
    lengths are reported, not clamped."""
    threshold = min_valid_length(q)
    if n < threshold:
        raise ValueError(
            f"coverage bound needs n >= {threshold} for q = {q}, got n = {n}"
        )
    return coverage_bound(n, q) + 1
