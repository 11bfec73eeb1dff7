"""q-ary sequence primitives: words over {0,...,q-1}, Hamming distance,
run ends, deletion, and the mismatch primitive and packed word format
(:func:`field_code`, :func:`_packing`) the other modules share.

Positions handed to the operations in this module are 1-based, matching
the interval conventions used throughout the package ([l, r] closed
intervals, first symbol at position 1).  Python-level indexing on a
:class:`Sequence` (``x[i]``, slicing, iteration) stays 0-based as usual.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, compress, count
from operator import itemgetter, ne
from struct import Struct, calcsize
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence as PySequence,
                    Tuple)

Word = Tuple[int, ...]


class Sequence:
    """An immutable q-ary word.

    Symbols are small non-negative integers below ``q``.  Text form uses
    one digit per symbol for q <= 10 and comma-separated decimals
    otherwise.  The empty word is allowed; individual operations state
    their own minimum-length requirements.
    """

    __slots__ = ("symbols", "q")

    def __init__(self, symbols: Iterable[int], q: int):
        symbols = tuple(symbols)
        if q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {q}")
        if symbols and not (0 <= min(symbols) and max(symbols) < q):
            bad = next(s for s in symbols if not 0 <= s < q)
            raise ValueError(f"symbol {bad} outside alphabet of size {q}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "q", q)

    @classmethod
    def _wrap(cls, symbols: Word, q: int) -> "Sequence":
        """Wrap an already-validated symbol tuple without re-checking."""
        obj = object.__new__(cls)
        _set_symbols(obj, symbols)
        _set_q(obj, q)
        return obj

    @classmethod
    def parse(cls, text: str, q: int) -> "Sequence":
        """Parse the textual form: digits for q <= 10, comma-separated
        decimals for larger alphabets.  An empty string is the empty word.

        ASCII digit text for q <= 10 is decoded by one byte translation;
        any other text (other Unicode digits included) goes symbol by
        symbol through ``int``, and a symbol out of range gets the
        constructor's message either way.
        """
        text = text.strip()
        if not text:
            return cls((), q)
        if q <= 10:
            if text.isascii() and text.isdigit():
                symbols = tuple(text.encode().translate(_FROM_DIGITS))
                if q >= 2 and max(symbols) < q:
                    return cls._wrap(symbols, q)
                return cls(symbols, q)
            return cls(map(int, text), q)
        return cls(map(int, text.split(",")), q)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Sequence is immutable")

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, index):
        return self.symbols[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Sequence)
            and self.q == other.q
            and self.symbols == other.symbols
        )

    def __lt__(self, other: "Sequence") -> bool:
        return self.symbols < other.symbols

    def __hash__(self) -> int:
        return hash((self.q, self.symbols))

    def __add__(self, other: "Sequence") -> "Sequence":
        if not isinstance(other, Sequence):
            return NotImplemented
        if self.q != other.q:
            raise ValueError("cannot concatenate words over different alphabets")
        return Sequence._wrap(self.symbols + other.symbols, self.q)

    def __str__(self) -> str:
        if self.q <= 10:
            return bytes(self.symbols).translate(_TO_DIGITS).decode()
        return ",".join(map(str, self.symbols))

    def __repr__(self) -> str:
        return f"Sequence({str(self)!r}, q={self.q})"


# The slot descriptors' setters fill a new instance without going through
# the refusing __setattr__ and cost less per call than object.__setattr__.
_set_symbols = Sequence.symbols.__set__
_set_q = Sequence.q.__set__

# Byte tables between ASCII digit text and symbols 0-9.
_FROM_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))
_TO_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _require_same_shape(x: Sequence, y: Sequence) -> None:
    if x.q != y.q:
        raise ValueError(f"alphabet mismatch: q={x.q} vs q={y.q}")
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")


def mismatches(a: Iterable[int], b: Iterable[int], start: int = 0) -> Iterator[int]:
    """Lazily, the indices (numbered from ``start``) at which ``a`` and
    ``b`` differ, over the shorter length."""
    return compress(count(start), map(ne, a, b))


def mismatch_counts(a: Iterable[int], b: Iterable[int]) -> List[int]:
    """Prefix table of mismatches: ``table[i]`` is the number of k < i with
    ``a[k] != b[k]``, for i up to the shorter length."""
    return list(accumulate(map(ne, a, b), initial=0))


def hamming(x: Sequence, y: Sequence) -> int:
    """Number of positions where two equal-length words differ."""
    _require_same_shape(x, y)
    return sum(map(ne, x.symbols, y.symbols))


def delete(x: Sequence, position: int) -> Sequence:
    """The word with the symbol at the given 1-based position removed."""
    n = len(x)
    if not 1 <= position <= n:
        raise IndexError(f"deletion position {position} outside [1, {n}]")
    return Sequence._wrap(_delete_t(x.symbols, position), x.q)


def alternating(n: int, a: int, b: int, q: Optional[int] = None) -> Sequence:
    """The length-n word abab... starting with ``a``.

    ``n = 0`` yields the empty word, so the degenerate tails used by the
    extremal constructions compose cleanly.
    """
    if a == b:
        raise ValueError("alternating word needs two distinct symbols")
    if n < 0:
        raise ValueError("length must be non-negative")
    if q is None:
        q = max(max(a, b) + 1, 2)
    return Sequence(((a, b)[i % 2] for i in range(n)), q)


def run_ends(xs: PySequence[int]) -> List[int]:
    """The 1-based last position of every run of ``xs``, ascending; the
    last one is n."""
    # a run ends at i < n when x_i != x_{i+1}
    return [*compress(count(1), map(ne, xs, xs[1:])), len(xs)] if xs else []


def run_last_table(ends: List[int]) -> List[int]:
    """The run-last table of a word from its run ends: ``table[i]`` is the
    1-based last position of the run holding position i, for i in
    [1, n]; ``table[0]`` is 0."""
    table = [0]
    for end in ends:
        table += [end] * (end + 1 - len(table))
    return table


def run_spread(xs: PySequence[int]) -> Callable[[PySequence[int]], Tuple[int, ...]]:
    """For a word of length at least 2, the function that spreads a list
    indexed by run (in order, from 0) over the positions: it returns the
    tuple of ``values[k]`` for the run k holding each position."""
    # the run index of a position counts the run boundaries before it
    return itemgetter(*accumulate(map(ne, xs, xs[1:]), initial=0))


def field_code(q: int) -> str:
    """The struct code of the narrowest field holding one q-ary symbol, so
    that a word packs into an int, symbol k in field k; ValueError past
    the 64-bit field."""
    for code in "BHIQ":
        if q <= 1 << 8 * calcsize(code):
            return code
    raise ValueError(f"packed words hold at most 2^64 symbols per field, not q = {q}")


@lru_cache(maxsize=32)
def _packing(n: int, q: int) -> Tuple[Callable[..., bytes], int, int, int]:
    """For length-n q-ary words: the packer of a word's symbols into the
    fields of :func:`field_code`, the field width w, and the masks of
    each field's low w-1 bits and of its top bit."""
    code = field_code(q)
    width = 8 * calcsize(code)
    pack = Struct(f"<{n}{code}").pack
    ones = int.from_bytes(pack(*[1] * n), "little")
    return pack, width, ones * ((1 << width - 1) - 1), ones << width - 1


def _delete_t(xs: Word, position: int) -> Word:
    return xs[: position - 1] + xs[position:]

