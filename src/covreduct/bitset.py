"""Bit-mask helpers.

A subset of the universe [0, n) is stored as a plain Python int with bit i
set iff object i belongs to the subset.  Arbitrary-precision ints give us
word-parallel union/intersection/subset tests with no fixed width.
"""

from typing import Iterable, Iterator

import numpy as np


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def flags(mask: int, n: int) -> np.ndarray:
    """The membership flags of objects 0..n-1 in ``mask`` (< 2**n), as uint8 0/1.

    One pass over the mask's bytes, where walking ``bits(mask)`` costs a
    big-int operation per member.
    """
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


def to_indices(mask: int) -> list[int]:
    """The set bit positions of ``mask`` in ascending order, in one pass
    over its bytes (``bits`` costs a big-int operation per member)."""
    return np.flatnonzero(flags(mask, mask.bit_length())).tolist()


def full_mask(n: int) -> int:
    return (1 << n) - 1
