"""Bit-mask helpers.

A subset of the universe [0, n) is stored as a plain Python int with bit i
set iff object i belongs to the subset.  Arbitrary-precision ints give us
word-parallel union/intersection/subset tests with no fixed width.
"""

from typing import Iterable, Iterator


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


def to_indices(mask: int) -> list[int]:
    return list(bits(mask))


def full_mask(n: int) -> int:
    return (1 << n) - 1
