import random

import pytest

from covreduct.bitset import bits, flags, full_mask, to_indices


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 2000])
def test_flags_match_a_per_object_loop(n):
    rng = random.Random(n)
    for mask in (0, full_mask(n), rng.getrandbits(n), rng.getrandbits(n)):
        assert flags(mask, n).tolist() == [mask >> x & 1 for x in range(n)]


def test_to_indices_matches_bits():
    rng = random.Random(3000)
    for n in [0, 1, 7, 8, 9, 63, 64, 65, *rng.sample(range(66, 3001), 20), 3000]:
        for mask in (full_mask(n), rng.getrandbits(n), rng.getrandbits(n) & rng.getrandbits(n)):
            assert to_indices(mask) == list(bits(mask))
