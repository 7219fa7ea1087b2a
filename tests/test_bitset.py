import random

import pytest

from covreduct.bitset import flags, full_mask


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 2000])
def test_flags_match_a_per_object_loop(n):
    rng = random.Random(n)
    for mask in (0, full_mask(n), rng.getrandbits(n), rng.getrandbits(n)):
        assert flags(mask, n).tolist() == [mask >> x & 1 for x in range(n)]
