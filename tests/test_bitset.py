import random
import time

import pytest

from covreduct.bitset import bits, flags, full_mask, mask_of, to_indices


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


def _or_fold(indices):
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def test_mask_of_matches_an_or_fold():
    rng = random.Random(19)
    fixed = [[], [0], [7], [8], [3, 1, 2], [5, 5, 5], [64, 0, 63, 64, 1], [1000, 3, 1000, 999]]
    drawn = []
    for _ in range(300):
        n = rng.choice([1, 8, 9, 64, 65, 500])
        drawn += [[rng.randrange(n) for _ in range(rng.randint(0, 2 * n))], range(n)]
    for indices in fixed + drawn:
        assert mask_of(indices) == _or_fold(indices)
        assert to_indices(mask_of(indices)) == sorted(set(indices))


def test_a_million_index_block_packs_in_linear_time():
    n = 10**6
    indices = list(range(n))
    random.Random(6).shuffle(indices)
    start = time.perf_counter()
    mask = mask_of(indices)
    assert time.perf_counter() - start < 1
    assert mask == full_mask(n)
