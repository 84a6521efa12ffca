"""`sorted_choices` draws a tree's feature subsets a block at a time.

Its premise: in Floyd's regime numpy's `Generator.choice(p, f,
replace=False)` makes f bounded draws for the sample and f - 1 for a
shuffle, each as `Generator.integers` makes it, so one `integers` call over
those bounds makes the same draws in the same order. A block must then
give the subsets, and leave the bit generator's state, exactly as one
`np.sort(rng.choice(...))` per subset does. Each case starts after a
1,279-row bootstrap draw and one scalar draw, which leaves Philox with an
odd number of 32-bit words used, so a half-used 64-bit output is carried in.
"""

from itertools import islice

import numpy as np
import pytest

from holdout.rng import generator, sorted_choices


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _after_bootstrap(seed: int):
    rng = generator(seed)
    rng.integers(0, 1279, size=1279)
    rng.integers(0, 7)
    return rng


# (10,000, 300) and (10,001, 200) are Floyd's; at (10,001, 201) numpy
# shuffles a tail of range(p) instead.
@pytest.mark.parametrize("p, f", [(20, 4), (20, 1), (20, 19), (2, 1), (50, 7), (10_000, 300),
                                  (10_001, 200), (10_001, 201)])
@pytest.mark.parametrize("block", [1, 5])
def test_blocks_equal_one_choice_per_subset(p, f, block):
    for seed in range(10):
        drawn, called = _after_bootstrap(seed), _after_bootstrap(seed)
        got = list(islice(sorted_choices(drawn, p, f, block), 2 * block))  # two whole blocks
        want = [np.sort(called.choice(p, size=f, replace=False)) for _ in range(2 * block)]
        assert [s.tolist() for s in got] == [s.tolist() for s in want], seed
        assert _same_state(drawn.bit_generator.state, called.bit_generator.state), seed
