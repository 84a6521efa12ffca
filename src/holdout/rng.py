"""The library's one source of seeded randomness."""

import numpy as np


def generator(seed) -> np.random.Generator:
    """Philox: counter-based and platform-stable, so a seed (an int or a
    SeedSequence) gives the same draws bit for bit everywhere."""
    return np.random.Generator(np.random.Philox(seed))
