"""The library's one source of seeded randomness."""

import numpy as np


def generator(seed) -> np.random.Generator:
    """Philox: counter-based and platform-stable, so a seed gives the same
    draws bit for bit everywhere. `generator(seed).spawn(k)` gives k
    independent child streams. A verb checks its seed by its annotation."""
    return np.random.Generator(np.random.Philox(seed))
