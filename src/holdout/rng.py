"""The library's one source of seeded randomness."""

import numpy as np


def generator(seed) -> np.random.Generator:
    """Philox: counter-based and platform-stable, so a seed gives the same
    draws bit for bit everywhere. `generator(seed).spawn(k)` gives k
    independent child streams. A verb checks its seed by its annotation."""
    return np.random.Generator(np.random.Philox(seed))



def fold_seed(seed: int, fold_index: int) -> int:
    """A fold's own seed, so determinism does not depend on the fold schedule."""
    return int(np.random.SeedSequence([int(seed), fold_index]).generate_state(1)[0])


def replicate_seeds(seed: int, replicates: int) -> list[int]:
    """One seed per demo replicate, each from a child of SeedSequence(seed)."""
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(replicates)]
