"""The library's one source of seeded randomness."""

import numpy as np

from .errors import ConfigError


def check_seed(seed):
    """A public seed is a non-negative int, else a ConfigError."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0:
        return seed
    raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


def generator(seed) -> np.random.Generator:
    """Philox: counter-based and platform-stable, so a seed gives the same
    draws bit for bit everywhere. `generator(seed).spawn(k)` gives k
    independent child streams."""
    return np.random.Generator(np.random.Philox(check_seed(seed)))
