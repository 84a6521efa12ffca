"""The library's one source of seeded randomness."""

from typing import Iterator

import numpy as np


def generator(seed) -> np.random.Generator:
    """Philox: counter-based and platform-stable, so a seed gives the same
    draws bit for bit everywhere. `generator(seed).spawn(k)` gives k
    independent child streams. A verb checks its seed by its annotation."""
    return np.random.Generator(np.random.Philox(seed))


def sorted_choices(rng: np.random.Generator, p: int, f: int, block: int) -> Iterator[np.ndarray]:
    """Successive `np.sort(rng.choice(p, size=f, replace=False))`, drawn
    `block` at a time: the same subsets, and after each block `rng` stands
    where `block` such calls leave it.

    Where numpy uses Floyd's algorithm (Bentley & Floyd, CACM 30(9), 1987),
    that is p <= 10,000 or f <= p // 50, a call draws from [0, j] for
    j = p - f, ..., p - 1 and then from [0, i] for i = f - 1, ..., 1 to
    shuffle what the sort throws away. One `rng.integers` call with those
    bounds on each of `block` rows makes the same draws in the same order.
    Elsewhere numpy shuffles a tail of range(p), and each subset is drawn
    by `choice` itself.
    """
    if p > 10_000 and f > p // 50:
        while True:
            yield np.sort(rng.choice(p, size=f, replace=False))
    bounds = np.concatenate([np.arange(p - f, p) + 1, np.arange(f, 1, -1)])
    while True:
        yield from _floyd(rng.integers(0, bounds, size=(block, len(bounds))), p, f)


def _floyd(draws: np.ndarray, p: int, f: int) -> np.ndarray:
    """Each row's sorted subset by Floyd's rule, every row at once: its
    draw v from [0, j] is taken unless the subset holds it already, and
    then j is. Each row marks its own p cells of `taken`."""
    starts = np.arange(0, len(draws) * p, p)[:, None]
    draws = draws[:, :f] + starts
    taken = np.zeros(len(draws) * p, bool)
    for v, j in zip(draws.T, (starts + np.arange(p - f, p)).T):
        np.copyto(v, j, where=taken[v])
        taken[v] = True
    return np.flatnonzero(taken).reshape(len(draws), f) - starts


def fold_seed(seed: int, fold_index: int) -> int:
    """A fold's own seed, so determinism does not depend on the fold schedule."""
    return int(np.random.SeedSequence([int(seed), fold_index]).generate_state(1)[0])


def replicate_seeds(seed: int, replicates: int) -> list[int]:
    """One seed per demo replicate, each from a child of SeedSequence(seed)."""
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(replicates)]
