"""Counter-based random streams.

Every random quantity in the package is drawn from a Philox generator
keyed by (seed, stream tag, item index). Keyed streams make each draw
independent of iteration order: edge j's cost is the same whether
costs are sampled one at a time, in bulk, or in reverse.
"""

from __future__ import annotations

from numpy.random import Generator, Philox

# Stream tags; packed into the high bits of the second key word.
COSTS = 1
TOPOLOGY = 2
NOISE = 4
INT_COSTS = 5

_TAG_SHIFT = 48
_INDEX_LIMIT = 1 << _TAG_SHIFT


def stream(seed: int, tag: int, index: int = 0) -> Generator:
    """Generator for one (seed, tag, index) cell of the key space."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if not 0 <= index < _INDEX_LIMIT:
        raise ValueError("stream index out of range")
    return Generator(Philox(key=[seed, (tag << _TAG_SHIFT) | index]))


def uniform(seed: int, tag: int, index: int, lo: float, hi: float) -> float:
    """One uniform draw from [lo, hi) on the keyed stream."""
    return lo + (hi - lo) * stream(seed, tag, index).random()
