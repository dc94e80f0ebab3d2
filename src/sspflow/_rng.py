"""Counter-based random streams.

Every random quantity in the package is drawn from a Philox generator
keyed by (seed, stream tag, item index). Keyed streams make each draw
independent of iteration order: edge j's cost is the same whether
costs are sampled one at a time, in bulk, or in reverse.

`stream` builds numpy's Philox for one key. `randoms` and `integers`
compute, for a contiguous block of indices at once, the first value
that `stream` would give for each key, bit for bit: a vectorised
Philox4x64-10 yields the first output word of every key (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).

Seeds must lie in [0, 2^63). numpy turns the key list [seed, tag word]
into float64 when the seed does not fit in int64, so seeds at or above
2^63 would collide; both paths reject them.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

# Stream tags; packed into the high bits of the second key word.
COSTS = 1
TOPOLOGY = 2
NOISE = 4
INT_COSTS = 5

SEED_LIMIT = 1 << 63
_TAG_SHIFT = 48
_INDEX_LIMIT = 1 << _TAG_SHIFT

# numpy's Philox4x64 multipliers and Weyl key increments, one row per
# multiplied counter word (0 and 2) and key word.
_MULT = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_WEYL = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_MULT_HI, _MULT_LO = _MULT >> _S32, _MULT & _LOW32


def _check_seed(seed: int) -> None:
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2^63), got {seed}")


def stream(seed: int, tag: int, index: int = 0) -> Generator:
    """Generator for one (seed, tag, index) cell of the key space."""
    _check_seed(seed)
    if not 0 <= index < _INDEX_LIMIT:
        raise ValueError("stream index out of range")
    return Generator(Philox(key=[seed, (tag << _TAG_SHIFT) | index]))


def _first_words(
    seed: int, tag: int | tuple[int, ...], start: int, stop: int
) -> np.ndarray:
    """Word 0 of the first Philox4x64-10 block of keys start..stop-1.

    numpy bumps the counter before its first block, so the block is the
    one at counter (1, 0, 0, 0). Rows hold counter words (0, 2) in x,
    (1, 3) in y and the key words; the 128-bit products are taken in
    32-bit halves. A tuple of tags gives one row per tag, all keys
    sharing the rounds, which costs less than a call per tag.
    """
    _check_seed(seed)
    if not 0 <= start <= stop <= _INDEX_LIMIT:
        raise ValueError("stream index out of range")
    tags = np.asarray(tag, dtype=np.uint64)[..., None]
    shape = tags.shape[:-1] + (stop - start,)
    key = np.empty((2,) + shape, dtype=np.uint64)
    key[0] = seed
    key[1] = np.arange(start, stop, dtype=np.uint64) | (tags << np.uint64(_TAG_SHIFT))
    key = key.reshape(2, -1)
    # The first round at counter (1, 0, 0, 0) leaves x = key, y = (0, M0).
    x = key.copy()
    y = np.zeros_like(key)
    y[1] = _MULT[0, 0]
    for _ in range(_ROUNDS - 1):
        key += _WEYL
        x_hi, x_lo = x >> _S32, x & _LOW32
        ll = _MULT_LO * x_lo
        lh = _MULT_LO * x_hi
        cross = (ll >> _S32) + (lh & _LOW32) + _MULT_HI * x_lo
        hi = _MULT_HI * x_hi + (lh >> _S32) + (cross >> _S32)
        x, y = hi[::-1] ^ y ^ key, (_MULT * x)[::-1]
    return x[0].reshape(shape)


def _unit_floats(words: np.ndarray) -> list[float]:
    """Generator.random() of the streams whose first words these are."""
    return ((words >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()


def randoms(seed: int, tag: int, start: int, stop: int) -> list[float]:
    """stream(seed, tag, i).random() for every i in range(start, stop)."""
    return _unit_floats(_first_words(seed, tag, start, stop))


def integers(seed: int, tag: int, stop: int, c: int) -> list[int]:
    """int(stream(seed, tag, i).integers(1, c + 1)) for i in range(stop).

    Applies numpy's 32-bit Lemire step to the low half of each first
    word. Any index whose leftover falls below c might be rejected, and
    c >= 2^32 takes numpy's other paths, so those indices are drawn
    again through `stream`.
    """
    if c < 1:
        raise ValueError(f"integer bound must be >= 1, got {c}")
    if c >= 1 << 32:
        return [int(stream(seed, tag, i).integers(1, c + 1)) for i in range(stop)]
    return _lemire(seed, tag, c, _first_words(seed, tag, 0, stop))


def integers_and_randoms(
    seed: int, int_tag: int, float_tag: int, stop: int, c: int
) -> tuple[list[int], list[float]]:
    """(integers(seed, int_tag, stop, c), randoms(seed, float_tag, 0, stop)),
    from one _first_words pass over both tags' keys when c < 2^32."""
    if not 1 <= c < 1 << 32:
        return integers(seed, int_tag, stop, c), randoms(seed, float_tag, 0, stop)
    int_words, float_words = _first_words(seed, (int_tag, float_tag), 0, stop)
    return _lemire(seed, int_tag, c, int_words), _unit_floats(float_words)


def _lemire(seed: int, tag: int, c: int, words: np.ndarray) -> list[int]:
    """integers(seed, tag, len(words), c) for c < 2^32, from the keys'
    first words."""
    scaled = (words & _LOW32) * np.uint64(c)
    values = ((scaled >> _S32) + np.uint64(1)).tolist()
    for i in np.flatnonzero((scaled & _LOW32) < np.uint64(c)).tolist():
        values[i] = int(stream(seed, tag, i).integers(1, c + 1))
    return values
