"""Deterministic 64-bit PRNG and atom selection for reproducible replicas.

The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter
advanced by a fixed odd gamma and passed through an avalanche finalizer.  It
is part of the external reproducibility contract:

  * stream i of a base seed s is seeded with  s XOR mix64(i)  (mod 2^64);
  * atoms are drawn by inverse CDF over exact cumulative weights, using the
    integer thresholds floor(cum * 2^64), so every draw consumes exactly one
    64-bit output and the selection is identical on every platform.

``mix64`` adds the gamma once more before it mixes, so draw k of
``SplitMix64(s)`` is finalizer(s + (k+1)*gamma): output k+1 of reference
SplitMix64 seeded s.  ``SplitMix64``, ``pick_index`` and ``mix64`` are the
reference path.  The walk engine draws ``LANES`` outputs at a time through
``next_u64_lanes``, which yields exactly the outputs ``next_u64`` would.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

__all__ = ["mix64", "SplitMix64", "replica_seed", "cumulative_thresholds", "pick_index"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SCALE = 1 << 64

LANES = 32  # outputs per next_u64_lanes pass
# Lane i sits in bits [128i, 128i + 64) of one packed integer; the 64 bits
# above it take a lane's carry and its 64 x 64-bit product.
_ONES = sum(1 << (128 * i) for i in range(LANES))
_LANE_MASK = _MASK * _ONES
# lane i is next_u64 call i+1, and mix64 adds one gamma more
_LANE_GAMMAS = sum((((i + 2) * _GAMMA) & _MASK) << (128 * i) for i in range(LANES))
_LANES_GAMMA = (LANES * _GAMMA) & _MASK


def mix64(x: int) -> int:
    """SplitMix64 avalanche finalizer."""
    z = (x + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def next_u64_lanes(state: int) -> tuple[int, memoryview]:
    """The state after, and the outputs of, ``LANES`` next_u64 calls at ``state``.

    ``state`` is taken mod 2^64, as ``SplitMix64`` takes its seed.  Lane i is
    mix64(state + (i+1)*gamma), computed for all lanes at once on one packed
    integer: every lane starts from ``state * _ONES``, and each mixing round
    masks away what a shift carried in from the lane above.
    """
    state &= _MASK
    z = (state * _ONES + _LANE_GAMMAS) & _LANE_MASK
    z = ((z ^ (z >> 30)) & _LANE_MASK) * _MIX1 & _LANE_MASK
    z = ((z ^ (z >> 27)) & _LANE_MASK) * _MIX2 & _LANE_MASK
    z ^= z >> 31
    words = memoryview(z.to_bytes(16 * LANES, sys.byteorder)).cast("Q")
    # the low word of each lane: every even word little-endian; big-endian
    # bytes are reversed, so every odd word taken backwards
    lanes = words[::2] if sys.byteorder == "little" else words[::-2]
    return (state + _LANES_GAMMA) & _MASK, lanes


class SplitMix64:
    """Sequential SplitMix64 stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return mix64(self.state)


def replica_seed(seed: int, index: int) -> int:
    """Per-replica stream seed: independent streams from one base seed."""
    return (seed ^ mix64(index)) & _MASK


def cumulative_thresholds(weights: Sequence[Fraction]) -> list[int]:
    """Integer thresholds floor(cum_i * 2^64) of the exact cumulative weights.

    The final threshold is exactly 2^64, so a uniform draw in [0, 2^64)
    always lands in some cell; each cell i has probability within 2^-64 of
    its exact weight.
    """
    thresholds = []
    cum = Fraction(0)
    for w in weights:
        cum += w
        thresholds.append((cum.numerator * _SCALE) // cum.denominator)
    if cum != 1:
        raise ValueError("weights must sum to exactly 1")
    return thresholds


def pick_index(u: int, thresholds: Sequence[int]) -> int:
    """Index of the cell containing the draw u in [0, 2^64)."""
    return bisect_right(thresholds, u)
