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
reference path.  The walk engine draws ``LANES`` (128) outputs at a time on
one packed integer, which holds exactly the outputs ``next_u64`` would give.
For a law of at most ``PACKED_ATOMS`` atoms, ``pick_lanes`` also picks the
``LANES`` atoms on that integer, one packed compare per threshold; a larger
law reads the outputs from ``next_u64_lanes`` and picks each one with
``pick_index``.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from fractions import Fraction
from typing import Optional, Sequence

__all__ = ["mix64", "SplitMix64"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SCALE = 1 << 64

LANES = 128  # outputs per packed pass
# Lane i sits in bits [128i, 128i + 64) of one packed integer; the 64 bits
# above it take a lane's carry and its 64 x 64-bit product.
_ONES = sum(1 << (128 * i) for i in range(LANES))
_LANE_MASK = _MASK * _ONES
_CARRIES = _ONES << 64  # bit 64 of every lane's slot
# lane i is next_u64 call i+1, and mix64 adds one gamma more
_LANE_GAMMAS = sum((((i + 2) * _GAMMA) & _MASK) << (128 * i) for i in range(LANES))
_LANES_GAMMA = (LANES * _GAMMA) & _MASK
# Laws up to this many atoms pick on the packed integer: against pick_index
# per lane, the packed compare measured faster below about 16 to 20 atoms.
# A slot's count is one byte, so it could never take more than 256 atoms.
PACKED_ATOMS = 16


def mix64(x: int) -> int:
    """SplitMix64 avalanche finalizer."""
    z = (x + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mixed_lanes(state: int) -> int:
    """mix64(state + (i+1)*gamma) in lane i, for every lane of one packed integer.

    Every lane starts from ``state * _ONES``, and each mixing round masks
    away what a shift carried in from the lane above.
    """
    z = (state * _ONES + _LANE_GAMMAS) & _LANE_MASK
    z = ((z ^ (z >> 30)) & _LANE_MASK) * _MIX1 & _LANE_MASK
    z = ((z ^ (z >> 27)) & _LANE_MASK) * _MIX2 & _LANE_MASK
    return (z ^ (z >> 31)) & _LANE_MASK


def next_u64_lanes(state: int) -> tuple[int, memoryview]:
    """The state after, and the outputs of, ``LANES`` next_u64 calls at ``state``.

    ``state`` is taken mod 2^64, as ``SplitMix64`` takes its seed.
    """
    state &= _MASK
    z = _mixed_lanes(state)
    words = memoryview(z.to_bytes(16 * LANES, sys.byteorder)).cast("Q")
    # the low word of each lane: every even word little-endian; big-endian
    # bytes are reversed, so every odd word taken backwards
    lanes = words[::2] if sys.byteorder == "little" else words[::-2]
    return (state + _LANES_GAMMA) & _MASK, lanes


def lane_offsets(thresholds: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The addends of ``pick_lanes``: 2^64 - t in every slot, per threshold t < 2^64.

    None for a law of more than ``PACKED_ATOMS`` atoms, which picks lane by lane.
    """
    if len(thresholds) > PACKED_ATOMS:
        return None
    return tuple((_SCALE - t) * _ONES for t in thresholds if t < _SCALE)


def pick_lanes(state: int, offsets: Sequence[int]) -> tuple[int, bytes]:
    """The state after ``LANES`` draws at ``state``, and each draw's ``pick_index``.

    A lane's draw u is at least a threshold t exactly when u + 2^64 - t
    carries into bit 64 of its slot.  Summed over the thresholds below 2^64,
    those carry bits count the thresholds at or below u, which is
    ``bisect_right``; each slot's count is byte 8 of its 16 little-endian
    bytes.  ``offsets`` is ``lane_offsets`` of the law's thresholds.
    """
    state &= _MASK
    z = _mixed_lanes(state)
    counts = 0
    for c in offsets:
        counts += (z + c) & _CARRIES
    return (state + _LANES_GAMMA) & _MASK, counts.to_bytes(16 * LANES, "little")[8::16]


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
