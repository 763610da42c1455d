from fractions import Fraction

import pytest

from affwalk import AffineMap, StepDistribution
from affwalk.prng import LANES, SplitMix64, cumulative_thresholds, next_u64_lanes, pick_index
from affwalk.walk import _encode, _Walker

F = Fraction


def test_known_answers():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == [
        0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC, 0x1B39896A51A8749B,
    ]


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_lanes_match_sequential_draws(seed):
    rng = SplitMix64(seed)
    state = seed
    for _ in range(3):
        state, lanes = next_u64_lanes(state)
        assert list(lanes) == [rng.next_u64() for _ in range(LANES)]
        assert state == rng.state


# seeds outside [0, 2^64); the last one overlaps the next lane unless masked
@pytest.mark.parametrize(
    "seed", [-1, 2**64 + 5, -(2**200) - 3], ids=["minus-1", "2^64+5", "minus-2^200-3"]
)
def test_walker_draws_the_reference_atoms(seed):
    # three atoms, so every lane's draw goes through more than one threshold
    mu = StepDistribution({
        AffineMap(2, 0): F(1, 2),
        AffineMap(F(1, 3), 1): F(1, 3),
        AffineMap(-5, F(1, 2)): F(1, 6),
    })
    rng = SplitMix64(seed)
    thresholds = cumulative_thresholds(mu.weights)
    walker = _Walker(_encode(mu), seed)
    n = 3 * LANES + 5
    got = [walker.step() for _ in range(n)]
    assert got == [pick_index(rng.next_u64(), thresholds) for _ in range(n)]
