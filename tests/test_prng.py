from fractions import Fraction
from itertools import chain, islice

import pytest

from affwalk import AffineMap, StepDistribution
from affwalk.prng import (
    LANES,
    PACKED_ATOMS,
    SplitMix64,
    cumulative_thresholds,
    lane_counter,
    lane_offsets,
    next_u64_lanes,
    pick_index,
    pick_lanes,
)
from affwalk.walk import _encode, _Walker

F = Fraction


def test_known_answers():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == [
        0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC, 0x1B39896A51A8749B,
    ]


_WRAPPING_SEEDS = (0, 1, 2**63, 2**64 - 1)


@pytest.mark.parametrize(
    "seed, batches",
    [*((seed, 3) for seed in _WRAPPING_SEEDS), (5, 40)],
    ids=[*map(str, _WRAPPING_SEEDS), "40-batches"],
)
def test_lanes_match_sequential_draws(seed, batches):
    # the counter is carried from batch to batch; a tracking walk of 4,032
    # steps draws 32 batches, and every lane's counter wraps within 40
    rng = SplitMix64(seed)
    counter = lane_counter(seed)
    for _ in range(batches):
        counter, lanes = next_u64_lanes(counter)
        assert list(lanes) == [rng.next_u64() for _ in range(LANES)]
        assert counter == lane_counter(rng.state)


# three atoms, so every lane's draw goes through more than one threshold
_THREE = [(2, 0, F(1, 2)), (F(1, 3), 1, F(1, 3)), (-5, F(1, 2), F(1, 6))]


def _law(n_atoms):
    """n_atoms distinct atoms with unequal weights."""
    weights = [i % 7 + 1 for i in range(n_atoms)]
    return [(2, i, F(w, sum(weights))) for i, w in enumerate(weights)]


@pytest.mark.parametrize(
    "atoms, seed",
    [
        # seeds outside [0, 2^64); the last one overlaps the next lane unless masked
        pytest.param(_THREE, -1, id="minus-1"),
        pytest.param(_THREE, 2**64 + 5, id="2^64+5"),
        pytest.param(_THREE, -(2**200) - 3, id="minus-2^200-3"),
        pytest.param([(2, 1, F(1))], 3, id="one-atom"),
        pytest.param(_law(PACKED_ATOMS), 4, id="packed-cutoff"),
        # the laws above the cutoff pick lane by lane
        pytest.param(_law(PACKED_ATOMS + 1), 5, id="above-cutoff"),
        pytest.param(_law(300), 6, id="300-atoms"),
    ],
)
def test_walker_draws_the_reference_atoms(atoms, seed):
    mu = StepDistribution({AffineMap(a, b): w for a, b, w in atoms})
    rng = SplitMix64(seed)
    thresholds = cumulative_thresholds(mu.weights)
    enc = _encode(mu)
    n = 3 * LANES + 5
    got = list(islice(chain.from_iterable(enc.batches(seed)), n))
    assert got == [pick_index(rng.next_u64(), thresholds) for _ in range(n)]
    # and the walker takes those atoms, however it groups them
    walker = _Walker(enc, seed)
    for _ in range(n):
        walker.step()
    a, z = F(1), F(0)
    for i in got:
        g = mu.support[i]
        a, z = a * g.a, z + a * g.b
    assert (walker.a, walker.z) == (a, z)


def test_a_draw_on_a_threshold_picks_the_cell_above():
    # the first weight is the first draw of seed 0 over 2^64, so its threshold
    # is that draw exactly; bisect_right puts the draw in the second cell
    u = 0x6E789E6AA1B965F4
    thresholds = cumulative_thresholds([F(u, 2**64), 1 - F(u, 2**64)])
    assert thresholds == [u, 2**64]
    assert [pick_index(v, thresholds) for v in (u - 1, u, u + 1)] == [0, 1, 1]
    _, atoms = pick_lanes(lane_counter(0), lane_offsets(thresholds))
    assert atoms[0] == 1
    draws = next_u64_lanes(lane_counter(0))[1]
    assert list(atoms) == [pick_index(v, thresholds) for v in draws]


def test_the_packed_pick_stops_at_the_cutoff():
    thresholds = cumulative_thresholds([F(1, PACKED_ATOMS + 1)] * (PACKED_ATOMS + 1))
    assert lane_offsets(thresholds) is None
    assert len(lane_offsets(thresholds[1:])) == PACKED_ATOMS - 1
