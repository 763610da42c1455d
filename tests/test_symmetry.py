"""Symmetries of Aff(Q) as exact oracles for the walker and the convolution engine.

For h = (c, d), the law mu^h of h^-1 g h has atoms (a, (b + (a - 1) d) / c).
Its n-step product is h^-1 x_n h: A_n is unchanged and
Z^h_n = (Z_n + (A_n - 1) d) / c.  Conjugation and inversion are bijections of
the group, so mu, mu^h, reflect(mu) and reflect(mu^h) give n-step laws with
one multiset of probabilities, and entropy (an fsum over that multiset) must
agree to the last bit at every n, with no reference code.

At a place p that contracts, the limit z and the tail point x_n^-1 z of mu^h
are h^-1 of mu's: q -> (q - d) / c.  So with v_p(c) = 0 the p-adic ball keys
of the conjugate's stationarity replicas are those of mu's, mapped ball by
ball.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affwalk import AffineMap, StepDistribution, entropy, reflect, valuation
from affwalk.experiments import _grid_walk, _partial_plus, _stationarity_replica, run_lln43
from affwalk.measure import _step_table, convolve
from affwalk.padic import ball_key_exact
from affwalk.prng import LANES, replica_seed
from affwalk.walk import _encode, _Walker

MU_SYM = StepDistribution({AffineMap(2, 0): F(1, 2), AffineMap(F(1, 2), 1): F(1, 2)})
MU_REV = StepDistribution({AffineMap(2, 0): F(3, 4), AffineMap(F(1, 2), 1): F(1, 4)})
# b denominators 3, 4 and 7, and a slope with a 3; contracts at 2 only.  Its
# slopes differ, so every conjugate keeps its atom order
MU_DENS = StepDistribution({
    AffineMap(2, F(1, 3)): F(1, 2),
    AffineMap(F(1, 2), F(-3, 4)): F(1, 4),
    AffineMap(F(2, 3), F(5, 7)): F(1, 4),
})
# two atoms share slope 2 (b denominators 3 and 5), so a conjugate may reorder them
MU_TIES = StepDistribution({
    AffineMap(2, F(1, 3)): F(1, 4),
    AffineMap(2, F(-2, 5)): F(1, 4),
    AffineMap(F(1, 2), F(1, 2)): F(1, 2),
})
# c < 0, a c with a prime the slopes share, and d with a denominator the b's lack
CONJUGATORS = [(F(3, 5), F(7, 4)), (F(-2), F(1, 3)), (F(1), F(5))]


def _conjugate_atom(g, c, d):
    """h^-1 g h for h = (c, d): x -> c x + d."""
    return AffineMap(g.a, (g.b + (g.a - 1) * d) / c)


def _conjugate(mu, c, d):
    """The law of h^-1 g h."""
    return StepDistribution((_conjugate_atom(g, c, d), w) for g, w in mu.atoms)


def _entropies(mu, n_max):
    """H_1 .. H_n_max of the exact n-step laws."""
    step, acc, out = _step_table(mu), _step_table(mu), []
    for _ in range(n_max):
        out.append(entropy(acc))
        acc = convolve(acc, step)
    return out


@pytest.mark.parametrize(
    "mu, n_max", [(MU_SYM, 12), (MU_REV, 12), (MU_DENS, 7), (MU_TIES, 7)],
    ids=["sym", "rev", "dens", "ties"],
)
@pytest.mark.parametrize("c, d", CONJUGATORS)
def test_entropy_is_invariant_under_conjugation_and_inversion(mu, n_max, c, d):
    conj = _conjugate(mu, c, d)
    expected = _entropies(mu, n_max)
    for law in (conj, reflect(mu), reflect(conj)):
        assert _entropies(law, n_max) == expected


def _keeps_order(mu, c, d):
    """Whether atom i of mu^h is the conjugate of atom i of mu, for every i.

    Then both laws have one weight sequence, so a seed draws the same indices
    on both: the walks are h^-1 x_n h and x_n, step by step.
    """
    return list(_conjugate(mu, c, d).support) == [_conjugate_atom(g, c, d) for g in mu.support]


def _check_walks(c, d, seeds, mu=MU_REV):
    assert _keeps_order(mu, c, d)
    enc, enc_h = _encode(mu), _encode(_conjugate(mu, c, d))
    for seed in seeds:
        walker, twin = _Walker(enc, seed), _Walker(enc_h, seed)
        for n in (1, LANES - 1, LANES, LANES + 1, 1000):  # a batch edge, a flush tail at 1000
            walker.advance(n - walker.count)
            twin.advance(n - twin.count)
            a, z = walker.a, walker.z
            assert twin.a == a
            assert twin.z == (z + (a - 1) * d) / c


@pytest.mark.parametrize("mu", [MU_REV, MU_DENS], ids=["rev", "dens"])
@pytest.mark.parametrize("c, d", CONJUGATORS)
def test_walker_commutes_with_conjugation(mu, c, d):
    if mu is MU_REV:  # every h here moves the lcm of MU_REV's b denominators
        assert _encode(_conjugate(mu, c, d)).scale != _encode(mu).scale
    _check_walks(c, d, range(20), mu)


_nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=30).filter(bool)
_shifts = st.fractions(min_value=-9, max_value=9, max_denominator=30)


@settings(max_examples=25, deadline=None)
@given(_nonzero, _shifts)
def test_walker_commutes_with_any_conjugation(c, d):
    _check_walks(c, d, range(3))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([MU_DENS, MU_TIES]), _nonzero, _shifts)
def test_walker_commutes_with_any_order_keeping_conjugation(mu, c, d):
    # MU_TIES's two slope-2 atoms sort by b's numerator and denominator, which
    # a conjugation can swap; only an h that keeps the order pairs the draws
    assume(_keeps_order(mu, c, d))
    _check_walks(c, d, range(3), mu)


@pytest.mark.parametrize("mu", [MU_REV, MU_DENS], ids=["rev", "dens"])
@pytest.mark.parametrize("c, d", CONJUGATORS)
def test_lln43_through_the_closed_form(mu, c, d):
    # the conjugate's partial heights are those of Z^h_m = (Z_m + (A_m - 1) d) / c
    # on mu's own walk, bit for bit; at places with v_p(c) = 0, dividing by c
    # moves no |.|_p, so the event reads Z_m + (A_m - 1) d there
    places = [p for p in (2, 3, 5) if valuation(c, p) == 0]
    grid, samples, seed = [10, 50], 8, 4
    conj = _conjugate(mu, c, d)
    report = run_lln43(conj, places, n_grid=grid, samples=samples, seed=seed)
    expected = []
    for i in range(samples):
        s = replica_seed(seed, i)
        _, snaps = _grid_walk(_encode(mu), s, grid, grid[-1])
        for m, (a, z) in zip(grid, snaps):
            expected.append((m, s, _partial_plus((z + (a - 1) * d) / c, places) / m))
    assert [(r.n, r.seed, r.value) for r in report.rows] == expected


def _ball_center(key):
    """A rational in the ball that ``ball_key_exact`` labels ``key``."""
    p, _, v, residue = key
    return F(p) ** v * residue


@pytest.mark.parametrize("mu", [MU_REV, MU_DENS], ids=["rev", "dens"])
@pytest.mark.parametrize("radius", [3, 6])
@pytest.mark.parametrize("c, d_unit", [(F(3, 5), F(7, 9)), (F(-1), F(1)), (F(1), F(-5, 3))])
def test_stationarity_keys_follow_the_conjugation(mu, radius, c, d_unit):
    # v_2(c) = 0 and v_2(d) >= radius, so q -> (q - d) / c maps each ball of
    # radius 2^-radius onto one ball, and keeps the ball around 0
    d = d_unit * 2**radius
    args = {"p": 2, "radius": radius, "n": 20, "margin": 32, "step_cap": 10_000}
    enc, enc_h = _encode(mu), _encode(_conjugate(mu, c, d))
    for i in range(12):
        s = replica_seed(1, i)
        _, keys, _, probed = _stationarity_replica(s, encoding=enc, **args)
        _, keys_h, _, probed_h = _stationarity_replica(s, encoding=enc_h, **args)
        assert probed and probed_h
        assert keys_h == tuple(ball_key_exact((_ball_center(k) - d) / c, 2, radius) for k in keys)
