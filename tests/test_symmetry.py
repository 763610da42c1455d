"""Symmetries of Aff(Q) as exact oracles for the walker and the convolution engine.

For h = (c, d), the law mu^h of h^-1 g h has atoms (a, (b + (a - 1) d) / c).
Its n-step product is h^-1 x_n h: A_n is unchanged and
Z^h_n = (Z_n + (A_n - 1) d) / c.  Conjugation and inversion are bijections of
the group, so mu, mu^h, reflect(mu) and reflect(mu^h) give n-step laws with
one multiset of probabilities, and entropy (an fsum over that multiset) must
agree to the last bit at every n, with no reference code.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affwalk import AffineMap, StepDistribution, entropy, reflect
from affwalk.measure import _step_table, convolve
from affwalk.walk import _encode, _Walker

MU_SYM = StepDistribution({AffineMap(2, 0): F(1, 2), AffineMap(F(1, 2), 1): F(1, 2)})
MU_REV = StepDistribution({AffineMap(2, 0): F(3, 4), AffineMap(F(1, 2), 1): F(1, 4)})
# c < 0, a c with a prime the slopes share, and d with a denominator the b's lack
CONJUGATORS = [(F(3, 5), F(7, 4)), (F(-2), F(1, 3)), (F(1), F(5))]


def _conjugate(mu, c, d):
    """The law of h^-1 g h for h = (c, d): x -> c x + d."""
    return StepDistribution((AffineMap(g.a, (g.b + (g.a - 1) * d) / c), w) for g, w in mu.atoms)


def _entropies(mu, n_max):
    """H_1 .. H_n_max of the exact n-step laws."""
    step, acc, out = _step_table(mu), _step_table(mu), []
    for _ in range(n_max):
        out.append(entropy(acc))
        acc = convolve(acc, step)
    return out


@pytest.mark.parametrize("mu", [MU_SYM, MU_REV], ids=["sym", "rev"])
@pytest.mark.parametrize("c, d", CONJUGATORS)
def test_entropy_is_invariant_under_conjugation_and_inversion(mu, c, d):
    conj = _conjugate(mu, c, d)
    expected = _entropies(mu, 12)
    for law in (conj, reflect(mu), reflect(conj)):
        assert _entropies(law, 12) == expected


def _check_walks(c, d, seeds):
    # MU_REV's atoms differ in a, so conjugation keeps their order and the
    # same seed draws the same atoms on both laws
    conj = _conjugate(MU_REV, c, d)
    assert [g.a for g in conj.support] == [g.a for g in MU_REV.support]
    enc, enc_h = _encode(MU_REV), _encode(conj)
    for seed in seeds:
        walker, twin = _Walker(enc, seed), _Walker(enc_h, seed)
        for n in (1, 31, 32, 33, 1000):  # batch edges at 32, a flush tail at 1000
            walker.advance(n - walker.count)
            twin.advance(n - twin.count)
            a, z = walker.a, walker.z
            assert twin.a == a
            assert twin.z == (z + (a - 1) * d) / c


@pytest.mark.parametrize("c, d", CONJUGATORS)
def test_walker_commutes_with_conjugation(c, d):
    assert _encode(_conjugate(MU_REV, c, d)).scale != _encode(MU_REV).scale
    _check_walks(c, d, range(20))


_nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=30).filter(bool)


@settings(max_examples=25, deadline=None)
@given(_nonzero, st.fractions(min_value=-9, max_value=9, max_denominator=30))
def test_walker_commutes_with_any_conjugation(c, d):
    _check_walks(c, d, range(3))
