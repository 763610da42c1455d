import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affwalk import (
    INFINITE_PLACE,
    BudgetError,
    height,
    height_plus,
    log_norm,
    log_norm_plus,
    valuation,
)
from affwalk.exact import (
    INFINITE_VALUATION,
    format_place,
    format_rational,
    is_prime,
    parse_place,
    parse_rational,
    prime_factors,
    support_primes,
)
from affwalk.experiments import _partial_plus
from affwalk.padic import ball_key_exact, expand

nonzero_rationals = st.fractions(
    min_value=Fraction(-(10**9)), max_value=Fraction(10**9), max_denominator=10**9
).filter(lambda q: q != 0)

small_primes = st.sampled_from([2, 3, 5, 7, 11, 13, 97])


class TestValuation:
    def test_integers(self):
        assert valuation(Fraction(12), 2) == 2
        assert valuation(Fraction(12), 3) == 1
        assert valuation(Fraction(12), 5) == 0

    def test_denominators_negative(self):
        assert valuation(Fraction(1, 9), 3) == -2
        assert valuation(Fraction(5, 8), 2) == -3

    def test_zero_is_infinite(self):
        assert valuation(Fraction(0), 7) == INFINITE_VALUATION

    def test_sign_invariant(self):
        assert valuation(Fraction(-12), 2) == valuation(Fraction(12), 2)

    def test_rejects_composite_place(self):
        with pytest.raises(ValueError):
            valuation(Fraction(1), 6)
        with pytest.raises(ValueError):
            valuation(Fraction(1), 1)

    @given(nonzero_rationals, nonzero_rationals, small_primes)
    def test_additive_under_multiplication(self, q1, q2, p):
        assert valuation(q1 * q2, p) == valuation(q1, p) + valuation(q2, p)

    @given(nonzero_rationals, small_primes)
    def test_inverse_negates(self, q, p):
        assert valuation(1 / q, p) == -valuation(q, p)


class TestLogNorm:
    def test_finite_place(self):
        # |12|_2 = 1/4
        assert log_norm(Fraction(12), 2) == pytest.approx(-2 * math.log(2))

    def test_infinite_place(self):
        assert log_norm(Fraction(-3, 2), INFINITE_PLACE) == pytest.approx(
            math.log(3) - math.log(2)
        )

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            log_norm(Fraction(0), 2)

    def test_plus_clamps(self):
        assert log_norm_plus(Fraction(1, 4), 2) == pytest.approx(2 * math.log(2))
        assert log_norm_plus(Fraction(4), 2) == 0.0
        assert log_norm_plus(Fraction(0), 5) == 0.0

    @given(nonzero_rationals, small_primes)
    def test_plus_is_positive_part(self, q, p):
        assert log_norm_plus(q, p) == pytest.approx(max(log_norm(q, p), 0.0))


class TestHeights:
    def test_height_is_num_times_den(self):
        assert height(Fraction(3, 2)) == pytest.approx(math.log(3) + math.log(2))
        assert height(Fraction(-3, 2)) == pytest.approx(math.log(3) + math.log(2))
        assert height(Fraction(1)) == 0.0

    def test_height_plus_is_max(self):
        assert height_plus(Fraction(2, 3)) == pytest.approx(math.log(3))
        assert height_plus(Fraction(3, 2)) == pytest.approx(math.log(3))
        assert height_plus(Fraction(0)) == 0.0
        assert height_plus(Fraction(1)) == 0.0

    def test_height_rejects_zero(self):
        with pytest.raises(ValueError):
            height(Fraction(0))

    @given(nonzero_rationals)
    def test_height_as_sum_over_finite_places(self, q):
        # sum of |v_p| ln p over dividing primes: numerator and denominator
        # contribute on disjoint prime sets
        total = sum(abs(log_norm(q, p)) for p in support_primes(q))
        assert total == pytest.approx(height(q), abs=1e-9)

    @given(nonzero_rationals)
    def test_height_plus_as_sum_over_places(self, q):
        places = list(support_primes(q)) + [INFINITE_PLACE]
        total = sum(log_norm_plus(q, v) for v in places)
        assert total == pytest.approx(height_plus(q), abs=1e-9)

    @given(nonzero_rationals)
    def test_inversion_invariance(self, q):
        assert height(1 / q) == pytest.approx(height(q))
        assert height_plus(1 / q) == pytest.approx(height_plus(q), abs=1e-12)

    def test_partial_height_plus(self):
        # ln+|3/8|_2 = 3 ln 2 and ln+|3/8|_inf = 0; for 6 only R counts
        assert _partial_plus(Fraction(3, 8), [2, INFINITE_PLACE]) == pytest.approx(3 * math.log(2))
        assert _partial_plus(Fraction(6), [2, INFINITE_PLACE]) == pytest.approx(math.log(6))
        # places where |z|_p <= 1 contribute nothing
        assert _partial_plus(Fraction(3, 8), [3, 5]) == 0.0
        assert _partial_plus(Fraction(0), [2, INFINITE_PLACE]) == 0.0
        assert _partial_plus(Fraction(3, 8), []) == 0.0


class TestPrimes:
    def test_small(self):
        assert is_prime(2) and is_prime(3) and is_prime(97)
        assert not is_prime(1) and not is_prime(0) and not is_prime(91)

    def test_large_prime(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 - 2)

    def test_factors(self):
        assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
        assert prime_factors(1) == {}
        assert prime_factors(2**61 - 1) == {2**61 - 1: 1}

    def test_factors_hard_composites(self):
        # products of two primes well above any trial division bound
        assert prime_factors((10**9 + 7) * (10**9 + 9)) == {10**9 + 7: 1, 10**9 + 9: 1}
        assert prime_factors(4270502930929) == {1086373: 1, 3930973: 1}
        assert prime_factors(-(1000003**3) * 53) == {53: 1, 1000003: 3}

    def test_support_of_hard_composite(self):
        # found by hypothesis in test_height_as_sum_over_finite_places
        assert support_primes(Fraction(4270502930929, 4271)) == {
            4271,
            1086373,
            3930973,
        }

    def test_psi12_is_composite(self):
        # the least strong pseudoprime to every prime base up to 37; base 41 rejects it
        psi12 = 318665857834031151167461
        assert not is_prime(psi12)
        assert prime_factors(psi12) == {399165290221: 1, 798330580441: 1}

    def test_uncertified_prime_raises_budget_error(self):
        # psi13 passes every witness up to 41, so the set cannot call it prime or composite
        psi13 = 3317044064679887385961981
        with pytest.raises(BudgetError, match="cannot certify"):
            is_prime(psi13)
        with pytest.raises(BudgetError):
            prime_factors(psi13)

    def test_composite_above_the_bound_still_factors(self):
        # a witness proves the product composite, and rho splits it
        assert prime_factors((2**61 - 1) * (2**31 - 1)) == {2**31 - 1: 1, 2**61 - 1: 1}

    def test_support(self):
        assert support_primes(Fraction(12, 35)) == {2, 3, 5, 7}
        assert support_primes(Fraction(1)) == set()


class TestParsing:
    @given(nonzero_rationals)
    def test_rational_roundtrip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_rational_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        with pytest.raises(ValueError):
            parse_rational("3/0")
        with pytest.raises(ValueError):
            parse_rational("3/-2")

    def test_place_roundtrip(self):
        assert parse_place(format_place(INFINITE_PLACE)) == INFINITE_PLACE
        assert parse_place(format_place(13)) == 13
        assert parse_place("oo") == INFINITE_PLACE
        assert parse_place("infinity") == INFINITE_PLACE
        with pytest.raises(ValueError):
            parse_place("4")


class _Int(int):
    pass


@pytest.mark.parametrize(
    "q",
    [12, -40, True, False, _Int(-20), 0.375, -2.5, 0.0, "3/8", "-7/12", Fraction(9, 4)],
    ids=repr,
)
def test_inputs_read_as_their_fraction(q):
    """Every rational reader gives the same results for q as for Fraction(q)."""
    f = Fraction(q)
    for p in (2, 3):
        assert valuation(q, p) == valuation(f, p)
        assert ball_key_exact(q, p, 5) == ball_key_exact(f, p, 5)
        assert expand(q, p, 8) == expand(f, p, 8)
        for place in (p, INFINITE_PLACE):
            assert log_norm_plus(q, place) == log_norm_plus(f, place)
            if f:
                assert log_norm(q, place) == log_norm(f, place)
            else:
                with pytest.raises(ValueError):
                    log_norm(q, place)
    assert height_plus(q) == height_plus(f)
    if f:
        assert height(q) == height(f)
    else:
        with pytest.raises(ValueError):
            height(q)


@pytest.mark.parametrize("bad", ["x", "1/0", math.nan, math.inf, None, 1j], ids=repr)
def test_inputs_rejected_as_by_fraction(bad):
    """An input Fraction() rejects raises the same exception type in every reader."""
    with pytest.raises(Exception) as rejected:
        Fraction(bad)
    error = type(rejected.value)
    readers = [
        lambda: valuation(bad, 2),
        lambda: ball_key_exact(bad, 2, 5),
        lambda: expand(bad, 2, 8),
        lambda: log_norm(bad, 2),
        lambda: log_norm_plus(bad, INFINITE_PLACE),
        lambda: height(bad),
        lambda: height_plus(bad),
    ]
    for read in readers:
        with pytest.raises(error):
            read()
