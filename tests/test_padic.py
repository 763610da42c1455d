import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affwalk import PadicExpansion, log_norm, valuation
from affwalk.padic import ball_key_exact, expand

odd_denominator_rationals = st.fractions(
    min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**6
)

primes = st.sampled_from([2, 3, 5, 7, 13])


def _value_mod(e: PadicExpansion) -> Fraction:
    """Re-sum the digits: congruent to the source mod p^(start+N)."""
    total = 0
    for d in reversed(e.digits):
        total = total * e.p + d
    return Fraction(total) * Fraction(e.p) ** e.start_exponent


def _ball_key(e: PadicExpansion, radius_exponent: int) -> tuple:
    """Reference for ball_key_exact: the ball key read off a digit expansion."""
    p, v, zero = e.p, e.start_exponent, e.digits[0] == 0
    if zero or v >= radius_exponent:
        # an all-zero expansion only certifies v_p >= start + precision
        assert not zero or v + len(e.digits) >= radius_exponent
        return (p, radius_exponent, radius_exponent, 0)
    needed = radius_exponent - v
    assert len(e.digits) >= needed, "expansion too short for this radius"
    residue = 0
    for d in reversed(e.digits[:needed]):
        residue = residue * p + d
    return (p, radius_exponent, v, residue)


def _valuation_reference(q: Fraction, p: int) -> int:
    """v_p(q) of a nonzero q by repeated Fraction division."""
    v = 0
    while q.numerator % p == 0:
        q /= p
        v += 1
    while q.denominator % p == 0:
        q *= p
        v -= 1
    return v


def _unit_residue_reference(q: Fraction, p: int, v: int, k: int) -> int:
    """(q / p^v) modulo p^k, the unit part divided out as a Fraction."""
    unit = q / Fraction(p) ** v
    modulus = p**k
    return unit.numerator * pow(unit.denominator, -1, modulus) % modulus


def _expand_reference(q: Fraction, p: int, n_digits: int) -> PadicExpansion:
    """Reference for expand, on Fraction division."""
    if q == 0:
        return PadicExpansion(p, 0, (0,) * n_digits)
    v = _valuation_reference(q, p)
    residue = _unit_residue_reference(q, p, v, n_digits)
    digits = []
    for _ in range(n_digits):
        residue, d = divmod(residue, p)
        digits.append(d)
    return PadicExpansion(p, v, tuple(digits))


def _ball_key_exact_reference(q: Fraction, p: int, radius_exponent: int) -> tuple:
    """Reference for ball_key_exact, on Fraction division."""
    if q == 0:
        return (p, radius_exponent, radius_exponent, 0)
    v = _valuation_reference(q, p)
    if v >= radius_exponent:
        return (p, radius_exponent, radius_exponent, 0)
    return (p, radius_exponent, v, _unit_residue_reference(q, p, v, radius_exponent - v))


# tail points of the tracking workload reach about 3.9 kbit
_BIG = 2**4096
_numerators = st.integers(-_BIG, _BIG) | st.integers(-1000, 1000)
_denominators = st.integers(1, _BIG) | st.integers(1, 1000)


class TestIntegerKernels:
    """ball_key_exact and expand equal their Fraction-division references."""

    @settings(deadline=None)
    @given(
        _numerators,
        _denominators,
        primes,
        st.integers(-70, 70),
        st.integers(-3, 60),
    )
    @example(0, 1, 3, 0, 5)  # zero
    @example(-7, 1, 5, 0, 0)  # negative unit
    @example(5, 3, 3, 40, 4)  # v >= radius
    @example(7, 1, 13, -5, 2)  # v < 0: p divides the denominator
    @example(-(3**2500) - 1, 2**4000 * 5, 2, -3, 60)  # large operands
    def test_ball_key_matches_reference(self, num, den, p, shift, radius):
        q = Fraction(num, den) * Fraction(p) ** shift
        assert ball_key_exact(q, p, radius) == _ball_key_exact_reference(q, p, radius)

    @settings(deadline=None)
    @given(
        _numerators,
        _denominators,
        primes,
        st.integers(-70, 70),
        st.integers(1, 60),
    )
    @example(0, 1, 3, 0, 5)
    @example(-7, 1, 5, 0, 8)
    @example(7, 1, 13, -5, 2)
    @example(-(3**2500) - 1, 2**4000 * 5, 2, -3, 60)
    def test_expand_matches_reference(self, num, den, p, shift, n_digits):
        q = Fraction(num, den) * Fraction(p) ** shift
        assert expand(q, p, n_digits) == _expand_reference(q, p, n_digits)


class TestExpand:
    def test_integer(self):
        e = expand(Fraction(5), 2, 4)
        assert (e.start_exponent, e.digits) == (0, (1, 0, 1, 0))

    def test_negative_start(self):
        e = expand(Fraction(1, 2), 2, 3)
        assert (e.start_exponent, e.digits) == (-1, (1, 0, 0))

    def test_repeating(self):
        # 1/3 = 1 + 2 + 8 + ... in Q_2: digits 1101 to four places
        e = expand(Fraction(1, 3), 2, 4)
        assert (e.start_exponent, e.digits) == (0, (1, 1, 0, 1))

    def test_zero(self):
        e = expand(Fraction(0), 3, 5)
        assert e.start_exponent == 0
        assert e.digits == (0,) * 5

    def test_negative_one_all_max_digits(self):
        e = expand(Fraction(-1), 5, 6)
        assert e.digits == (4,) * 6

    def test_render(self):
        assert expand(Fraction(1, 3), 2, 4).render() == "1 1 0 1 (base 2), start=0"

    def test_needs_positive_digit_count(self):
        with pytest.raises(ValueError):
            expand(Fraction(1), 2, 0)

    @given(odd_denominator_rationals, primes, st.integers(min_value=1, max_value=24))
    def test_value_mod_inverts(self, q, p, n):
        """Re-summing the digits recovers q modulo p^(start+n)."""
        e = expand(q, p, n)
        if q == 0:
            assert _value_mod(e) == 0
            return
        v = valuation(q, p)
        assert e.start_exponent == v
        diff = q - _value_mod(e)
        assert diff == 0 or valuation(diff, p) >= v + n

    @given(odd_denominator_rationals, primes)
    def test_leading_digit_nonzero(self, q, p):
        e = expand(q, p, 6)
        if q != 0:
            assert e.digits[0] != 0


class TestDistance:
    """The p-adic distance ln|q1 - q2|_p is log_norm of the difference."""

    def test_basic(self):
        # |5 - 1|_2 = |4|_2 = 1/4
        assert log_norm(Fraction(5) - Fraction(1), 2) == pytest.approx(-2 * math.log(2))

    def test_equal_points_rejected(self):
        with pytest.raises(ValueError):
            log_norm(Fraction(1) - Fraction(1), 3)

    @given(odd_denominator_rationals, odd_denominator_rationals, odd_denominator_rationals, primes)
    def test_ultrametric(self, x, y, z, p):
        if x == y or y == z or x == z:
            return
        d_xz = log_norm(x - z, p)
        assert d_xz <= max(log_norm(x - y, p), log_norm(y - z, p)) + 1e-12


class TestBallKey:
    def test_by_example(self):
        e = expand(Fraction(5), 2, 6)
        # radius 3 ball around 5: valuation 0, residue 5 mod 8
        assert _ball_key(e, 3) == (2, 3, 0, 5)

    def test_zero_ball_normal_form(self):
        e = expand(Fraction(0), 2, 6)
        assert _ball_key(e, 3) == (2, 3, 3, 0)
        # a point p-adically inside the radius-3 zero ball gets the same key
        assert _ball_key(expand(Fraction(8), 2, 6), 3) == (2, 3, 3, 0)

    def test_exact_matches_expansion(self):
        for q in (Fraction(5), Fraction(7, 3), Fraction(-1, 2), Fraction(0), Fraction(12)):
            e = expand(q, 2, 12)
            assert _ball_key(e, 4) == ball_key_exact(q, 2, 4)

    @given(odd_denominator_rationals, odd_denominator_rationals, primes,
           st.integers(min_value=-3, max_value=6))
    def test_key_equality_iff_close(self, x, y, p, radius):
        """Two rationals share the radius-r ball key iff |x-y|_p <= p^-r."""
        kx = ball_key_exact(x, p, radius)
        ky = ball_key_exact(y, p, radius)
        if x == y:
            assert kx == ky
        else:
            close = valuation(x - y, p) >= radius
            assert (kx == ky) == close

    @given(odd_denominator_rationals, primes, st.integers(min_value=-3, max_value=8))
    def test_exact_matches_expansion_random(self, q, p, radius):
        # |v_p(q)| < 20 on these inputs, so 40 digits reach every radius
        assert _ball_key(expand(q, p, 40), radius) == ball_key_exact(q, p, radius)


class TestExpansionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            PadicExpansion(4, 0, (1,))  # composite base
        with pytest.raises(ValueError):
            PadicExpansion(3, 0, (3,))  # digit out of range
        with pytest.raises(ValueError):
            PadicExpansion(3, 0, (0, 1))  # leading zero on nonzero digits

    def test_equality_ignores_source(self):
        a = expand(Fraction(5), 2, 4)
        b = PadicExpansion(2, 0, (1, 0, 1, 0))
        assert a == b
        # 21 = 5 + 16 shares the first four digits, so the expansions agree
        assert expand(Fraction(21), 2, 4) == a
