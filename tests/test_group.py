import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affwalk import (
    INFINITE_PLACE,
    AffineMap,
    adelic_length,
    compose,
    embed,
    gauge_count_bound,
    gauge_enumerate,
    h_compose,
    height,
    height_plus,
    inverse,
    log_norm_plus,
)
from affwalk.exact import parse_rational, support_primes
from affwalk.group import BOUNDARY_TOL, format_affine

IDENTITY = AffineMap(1, 0)

small_fractions = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=100
)
nonzero_fractions = small_fractions.filter(lambda q: q != 0)

affine_maps = st.builds(AffineMap, nonzero_fractions, small_fractions)


def _parse_affine(text: str) -> AffineMap:
    parts = dict(item.split("=", 1) for item in text.strip().split(";"))
    return AffineMap(parse_rational(parts["a"]), parse_rational(parts["b"]))


def _act(g: AffineMap, z) -> Fraction:
    """Reference for compose: the map x -> a*x + b applied to a rational."""
    return g.a * Fraction(z) + g.b


def _gauge_member(g: AffineMap, y: AffineMap, k: float) -> bool:
    """Reference for gauge_enumerate: adelic length of g^(-1) * y at most k."""
    return adelic_length(compose(inverse(g), y)) <= k + BOUNDARY_TOL


class TestGroupLaw:
    def test_compose_formula(self):
        g = compose(AffineMap(2, 3), AffineMap(Fraction(1, 2), 1))
        assert g == AffineMap(1, 5)  # a1a2 = 1, a1 b2 + b1 = 2+3

    def test_identity_and_inverse(self):
        g = AffineMap(Fraction(3, 4), Fraction(-2, 5))
        assert compose(g, IDENTITY) == g
        assert compose(IDENTITY, g) == g
        assert compose(g, inverse(g)) == IDENTITY
        assert compose(inverse(g), g) == IDENTITY

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(0, 1)

    @given(affine_maps, affine_maps, affine_maps)
    def test_associative(self, f, g, h):
        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    @given(affine_maps, affine_maps, small_fractions)
    def test_action_is_homomorphism(self, f, g, x):
        assert _act(compose(f, g), x) == _act(f, _act(g, x))

    @given(affine_maps)
    def test_roundtrip_format(self, g):
        assert _parse_affine(format_affine(g)) == g


class TestHSpace:
    @given(affine_maps, affine_maps)
    def test_embedding_is_homomorphism(self, g1, g2):
        assert h_compose(embed(g1), embed(g2)) == embed(compose(g1, g2))

    @given(affine_maps)
    def test_h_inverse_matches_group_inverse(self, g):
        assert h_compose(embed(inverse(g)), embed(g)) == embed(IDENTITY)

    @given(affine_maps)
    def test_length_of_embedding(self, g):
        got = adelic_length(embed(g))
        assert got == pytest.approx(height(g.a) + height_plus(g.b), abs=1e-12)
        # the closed form is the sum of ln+ |b|_p over every place, one by one
        places = (*(support_primes(g.b) if g.b else ()), INFINITE_PLACE)
        per_place = math.fsum(log_norm_plus(g.b, p) for p in places)
        assert got == pytest.approx(height(g.a) + per_place, abs=1e-12)

    def test_identity_length_zero(self):
        assert adelic_length(IDENTITY) == 0.0


class TestGauge:
    def test_member_identity(self):
        assert _gauge_member(IDENTITY, IDENTITY, 0.0)
        assert _gauge_member(AffineMap(2, 0), IDENTITY, math.log(2) + 1e-13)
        assert not _gauge_member(AffineMap(2, 0), IDENTITY, 0.5)

    def test_enumerate_small(self):
        ball0 = gauge_enumerate(0.0)
        assert len(ball0) == 6
        expect = {
            AffineMap(1, 0), AffineMap(-1, 0),
            AffineMap(1, 1), AffineMap(1, -1),
            AffineMap(-1, 1), AffineMap(-1, -1),
        }
        assert set(ball0) == expect

    def test_enumerate_sorted_and_unique(self):
        ball = gauge_enumerate(1.5)
        assert len(set(ball)) == len(ball)
        assert ball == sorted(ball, key=lambda g: g.sort_key())

    def test_negative_radius_empty(self):
        assert gauge_enumerate(-0.1) == []

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            gauge_enumerate(6.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf], ids=repr)
    def test_radius_that_is_not_finite_is_refused(self, k):
        # -inf used to give an empty ball, and a report whose JSON held -Infinity
        with pytest.raises(ValueError, match=r"^radius .* is not finite$"):
            gauge_enumerate(k)

    def test_monotone_in_k(self):
        small = set(gauge_enumerate(1.0))
        large = set(gauge_enumerate(2.0))
        assert small <= large

    @given(st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_enumerate_matches_membership(self, k):
        """g lies in the norm ball iff inverse(g) is gauge-close to identity."""
        ball = set(gauge_enumerate(k))
        for g in ball:
            assert _gauge_member(inverse(g), IDENTITY, k)
        # spot-check the converse on a fixed candidate set
        for g in gauge_enumerate(3.0):
            ln = adelic_length(embed(g))
            if ln <= k - 1e-9:
                assert g in ball

    def test_count_bound_formula(self):
        assert gauge_count_bound(0.0) == 6.0
        for k in (0.0, math.log(2), 1.0, 2.0, 3.0):
            assert len(gauge_enumerate(k)) <= gauge_count_bound(k)

    def test_boundary_inclusion_tolerance(self):
        # k exactly ln2: elements at the boundary must be included
        ball = gauge_enumerate(math.log(2))
        assert AffineMap(2, 0) in ball
        assert AffineMap(1, 2) in ball
        assert AffineMap(Fraction(1, 2), 1) in ball
        # one notch past the boundary stays out
        assert AffineMap(Fraction(1, 2), Fraction(1, 2)) not in ball
        assert len(ball) == 26

    @given(affine_maps, affine_maps)
    @settings(max_examples=60)
    def test_quasi_subadditive_length(self, g1, g2):
        y1, y2 = embed(g1), embed(g2)
        lhs = adelic_length(h_compose(y1, y2))
        rhs = math.log(2) + 2 * adelic_length(y1) + adelic_length(y2)
        assert lhs <= rhs + 1e-9
