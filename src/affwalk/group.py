"""The group of rational affine maps and its adelic length.

An AffineMap (a, b) sends x to a*x + b with rational a != 0.  A boundary
point is one rational seen in every place, so the diagonal embedding of
(a, b) into the product over places is (a, b) itself.  Its adelic length is
height(a) plus the sum over all places of ln+ |b|_p; gauges are its
sublevel sets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import Iterable

from .exact import _Value, format_rational, height, height_plus

__all__ = [
    "AffineMap",
    "compose",
    "inverse",
    "embed",
    "h_compose",
    "adelic_length",
    "gauge_enumerate",
    "gauge_count_bound",
]

# Tolerance for membership ties at a float radius k (documented contract:
# ln-norm <= k + BOUNDARY_TOL counts as inside).
BOUNDARY_TOL = 1e-12

# Cap on the gauge enumeration radius; a larger radius is refused.
GAUGE_K_MAX = 5.0


class AffineMap(_Value):
    """Group element x -> a*x + b with a != 0: a read-only value (a, b) of Fractions."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = Fraction(a)
        if a == 0:
            raise ValueError("linear part must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", Fraction(b))

    def sort_key(self) -> tuple[int, int, int, int]:
        return (
            self.a.numerator,
            self.a.denominator,
            self.b.numerator,
            self.b.denominator,
        )


def compose(g: AffineMap, h: AffineMap) -> AffineMap:
    """Group product: (g o h)(x) = g(h(x))."""
    return AffineMap(g.a * h.a, g.a * h.b + g.b)


def inverse(g: AffineMap) -> AffineMap:
    return AffineMap(1 / g.a, -g.b / g.a)


def format_affine(g: AffineMap) -> str:
    """Serialize as "a=num/den;b=num/den"."""
    return f"a={format_rational(g.a)};b={format_rational(g.b)}"


def embed(g: AffineMap) -> AffineMap:
    """Diagonal embedding: the same rational translation at every place."""
    return g


# The diagonal image is closed under the product, so it is the group law.
h_compose = compose


def adelic_length(g: AffineMap) -> float:
    """height(a) + sum over all places of ln+ |b|_p, that is height_plus(b)."""
    return height(g.a) + height_plus(g.b)


def gauge_count_bound(k: float) -> float:
    """Explicit growth bound 2e^(2k) * (2e^(2k) + 1) on the radius-k count."""
    m = 2.0 * math.exp(2.0 * k)
    return m * (m + 1.0)


def _largest_int_with_log_at_most(limit: float) -> int:
    """max {m >= 0 integer : ln m <= limit}, robust at float boundaries."""
    if limit < 0:
        return 0
    m = max(1, int(math.exp(limit)))
    while math.log(m + 1) <= limit:
        m += 1
    while m > 1 and math.log(m) > limit:
        m -= 1
    return m


def _coprime_pairs_product_bounded(limit: float) -> Iterable[tuple[int, int]]:
    """Coprime (r, s) with r, s >= 1 and ln(r*s) <= limit."""
    r_cap = _largest_int_with_log_at_most(limit)
    for s in range(1, r_cap + 1):
        r_max = _largest_int_with_log_at_most(limit - math.log(s)) if s > 1 else r_cap
        for r in range(1, r_max + 1):
            if gcd(r, s) == 1:
                yield r, s


def _coprime_pairs_max_bounded(limit: float) -> Iterable[tuple[int, int]]:
    """Coprime (r, s) with r, s >= 1 and ln(max(r, s)) <= limit."""
    cap = _largest_int_with_log_at_most(limit)
    for s in range(1, cap + 1):
        for r in range(1, cap + 1):
            if gcd(r, s) == 1:
                yield r, s


def gauge_enumerate(k: float) -> list[AffineMap]:
    """All (a, b) with height(a) + height_plus(b) <= k, sorted canonically.

    This is the norm ball whose inverse image is the gauge of center (1, 0):
    g is enumerated here exactly when inverse(g) lies in that gauge, that is
    when adelic_length(g) <= k.
    Uses the closed forms height(r/s) = ln(r*s) and
    height_plus(r'/s') = ln(max(r', s')) over coprime pairs; boundary ties
    are kept within BOUNDARY_TOL.
    """
    if not math.isfinite(k):
        raise ValueError(f"radius {k} is not finite")
    if k > GAUGE_K_MAX:
        raise ValueError(f"radius {k} above enumeration cap {GAUGE_K_MAX}")
    out: set[AffineMap] = set()
    if k < 0:
        return []
    limit = k + BOUNDARY_TOL
    for r, s in _coprime_pairs_product_bounded(limit):
        remaining = limit - math.log(r * s)
        for a in (Fraction(r, s), Fraction(-r, s)):
            out.add(AffineMap(a, 0))
            for rb, sb in _coprime_pairs_max_bounded(remaining):
                b = Fraction(rb, sb)
                out.add(AffineMap(a, b))
                out.add(AffineMap(a, -b))
    return sorted(out, key=AffineMap.sort_key)
