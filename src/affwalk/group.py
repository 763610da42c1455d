"""The group of rational affine maps and its adelic extension.

An AffineMap (a, b) sends x to a*x + b with rational a != 0.  HPoint extends
the translation part to one exact rational coordinate per place: a default
value shared by every place (the diagonal image of a rational) plus finitely
many per-place overrides.  The adelic length of (a, z) is height(a) plus the
sum over all places of ln+ of the coordinate norms; gauges are its sublevel
sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .exact import (
    Place,
    format_rational,
    height,
    height_plus,
    log_norm_plus,
)

__all__ = [
    "AffineMap",
    "IDENTITY",
    "compose",
    "inverse",
    "act",
    "format_affine",
    "HPoint",
    "embed",
    "h_compose",
    "adelic_length",
    "gauge_enumerate",
    "GAUGE_K_MAX",
    "gauge_count_bound",
    "BOUNDARY_TOL",
]

# Tolerance for membership ties at a float radius k (documented contract:
# ln-norm <= k + BOUNDARY_TOL counts as inside).
BOUNDARY_TOL = 1e-12

# Default cap on the gauge enumeration radius.
GAUGE_K_MAX = 5.0


@dataclass(frozen=True)
class AffineMap:
    """Group element x -> a*x + b with a != 0."""

    a: Fraction
    b: Fraction

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


IDENTITY = AffineMap(1, 0)


def compose(g: AffineMap, h: AffineMap) -> AffineMap:
    """Group product: (g o h)(x) = g(h(x))."""
    return AffineMap(g.a * h.a, g.a * h.b + g.b)


def inverse(g: AffineMap) -> AffineMap:
    return AffineMap(1 / g.a, -g.b / g.a)


def act(g: AffineMap, z) -> Fraction:
    return g.a * Fraction(z) + g.b


def format_affine(g: AffineMap) -> str:
    """Serialize as "a=num/den;b=num/den"."""
    return f"a={format_rational(g.a)};b={format_rational(g.b)}"


def _place_order(p: Place) -> tuple[int, float]:
    return (1, 0.0) if p == math.inf else (0, p)


@dataclass(frozen=True)
class HPoint:
    """Element (a, (z_p)_p) of the extended group.

    ``default`` is the translation coordinate at every place not listed in
    ``overrides``; the diagonal embedding of (a, b) is default=b with no
    overrides.  Overrides equal to the default are dropped, so equality of
    HPoints is equality of the coordinate functions.
    """

    a: Fraction
    default: Fraction
    overrides: tuple[tuple[Place, Fraction], ...]

    def __init__(self, a, default=0, overrides: Mapping[Place, Fraction] | None = None):
        a = Fraction(a)
        if a == 0:
            raise ValueError("linear part must be nonzero")
        default = Fraction(default)
        cleaned = []
        if overrides:
            for place, z in overrides.items() if isinstance(overrides, Mapping) else overrides:
                z = Fraction(z)
                if z != default:
                    cleaned.append((place, z))
        cleaned.sort(key=lambda item: _place_order(item[0]))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "default", default)
        object.__setattr__(self, "overrides", tuple(cleaned))

    def coordinate(self, place: Place) -> Fraction:
        for p, z in self.overrides:
            if p == place:
                return z
        return self.default


def embed(g: AffineMap) -> HPoint:
    """Diagonal embedding: the same rational translation at every place."""
    return HPoint(g.a, g.b)


def h_compose(y1: HPoint, y2: HPoint) -> HPoint:
    """(a, (z_p)) * (a', (z'_p)) = (a*a', (a*z'_p + z_p))."""
    keys = {p for p, _ in y1.overrides} | {p for p, _ in y2.overrides}
    merged = {p: y1.a * y2.coordinate(p) + y1.coordinate(p) for p in keys}
    return HPoint(y1.a * y2.a, y1.a * y2.default + y1.default, merged)


def adelic_length(y: HPoint) -> float:
    """height(a) + sum over all places of ln+ of the translation norms.

    The default coordinate contributes through the closed form
    height_plus(default); each override replaces that place's term.
    """
    total = height(y.a) + height_plus(y.default)
    for place, z in y.overrides:
        total += log_norm_plus(z, place) - log_norm_plus(y.default, place)
    return total


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


def gauge_enumerate(k: float, k_max: float = GAUGE_K_MAX) -> list[AffineMap]:
    """All (a, b) with height(a) + height_plus(b) <= k, sorted canonically.

    This is the norm ball whose inverse image is the gauge of center (1, 0):
    g is enumerated here exactly when inverse(g) lies in that gauge, that is
    when adelic_length(embed(g)) <= k.
    Uses the closed forms height(r/s) = ln(r*s) and
    height_plus(r'/s') = ln(max(r', s')) over coprime pairs; boundary ties
    are kept within BOUNDARY_TOL.
    """
    if k > k_max:
        raise ValueError(f"radius {k} above enumeration cap {k_max}")
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
