"""Truncated p-adic digit expansions of rationals and ball bucketing.

An expansion stores the valuation (start exponent) and N base-p digits of the
unit part, so the represented value is known modulo p^(start+N).  All
arithmetic stays on exact rationals; expansions are read-only views used for
boundary points and for histogramming empirical measures on Q_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import valuation, _require_finite_prime

__all__ = ["PadicExpansion", "expand", "ball_key_exact"]


@dataclass(frozen=True)
class PadicExpansion:
    """Digits of a rational in Q_p, known modulo p^(start_exponent + N).

    The leading digit is nonzero except for the zero value, which is stored as
    all-zero digits with start_exponent 0.
    """

    p: int
    start_exponent: int
    digits: tuple[int, ...]

    def __post_init__(self):
        _require_finite_prime(self.p)
        if not self.digits:
            raise ValueError("expansion needs at least one digit")
        if any(d < 0 or d >= self.p for d in self.digits):
            raise ValueError("digits out of range")
        if self.digits[0] == 0:
            if any(self.digits) or self.start_exponent != 0:
                raise ValueError("leading digit must be nonzero unless value is 0")

    def render(self) -> str:
        """Digit string "d_v d_{v+1} ... (base p), start=v" for reports."""
        body = " ".join(str(d) for d in self.digits)
        return f"{body} (base {self.p}), start={self.start_exponent}"


def expand(q, p: int, n_digits: int) -> PadicExpansion:
    """First ``n_digits`` base-p digits of q, starting at its valuation.

    Writes q = p^v * (r/s) with r, s prime to p, then reads digits off the
    residue r * s^(-1) modulo p^n_digits (one modular inverse, no division
    loop).
    """
    p = _require_finite_prime(p)
    if n_digits < 1:
        raise ValueError("precision must be at least 1")
    q = Fraction(q)
    if q == 0:
        return PadicExpansion(p, 0, (0,) * n_digits)
    v = valuation(q, p)
    unit = q / Fraction(p) ** v
    modulus = p**n_digits
    residue = unit.numerator * pow(unit.denominator, -1, modulus) % modulus
    digits = []
    for _ in range(n_digits):
        residue, d = divmod(residue, p)
        digits.append(d)
    return PadicExpansion(p, v, tuple(digits))


def ball_key_exact(q, p: int, radius_exponent: int) -> tuple:
    """Hashable label of the closed ball of radius p^(-radius_exponent) around q.

    Two rationals get the same key exactly when v_p(q1 - q2) >= radius_exponent.
    The key is (p, radius, v, residue): v = v_p(q) and the unit part's residue
    modulo p^(radius - v), or (p, radius, radius, 0) for the ball around 0.
    """
    p = _require_finite_prime(p)
    q = Fraction(q)
    if q == 0:
        return (p, radius_exponent, radius_exponent, 0)
    v = valuation(q, p)
    if v >= radius_exponent:
        return (p, radius_exponent, radius_exponent, 0)
    unit = q / Fraction(p) ** v
    modulus = p ** (radius_exponent - v)
    residue = unit.numerator * pow(unit.denominator, -1, modulus) % modulus
    return (p, radius_exponent, v, residue)
