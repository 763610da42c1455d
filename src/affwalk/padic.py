"""Truncated p-adic digit expansions of rationals and ball bucketing.

An expansion stores the valuation (start exponent) and N base-p digits of the
unit part, so the represented value is known modulo p^(start+N).  Both the
expansion and the ball key work on the integers of the canonical fraction
r/s: v = v_p(r) or -v_p(s), one exact floor division strips p^|v| from r or s,
and the unit's residue is r * s^(-1) modulo a power of p.  Expansions are
read-only views used for boundary points and for histogramming empirical
measures on Q_p.
"""

from __future__ import annotations

from .exact import _require_count, _require_finite_prime, _terms, _terms_valuation, _Value

__all__ = ["PadicExpansion"]


class PadicExpansion(_Value):
    """Digits of a rational in Q_p, known modulo p^(start_exponent + N).

    The leading digit is nonzero except for the zero value, which is stored as
    all-zero digits with start_exponent 0.
    """

    __slots__ = ("p", "start_exponent", "digits")

    def __init__(self, p: int, start_exponent: int, digits: tuple[int, ...]):
        _require_finite_prime(p)
        if not digits:
            raise ValueError("expansion needs at least one digit")
        if any(d < 0 or d >= p for d in digits):
            raise ValueError("digits out of range")
        if digits[0] == 0:
            if any(digits) or start_exponent != 0:
                raise ValueError("leading digit must be nonzero unless value is 0")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "start_exponent", start_exponent)
        object.__setattr__(self, "digits", digits)

    def render(self) -> str:
        """Digit string "d_v d_{v+1} ... (base p), start=v" for reports."""
        body = " ".join(str(d) for d in self.digits)
        return f"{body} (base {self.p}), start={self.start_exponent}"


def _unit_residue(num: int, den: int, p: int, v: int, k: int) -> int:
    """The unit part of num/den = p^v * unit, modulo p^k.

    num/den is canonical and v = v_p(num/den); p^|v| divides num (v > 0) or
    den (v < 0) exactly, and the unit is read off as num * den^(-1).
    """
    if v > 0:
        num //= p**v
    elif v < 0:
        den //= p**-v
    modulus = p**k
    return num * pow(den, -1, modulus) % modulus


def expand(q, p: int, n_digits: int) -> PadicExpansion:
    """First ``n_digits`` base-p digits of q, starting at its valuation.

    Writes q = p^v * (r/s) with r, s prime to p, then reads digits off the
    residue r * s^(-1) modulo p^n_digits (one modular inverse, no division
    loop).
    """
    p = _require_finite_prime(p)
    _require_count(n_digits, "precision", 1)
    num, den = _terms(q)
    if num == 0:
        return PadicExpansion(p, 0, (0,) * n_digits)
    v = _terms_valuation(num, den, p)
    residue = _unit_residue(num, den, p, v, n_digits)
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
    _require_count(radius_exponent, "radius_exponent", None)
    num, den = _terms(q)
    if num:
        v = _terms_valuation(num, den, p)
        if v < radius_exponent:
            residue = _unit_residue(num, den, p, v, radius_exponent - v)
            return (p, radius_exponent, v, residue)
    return (p, radius_exponent, radius_exponent, 0)
