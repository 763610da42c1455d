"""Exact rational arithmetic over the places of Q.

A "place" is either a finite prime p (with the p-adic norm |q|_p = p^(-v_p(q)))
or the infinite place carrying the usual absolute value.  Everything here works
on exact rationals, read as the numerator and denominator of their canonical
`fractions.Fraction` form; only the logarithmic norms and heights are returned
as 64-bit floats, with the underlying integer valuations exposed exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import BudgetError

__all__ = [
    "INFINITE_PLACE",
    "valuation",
    "log_norm",
    "log_norm_plus",
    "height",
    "height_plus",
]

#: The archimedean place, used as a dictionary key alongside finite primes.
INFINITE_PLACE = math.inf

#: Sentinel returned by ``valuation`` at 0 (|0|_p = 0 for every p).
INFINITE_VALUATION = math.inf

Place = Union[int, float]
RationalLike = Union[Fraction, int]


class _Value:
    """Base of the read-only value classes, which name their fields in ``__slots__``.

    A value equals only a value of its own class with equal fields, hashes as
    its field tuple, and is set up in ``__init__`` by ``object.__setattr__``.
    """

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = zip(self.__slots__, self.__reduce__()[1])
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in fields)})"


# Deterministic Miller-Rabin witness set: the primes up to 41, which certify
# every n below psi_13 = 3317044064679887385961981, the least strong
# pseudoprime to all of them (Sorenson and Webster 2017).  Without 41 the bound
# is psi_12 = 318665857834031151167461, which the shorter set calls prime.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981

# Steps of x -> x^2 + c that one _rho_factor call may take over all its
# retries: about 0.7 s on a 128-bit n (2-CPU Xeon, Python 3.11), twice what
# psi_12 needs.
_RHO_STEPS = 1 << 20

# Divided out of prime_factors' input before any cofactor is tested or split.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set).

    Exact below ``_MR_BOUND``.  At or above it a witness may still prove n
    composite; an n that passes every witness raises ``BudgetError``, since
    the set cannot certify it prime.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise BudgetError(f"cannot certify that a {n.bit_length()}-bit integer is prime")
    return True


def _require_finite_prime(p: Place) -> int:
    if p == INFINITE_PLACE:
        raise ValueError("expected a finite prime, got the infinite place")
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"not a prime: {p!r}")
    return p


def _int_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer n."""
    n = abs(n)
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while True:
        q, r = divmod(n, p)
        if r:
            return v
        n = q
        v += 1


def _terms(q) -> tuple[int, int]:
    """(numerator, denominator) of q's canonical fraction.

    An exact ``int`` or ``Fraction`` is read directly; anything else (bool,
    int subclasses, floats, strings, other rationals) goes through
    ``Fraction(q)``, so every input is accepted or rejected as ``Fraction``
    would.
    """
    kind = type(q)
    if kind is int:
        return q, 1
    if kind is not Fraction:
        q = Fraction(q)
    return q.numerator, q.denominator


def _terms_valuation(num: int, den: int, p: int) -> int:
    """v_p(num/den) for coprime num != 0 and den > 0: v_p(num) - v_p(den)."""
    # coprime, so at most one of num/den is divisible by p
    return _int_valuation(num, p) or -_int_valuation(den, p)


def valuation(q: RationalLike, p: int) -> int | float:
    """p-adic valuation of a rational, v_p(r/s) = v_p(r) - v_p(s).

    Returns the ``INFINITE_VALUATION`` sentinel at q = 0.
    """
    p = _require_finite_prime(p)
    num, den = _terms(q)
    if num == 0:
        return INFINITE_VALUATION
    return _terms_valuation(num, den, p)


def log_norm(q: RationalLike, place: Place) -> float:
    """ln|q|_p: -v_p(q)*ln(p) at a finite prime, ln|q| at the infinite place.

    Rejects q = 0, where the logarithm is undefined.
    """
    num, den = _terms(q)
    if num == 0:
        raise ValueError("log_norm undefined at 0")
    if place == INFINITE_PLACE:
        return math.log(abs(num)) - math.log(den)
    p = _require_finite_prime(place)
    return -_terms_valuation(num, den, p) * math.log(p)


def log_norm_plus(q: RationalLike, place: Place) -> float:
    """ln+|q|_p = max(ln|q|_p, 0), extended by 0 at q = 0."""
    num, den = _terms(q)
    if num == 0:
        return 0.0
    if place == INFINITE_PLACE:
        num = abs(num)
        return math.log(num) - math.log(den) if num > den else 0.0
    p = _require_finite_prime(place)
    v = _terms_valuation(num, den, p)
    return -v * math.log(p) if v < 0 else 0.0


def height(q: RationalLike) -> float:
    """Sum over all places of |ln|q|_p|, via the closed form ln|r| + ln(s).

    Computed from the canonical fraction r/s, never by factoring.  Rejects 0.
    """
    num, den = _terms(q)
    if num == 0:
        raise ValueError("height undefined at 0")
    return math.log(abs(num)) + math.log(den)


def height_plus(q: RationalLike) -> float:
    """Sum over all places of ln+|q|_p, via the closed form ln(max(|r|, s)).

    Defined everywhere; 0 at q = 0.
    """
    num, den = _terms(q)
    if num == 0:
        return 0.0
    return math.log(max(abs(num), den))


def _rho_factor(n: int) -> int:
    """A nontrivial factor of an odd composite n.

    Brent's variant of Pollard's rho (Brent 1980, "An improved Monte Carlo
    factorization algorithm", BIT 20): iterate x -> x^2 + c mod n, batching
    the gcd over 128 differences, and retry with the next c when the cycle
    closes on n itself.  Deterministic: c runs 1, 2, 3, ...  Raises
    ``BudgetError`` before the steps of all tries could pass ``_RHO_STEPS``.
    """
    batch = 128
    c = 0
    spent = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            spent += 2 * r  # the most this round can take: r to advance, r in batches
            if spent > _RHO_STEPS:
                raise BudgetError(
                    f"no factor of a {n.bit_length()}-bit integer within {_RHO_STEPS} rho steps",
                    reached=spent,
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: redo it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_factors(n: int) -> dict[int, int]:
    """Factor a nonzero integer into {prime: exponent}, in increasing order.

    Small primes go by trial division; every cofactor left is either prime
    (Miller-Rabin) or split by Pollard-Brent rho until all parts are prime.
    Raises ``BudgetError`` on a cofactor that ``is_prime`` cannot certify or
    that rho cannot split within its step budget.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if n % p == 0:
            v = _int_valuation(n, p)
            out[p] = v
            n //= p**v
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _rho_factor(m)
        todo += [d, m // d]
    return dict(sorted(out.items()))


def support_primes(q: RationalLike) -> set[int]:
    """Finite primes dividing the numerator or denominator of q (q != 0)."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 has no prime support")
    return set(prime_factors(q.numerator)) | set(prime_factors(q.denominator))


def format_rational(q: RationalLike) -> str:
    """Canonical text form "num/den" with den > 0 and gcd 1 (zero is "0/1")."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or a bare integer "num"."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d <= 0:
            raise ValueError(f"denominator must be positive in {text!r}")
        return Fraction(int(num), d)
    return Fraction(int(text))


def format_place(place: Place) -> str:
    """Render a place as text: "2", "3", ... or "inf"."""
    return "inf" if place == INFINITE_PLACE else str(place)


def parse_place(text: str) -> Place:
    """Parse "inf" or a finite prime."""
    text = text.strip().lower()
    if text in ("inf", "infinity", "oo"):
        return INFINITE_PLACE
    return _require_finite_prime(int(text))
