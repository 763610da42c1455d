"""Finite-support step distributions on the affine group.

Exact rational weights throughout: drifts are stored as the exact mean
valuation per prime so sign tests (which prime contracts) never go through
floats, and entropy is the only place a float appears.  With weights e_i / L
the n-step law is integer counts over L^n.  A convolution table groups its
maps by reduced linear part (a_num, a_den); each group holds one denominator
D and, per translation b = x / D, the integer x and its count.  Convolving
two tables takes one gcd per pair of groups and integer arithmetic per cell,
with no AffineMap, Fraction or gcd per cell.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from typing import Mapping

from .errors import BudgetError, ConfigError
from .exact import (
    INFINITE_PLACE,
    Place,
    _require_count,
    _require_finite_prime,
    _Value,
    format_rational,
    height,
    log_norm,
    parse_rational,
    prime_factors,
)
from .group import AffineMap, format_affine, inverse
from .group import compose  # noqa: F401  (bench/ traces measure.compose by name)

__all__ = [
    "StepDistribution",
    "MeasureReport",
    "DriftProfile",
    "ConvolutionTable",
    "drift",
    "drift_profile",
    "contracting_set",
    "reflect",
    "power",
    "entropy",
    "parse_measure_config",
]

DEFAULT_CELL_BUDGET = 10**7

# precision (decimal digits) past which the infinite drift's sign is given up
_SIGN_DIGITS = 1024


class StepDistribution(_Value):
    """Probability measure with finitely many affine-map atoms.

    Its (AffineMap, Fraction) atoms are canonicalized (duplicates merged,
    sorted) at construction; weights must be positive rationals summing to exactly 1.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms):
        if isinstance(atoms, Mapping):
            atoms = atoms.items()
        merged: dict[AffineMap, Fraction] = {}
        for g, w in atoms:
            if not isinstance(g, AffineMap):
                g = AffineMap(*g)
            w = Fraction(w)
            if w <= 0:
                raise ConfigError(f"weight {w} of atom {format_affine(g)} not positive")
            merged[g] = merged.get(g, Fraction(0)) + w
        if not merged:
            raise ConfigError("a step distribution needs at least one atom")
        total = sum(merged.values())
        if total != 1:
            raise ConfigError(f"weights sum to {total}, expected exactly 1")
        canon = tuple(sorted(merged.items(), key=lambda kv: kv[0].sort_key()))
        object.__setattr__(self, "atoms", canon)

    @property
    def support(self) -> tuple[AffineMap, ...]:
        return tuple(g for g, _ in self.atoms)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for _, w in self.atoms)


class MeasureReport(
    namedtuple("MeasureReport", "degenerate reason fixed_point", defaults=(None, None))
):
    """Degeneracy verdict for a step distribution."""

    __slots__ = ()


def validate(mu: StepDistribution) -> MeasureReport:
    """Exact degeneracy test.

    The measure is degenerate when the walk it drives cannot spread: either
    every atom is a pure translation (a = 1), or every atom fixes one common
    rational point z (z = b/(1-a) for the atoms with a != 1, b = 0 for the
    rest).
    """
    if all(g.a == 1 for g in mu.support):
        return MeasureReport(True, "all atoms are translations (a = 1)")
    fixed: Fraction | None = None
    for g in mu.support:
        if g.a == 1:
            if g.b != 0:
                return MeasureReport(False)
            continue  # identity fixes everything
        z = g.b / (1 - g.a)
        if fixed is None:
            fixed = z
        elif z != fixed:
            return MeasureReport(False)
    return MeasureReport(True, f"every atom fixes z = {fixed}", fixed)


@lru_cache(maxsize=16)
def _slope_valuations(mu: StepDistribution) -> tuple:
    """(p, exact mean of v_p(a), each atom's v_p(a)) per prime p of some slope, by p.

    The one place a law's slopes are factored, cached per law.
    """
    factors = [(prime_factors(g.a.numerator), prime_factors(g.a.denominator)) for g in mu.support]
    table = []
    for p in sorted({p for num, den in factors for p in (*num, *den)}):
        vs = tuple(num.get(p, 0) - den.get(p, 0) for num, den in factors)
        table.append((p, sum(w * v for w, v in zip(mu.weights, vs)), vs))
    return tuple(table)


def drift(mu: StepDistribution, place: Place) -> float:
    """Mean of ln|a|_p: negative exactly on the contracting places."""
    if place == INFINITE_PLACE:
        return math.fsum(float(w) * log_norm(g.a, INFINITE_PLACE) for g, w in mu.atoms)
    p = _require_finite_prime(place)
    c = next((c for q, c, _ in _slope_valuations(mu) if q == p), 0)
    return -c * math.log(p)


class DriftProfile(
    namedtuple("DriftProfile", "finite_drifts infinite_drift vp_means infinite_sign")
):
    """All nonzero drifts of a step law, with their exact rational cores.

    ``vp_means`` maps each prime p dividing some atom's linear part to the
    exact mean of v_p(a); the drift there is -vp_means[p] * ln(p).  The
    infinite drift equals minus the sum of the finite ones; its sign is also
    available exactly via ``infinite_sign``.
    """

    __slots__ = ()

    def exact(self) -> dict[int, Fraction]:
        return dict(self.vp_means)

    def phi(self, place: Place) -> float:
        if place == INFINITE_PLACE:
            return self.infinite_drift
        return dict(self.finite_drifts).get(place, 0.0)

    def phi_plus(self, place: Place) -> float:
        return max(self.phi(place), 0.0)

    def phi_minus(self, place: Place) -> float:
        return max(-self.phi(place), 0.0)

    def contracting(self) -> set[Place]:
        out: set[Place] = {p for p, c in self.vp_means if c > 0}
        if self.infinite_sign < 0:
            out.add(INFINITE_PLACE)
        return out

    def nonzero_places(self) -> set[Place]:
        """Places with nonzero drift; all others have phi = 0 exactly."""
        out: set[Place] = {p for p, c in self.vp_means if c != 0}
        if self.infinite_sign != 0:
            out.add(INFINITE_PLACE)
        return out


def _infinite_sign(vp_means: tuple[tuple[int, Fraction], ...]) -> int:
    """Exact sign of the infinite drift sum_p vp_mean(p) * ln(p).

    Logs of primes are linearly independent over Q, so the drift is 0 exactly
    when every vp_mean is.  Otherwise a nonzero linear form in logarithms is
    bounded away from 0 (Baker 1966): the sum is evaluated in decimal at 32,
    64, ... digits until it clears its rounding-error bound, and a
    BudgetError is raised past ``_SIGN_DIGITS`` digits.
    """
    terms = [(c, p) for p, c in vp_means if c]
    if not terms:
        return 0
    digits = 32
    while digits <= _SIGN_DIGITS:
        with localcontext() as ctx:
            ctx.prec = digits
            parts = [Decimal(c.numerator) / c.denominator * Decimal(p).ln() for c, p in terms]
            total = sum(parts)
            # three roundings per part and one per addition, each at most
            # half a unit in the last digit; the slack is twice that bound
            slack = (len(parts) + 4) * sum(map(abs, parts)) * Decimal(10) ** (1 - digits)
        if abs(total) > slack:
            return 1 if total > 0 else -1
        digits *= 2
    raise BudgetError(
        f"sign of the infinite drift undecided at {_SIGN_DIGITS} digits",
        reached=_SIGN_DIGITS,
    )


def _drift_sum_bound(mu: StepDistribution) -> float:
    """Rounding bound for the drift-sum identity, relative to its terms.

    sum w * height(a) bounds the absolute terms of both the direct mean of
    ln|a| and the finite-drift sum, so the two may differ by rounding at that
    scale: an absolute bound fails laws with huge slopes.
    """
    return 1e-12 * math.fsum(float(w) * height(g.a) for g, w in mu.atoms)


def drift_profile(mu: StepDistribution) -> DriftProfile:
    """The law's drifts, rebuilt per call from its cached ``_slope_valuations``."""
    vp_means = tuple((p, c) for p, c, _ in _slope_valuations(mu))
    finite = tuple((p, -c * math.log(p)) for p, c in vp_means)
    infinite = -math.fsum(phi for _, phi in finite)
    return DriftProfile(finite, infinite, vp_means, _infinite_sign(vp_means))


def contracting_set(mu: StepDistribution) -> set[Place]:
    """Places where the walk's linear part contracts (drift < 0, exact test)."""
    return drift_profile(mu).contracting()


def q_approximant(profile: DriftProfile, n: int) -> Fraction:
    """The rational whose p-norm tracks e^(n*phi_p) at every finite prime.

    q_n = prod over p of p^(-floor(n * phi_p / ln p)), with the floor taken
    on the exact rational n * (-vp_mean), never on a float.
    """
    _require_count(n, "n")
    q = Fraction(1)
    for p, c in profile.vp_means:
        if c == 0:
            continue
        exponent = -math.floor(n * (-c))
        q *= Fraction(p) ** exponent
    return q


def reflect(mu: StepDistribution) -> StepDistribution:
    """Image of the measure under group inversion; drifts flip sign."""
    return StepDistribution((inverse(g), w) for g, w in mu.atoms)


class ConvolutionTable(namedtuple("ConvolutionTable", "groups total n")):
    """Exact law of the n-step product, as integer counts over ``total``.

    ``groups`` maps each reduced linear part (a_num, a_den) to (D, counts):
    one denominator D for the whole group, and ``counts`` maps the integer
    x = b * D of each map x -> a*x + b in the group to its count.  D fixes
    b = x / D one to one; it is a common denominator, not always the least.
    A map's probability is count / total.
    """

    __slots__ = ()

    def as_dict(self) -> dict[AffineMap, Fraction]:
        return {
            AffineMap(Fraction(an, ad), Fraction(x, den)): Fraction(c, self.total)
            for (an, ad), (den, counts) in self.groups.items()
            for x, c in counts.items()
        }

    @property
    def support_size(self) -> int:
        return sum(len(counts) for _, counts in self.groups.values())


def _step_table(mu: StepDistribution) -> ConvolutionTable:
    """The one-step law as counts over the lcm of the weight denominators."""
    total = math.lcm(*(w.denominator for w in mu.weights))
    by_a: dict[tuple[int, int], list[tuple[Fraction, int]]] = {}
    for g, w in mu.atoms:
        key = (g.a.numerator, g.a.denominator)
        by_a.setdefault(key, []).append((g.b, w.numerator * (total // w.denominator)))
    groups = {}
    for key, entries in by_a.items():
        den = math.lcm(*(b.denominator for b, _ in entries))
        groups[key] = (den, {b.numerator * (den // b.denominator): c for b, c in entries})
    return ConvolutionTable(groups, total, 1)


def convolve(
    t1: ConvolutionTable,
    t2: ConvolutionTable,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> ConvolutionTable:
    """Law of the product of independent draws from t1 then t2.

    The product g1 o g2 has a = a1*a2 and b = a1*b2 + b1.  Per pair of
    groups, a1*a2 is reduced by one gcd and b is exact over
    L = lcm(D1, a_den1 * D2); the pairs that land on one a share the lcm D of
    their L values.  A cell is then b * D = x1 * (D / D1) + y2 * a_num1 *
    (D / (a_den1 * D2)) with count c1*c2: integer arithmetic only.

    Each output group is a sum of terms, one per input group and step-table
    entry: keys x * m1 + shift, counts c1 * c2.  A term with m1 = 1 and
    shift = 0 keeps its keys, so the group starts as a copy of the largest
    such term (or of its first term, re-keyed, when none keeps its keys) and
    every other term adds in cell by cell.  No input dict is reused.
    """
    _require_count(cell_budget, "cell_budget", 1)
    cells = t1.support_size * t2.support_size
    if cells > cell_budget:
        raise BudgetError(
            f"convolution needs {cells} cells, budget is {cell_budget}",
            reached=cells,
        )
    gcd, lcm = math.gcd, math.lcm
    pairs: dict[tuple[int, int], list] = {}
    dens: dict[tuple[int, int], int] = {}
    for (an1, ad1), (d1, xs) in t1.groups.items():
        for (an2, ad2), (d2, ys) in t2.groups.items():
            an, ad = an1 * an2, ad1 * ad2
            g = gcd(an, ad)
            key = (an // g, ad // g)
            dens[key] = lcm(dens.get(key, 1), d1, ad1 * d2)
            pairs.setdefault(key, []).append((xs, d1, ys, an1, ad1 * d2))
    out = {}
    for key, den in dens.items():
        terms = []
        base = None
        for xs, d1, ys, an1, ad1_d2 in pairs[key]:
            m1 = den // d1
            m2 = an1 * (den // ad1_d2)
            for y, c2 in ys.items():
                term = (xs, m1, y * m2, c2)
                terms.append(term)
                if m1 == 1 and y == 0 and (base is None or len(xs) > len(base[0])):
                    base = term
        if base is None:
            base = terms[0]
        xs, m1, shift, c2 = base
        if m1 != 1 or shift:
            counts = {x * m1 + shift: c1 * c2 for x, c1 in xs.items()}
        elif c2 == 1:
            counts = dict(xs)
        else:
            counts = {x: c1 * c2 for x, c1 in xs.items()}
        get = counts.get
        for term in terms:
            if term is base:
                continue
            xs, m1, shift, c2 = term
            for x, c1 in xs.items():
                k = x * m1 + shift
                counts[k] = get(k, 0) + c1 * c2
        out[key] = (den, counts)
    return ConvolutionTable(out, t1.total * t2.total, t1.n + t2.n)


def power(
    mu: StepDistribution, n: int, cell_budget: int = DEFAULT_CELL_BUDGET
) -> ConvolutionTable:
    """Exact law of the n-step walk increment product."""
    _require_count(n, "n")
    _require_count(cell_budget, "cell_budget", 1)
    acc = ConvolutionTable({(1, 1): (1, {0: 1})}, 1, 0)
    step = _step_table(mu)
    for _ in range(n):
        acc = convolve(acc, step, cell_budget)
    return acc


def entropy(t: ConvolutionTable) -> float:
    """Shannon entropy -sum p ln p of the exact table, in nats.

    c / total is the correctly rounded float of the probability, as
    float(Fraction(c, total)) is.  Maps with equal counts share one term,
    repeated once per map; fsum is correctly rounded, so H_n depends on
    neither the order of its terms nor the table's form.
    """
    total = t.total
    multiplicity: Counter[int] = Counter()
    for _, counts in t.groups.values():
        multiplicity.update(counts.values())
    return -math.fsum(
        chain.from_iterable(
            repeat((c / total) * math.log(c / total), m)
            for c, m in multiplicity.items()
            if c != total
        )
    )


def parse_measure_config(block: Mapping) -> StepDistribution:
    """Build a measure from the config block {"atoms": [{a, b, w}, ...]}.

    Rationals are strings "num/den" (or bare integers); weights must sum to
    exactly 1.
    """
    try:
        entries = block["atoms"]
    except (KeyError, TypeError):
        raise ConfigError('measure block must contain an "atoms" list')
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ConfigError('"atoms" must be a non-empty list')
    pairs = []
    for i, entry in enumerate(entries):
        try:
            a = parse_rational(str(entry["a"]))
            b = parse_rational(str(entry["b"]))
            w = parse_rational(str(entry["w"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"atom {i}: {exc}")
        try:
            pairs.append((AffineMap(a, b), w))
        except ValueError as exc:
            raise ConfigError(f"atom {i}: {exc}")
    return StepDistribution(pairs)


def measure_config(mu: StepDistribution) -> dict:
    """Inverse of parse_measure_config, for embedding configs in reports."""
    return {
        "atoms": [
            {
                "a": format_rational(g.a),
                "b": format_rational(g.b),
                "w": format_rational(w),
            }
            for g, w in mu.atoms
        ]
    }
