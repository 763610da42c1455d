"""Seeded simulation of the affine random walk and boundary extraction.

A trajectory multiplies i.i.d. increments g_k = (a_k, b_k): the running
product is x_n = (A_n, Z_n) with A_n = a_1...a_n and Z_n = sum A_{k-1} b_k,
kept in integer form and read as exact rationals.  On a place with negative
drift the translation part converges, and the boundary is the product of
those places: one locked rational Z_N stands for the boundary point in every
contracting place at once.  One lock rule serves every caller: walk until
v_p(A_n) (or |A_n| on R) has been past its target for ``margin`` consecutive
steps, then probe by walking ``margin`` steps further and re-checking.  The
probe outcome is recorded, never silently trusted.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import BudgetError, DegenerateMeasureError, StabilizationError
from .exact import (
    INFINITE_PLACE,
    INFINITE_VALUATION,
    Place,
    _require_count,
    _require_finite_prime,
    format_place,
    log_norm,
    valuation,
)
from .measure import DriftProfile, StepDistribution, _slope_valuations, drift_profile, validate
from .padic import expand
from .prng import (
    LANES,
    cumulative_thresholds,
    lane_offsets,
    next_u64_lanes,
    pick_index,
    pick_lanes,
    replica_seed,
)

__all__ = [
    "Trajectory",
    "sample_path",
    "BoundaryDigits",
    "boundary_digits",
    "BoundarySample",
    "extract_boundary",
    "DivergenceReport",
    "divergence_statistic",
    "increment_valuation_rate",
]

DEFAULT_MARGIN = 32
DEFAULT_STEP_CAP = 200_000
DEFAULT_MAX_BITS = 1_000_000
_BLOCK_ENTRIES = 8_192  # m**block stays within it; a table holds below twice it
_SEARCH_CAP = 10_000  # steps increment_valuation_rate reads past n for a move


class Trajectory(namedtuple("Trajectory", "seed steps")):
    """A finite walk: the drawn increments g_1..g_n."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.steps)


class _Encoding:
    """Integer form of a step law's atoms, built once per law and process.

    ``offsets`` is the law's packed-pick rule (see ``lane_offsets``).
    ``primes`` are the primes dividing some atom's linear part.  ``steps[i]``
    is atom i's entry (see ``entry``), over the lcm ``scale`` of the b
    denominators.  ``min_vb[j]`` is the least v_p(b_i) over atoms with
    b_i != 0 for p = primes[j], None when every b is 0.

    ``blocks`` maps a word of atom indices (bytes or a tuple) to its entry:
    words of length ``block``, the shorter tails a flush ends on, and their
    halves, each built the first time it is met.  Every word has length 2 to
    ``block``, so an m-atom law's table holds at most the sum of m**r over
    those lengths r.  Each process fills its own table: a pickled encoding
    carries it empty.
    """

    def __init__(self, mu: StepDistribution):
        atoms = mu.support
        table = _slope_valuations(mu)
        self.thresholds = tuple(cumulative_thresholds(mu.weights))
        self.offsets = lane_offsets(self.thresholds)
        self.primes = tuple(p for p, _, _ in table)
        self.scale = scale = math.lcm(*(g.b.denominator for g in atoms))
        self.steps = tuple(
            (
                g.b.numerator * (scale // g.b.denominator), 1, g.a.numerator, g.a.denominator,
                tuple((j, vs[i], min(vs[i], 0)) for j, (_, _, vs) in enumerate(table)),
            )
            for i, g in enumerate(atoms)
        )
        self.min_vb = tuple(
            min((valuation(g.b, p) for g in atoms if g.b != 0), default=None)
            for p in self.primes
        )
        # the longest power-of-2 block, up to LANES, whose words fit the table;
        # past _BLOCK_ENTRIES atoms that is 1, and every word is one atom's entry
        self.block = LANES
        while self.block > 1 and len(atoms) ** self.block > _BLOCK_ENTRIES:
            self.block //= 2
        self.blocks = {}

    def __getstate__(self):
        return {**self.__dict__, "blocks": {}}

    def entry(self, word: Sequence[int]) -> tuple:
        """(C, G, num, den, moves) of the word's composite step g = (a, b).

        a = num / den and b * scale = C / G, both reduced; moves holds
        (j, change of v_p, least v_p over the word's prefixes, never above 0)
        for each p = primes[j].  Built from the entries of the word's halves.
        """
        if len(word) == 1:
            return self.steps[word[0]]
        entry = self.blocks.get(word)
        if entry is None:
            half = len(word) // 2
            c1, g1, num1, den1, moves1 = self.entry(word[:half])
            c2, g2, num2, den2, moves2 = self.entry(word[half:])
            # (a1, b1) then (a2, b2) is (a1 a2, b1 + a1 b2)
            num, den = num1 * num2, den1 * den2
            r = math.gcd(num, den)
            c, g = c1 * den1 * g2 + num1 * c2 * g1, g1 * den1 * g2
            t = math.gcd(c, g)
            moves = tuple(
                (j, v1 + v2, min(low1, v1 + low2))
                for (j, v1, low1), (_, v2, low2) in zip(moves1, moves2)
            )
            entry = (c // t, g // t, num // r, den // r, moves)
            self.blocks[word] = entry
        return entry


# the walks of one law in a process share one encoding and one warm block table
_encode = lru_cache(maxsize=16)(_Encoding)


class _Walker:
    """Walk state in integers, with exact (A, Z) on read and a bit-size guard.

    ``primes``, ``scale`` and the entries are those of the encoding ``_enc``.
    A_n = +-prod primes[j]**exponents[j].  With ``_floor[j]`` the lowest
    exponent so far (never above 0) and D = prod primes[j]**-_floor[j], the
    state keeps the integers N = Z_n * scale * D and D, and the slope integer
    P = A_n * D (which carries the sign); ``state`` reads (P, N, D).

    ``step`` only reads the next atom of the current ``LANES``-draw batch and
    counts it; ``advance(m)`` counts m steps in one call.  Both cross each
    multiple of ``LANES`` through ``_next_batch``: the flush, the bit guard
    and the next batch.  ``_flush`` applies the steps drawn since the last
    flush as words of ``block`` steps, and the shorter tail as one word, by
    one composite entry each (see ``_Encoding``).  The flush carries P's
    pending factor as two small integers, mul / div.  An entry first scales
    N, D and mul by p**s for each prime p whose least prefix exponent falls
    s below the floor, then adds the translation N += P * mul * C / (div * G)
    (one exact division) when C != 0, then folds a = num / den into mul and
    div.  The flush ends by bringing P up to date: one multiplication by
    mul, one exact division by div.  Reads of ``a``, ``z``, ``state`` and
    ``exponents`` flush first.  So after every flush P, N, D and the
    exponents are those of stepping one atom at a time, and no step takes a
    gcd.

    ``lock``, ``probe``, ``step`` and ``advance`` reach the state only through
    ``_flush``, ``_check_bits``, ``state``, ``exponents`` and ``a``.
    """

    __slots__ = (
        "count", "_enc", "_batches", "_atoms", "_done", "_exponents", "_floor", "_p", "_n", "_d",
    )

    def __init__(self, enc: _Encoding, seed: int):
        self.count = 0
        self._enc = enc
        self._batches = _atom_batches(enc.thresholds, enc.offsets, seed)
        self._atoms = next(self._batches)
        self._done = 0  # steps applied to the state
        self._exponents = [0] * len(enc.primes)  # v_p(A_n), in the order of primes
        self._floor = [0] * len(enc.primes)
        self._p = 1
        self._n = 0
        self._d = 1

    def step(self) -> int:
        """Draw one atom and return its index."""
        count = self.count
        i = self._atoms[count % 32]  # 32 = LANES
        self.count = count = count + 1
        if not count % 32:
            self._next_batch()
        return i

    def advance(self, m: int) -> None:
        """Take m steps at once: the state ``step`` called m times leaves."""
        count, target = self.count, self.count + m
        while True:
            edge = count - count % LANES + LANES
            if edge > target:
                self.count = target
                return
            self.count = count = edge
            self._next_batch()

    def _next_batch(self) -> None:
        """At a batch edge: apply the batch, run the bit guard, draw the next batch."""
        self._flush()
        self._check_bits()
        self._atoms = next(self._batches)

    def _flush(self) -> None:
        """Apply the steps drawn since the last flush; see the class docstring."""
        done, count = self._done, self.count
        if done == count:
            return
        self._done = count
        start = done % LANES
        drawn = self._atoms[start:start + count - done]
        enc = self._enc
        blocks, k = enc.blocks, enc.block
        primes, exponents, floor = enc.primes, self._exponents, self._floor
        p, n, d = self._p, self._n, self._d
        mul = div = 1
        for at in range(0, len(drawn), k):
            word = drawn[at:at + k]
            c, g, num, den, moves = blocks.get(word) or enc.entry(word)
            for j, v, low in moves:
                e = exponents[j]
                if e + low < floor[j]:
                    s = primes[j] ** (floor[j] - e - low)
                    n *= s
                    d *= s
                    mul *= s
                    floor[j] = e + low
                exponents[j] = e + v
            # x * g: Z picks up A b, which is P * C / G in N's units
            if c:
                n += p * (mul * c) // (div * g)
            mul *= num
            div *= den
        if mul != 1:
            p *= mul
        if div != 1:
            p //= div
        self._p, self._n, self._d = p, n, d

    def _check_bits(self) -> None:
        """Raise BudgetError when the reduced a and z exceed ``DEFAULT_MAX_BITS``.

        The guard is the module constant as it reads at the call.  The
        unreduced integers bound the reduced sizes from above, so the exact
        count (one gcd) is taken only when that bound exceeds the guard.  It
        runs right after a flush, which leaves P up to date.
        """
        guard = DEFAULT_MAX_BITS
        d_bits = self._d.bit_length()
        bound = (
            self._p.bit_length() + self._n.bit_length()
            + 2 * d_bits + self._enc.scale.bit_length()
        )
        if bound <= guard:
            return
        a, z = self.a, self.z
        bits = (
            a.numerator.bit_length()
            + a.denominator.bit_length()
            + z.numerator.bit_length()
            + z.denominator.bit_length()
        )
        if bits > guard:
            raise BudgetError(
                f"walk state reached {bits} bits at step {self.count}, guard is {guard}",
                reached=bits,
            )

    @property
    def state(self) -> tuple[int, int, int]:
        """(P, N, D): A_n = P / D and Z_n = N / (scale * D)."""
        self._flush()
        return self._p, self._n, self._d

    @property
    def exponents(self) -> list[int]:
        """v_p(A_n), in the order of primes."""
        self._flush()
        return list(self._exponents)

    @property
    def a(self) -> Fraction:
        self._flush()
        return Fraction(self._p, self._d)

    @property
    def z(self) -> Fraction:
        self._flush()
        return Fraction(self._n, self._enc.scale * self._d)

    def lock(
        self,
        targets: Mapping[int, int],
        margin: int,
        step_cap: int,
        real: Optional[tuple[float, Sequence[float]]] = None,
    ) -> None:
        """Step until every place has held its lock for ``margin`` consecutive steps.

        A prime p with target t holds while v_p(A_n) >= t - min v_p(b), which
        keeps every later increment A_n b in p^t Z_p; it always holds when
        every b is 0.  ``real`` is (need, ln|a_i| per atom): R holds while
        ln|A_n| <= need.  One joint counter stands for one counter per place:
        each place has held for the last ``margin`` steps exactly when all
        places held on each of them.  Raises StabilizationError once ``count``
        reaches ``step_cap``.

        The lock reads the atoms drawn but not yet taken, up to the end of the
        batch or to ``step_cap``, one step at a time, and keeps its own v_p(A_n)
        (and ln|A_n|) from each atom's moves; it then takes the steps read in
        one ``advance``.
        """
        enc = self._enc
        exponents = self.exponents
        moves = [entry[4] for entry in enc.steps]
        slots = []
        for p, t in targets.items():
            # a contracting prime divides some atom's linear part, so it has a slot
            j = enc.primes.index(p)
            if enc.min_vb[j] is not None:
                slots.append((j, t - enc.min_vb[j]))
        if real is not None:
            real_need, log_abs = real
            la = log_norm(self.a, INFINITE_PLACE)
        held = 0
        while held < margin:
            count = self.count
            if count >= step_cap:
                raise StabilizationError(f"no lock within {step_cap} steps", steps=step_cap)
            taken = 0
            start = count % LANES
            for i in self._atoms[start:start + step_cap - count]:
                taken += 1
                held += 1
                for j, v, _ in moves[i]:
                    exponents[j] += v
                for j, need in slots:
                    if exponents[j] < need:
                        held = 0
                if real is not None:
                    la += log_abs[i]
                    if la > real_need:
                        held = 0
                if held == margin:
                    break
            self.advance(taken)

    def probe(
        self, margin: int, targets: Mapping[int, int], real_bound: Optional[float] = None
    ) -> tuple[Fraction, list[tuple[Place, bool]]]:
        """Z now, and whether Z after ``margin`` more steps agrees with it per place.

        The agreement list holds, for each prime p with target t in increasing
        p, whether both values lie in the same ball of radius p^-t.  It is read
        from the state's integers: with Z = N / (scale D) now (N0, D0) and
        after (N1, D1), the difference is (N1 D0 - N0 D1) / (scale D0 D1), and
        the balls agree when its v_p is at least t (v_p(0) is inf).  With
        ``real_bound`` the list ends with R, which agrees while
        ln|Z after - Z now| is at most that bound.  The walker is left at Z
        after.
        """
        scale = self._enc.scale
        _, n0, d0 = self.state
        step = self.step
        for _ in range(margin):
            step()
        _, n1, d1 = self.state
        diff, den = n1 * d0 - n0 * d1, scale * d0 * d1
        agreed = [
            (p, valuation(diff, p) - valuation(den, p) >= t) for p, t in sorted(targets.items())
        ]
        if real_bound is not None:
            close = not diff or log_norm(Fraction(diff, den), INFINITE_PLACE) <= real_bound
            agreed.append((INFINITE_PLACE, close))
        return Fraction(n0, scale * d0), agreed


def sample_path(mu: StepDistribution, n: int, seed: int) -> Trajectory:
    """Deterministic n-step trajectory for a non-degenerate step law."""
    report = validate(mu)
    if report.degenerate:
        raise DegenerateMeasureError(report.reason or "degenerate step law")
    _require_count(n, "length")
    step = _Walker(_encode(mu), seed).step
    return Trajectory(seed, tuple(mu.support[step()] for _ in range(n)))


def _places(places: Iterable[Place], profile: Optional[DriftProfile] = None) -> tuple[Place, ...]:
    """Each place once, in order, after checking that every finite one is a prime.

    Given the law's drift profile, a place that does not contract is refused too.
    """
    places = tuple(dict.fromkeys(places))
    for p in places:
        if p != INFINITE_PLACE:
            _require_finite_prime(p)
        if profile is not None and p not in profile.contracting():
            raise ValueError(f"place {format_place(p)} does not contract (drift >= 0)")
    return places


class BoundarySample(
    namedtuple(
        "BoundarySample",
        "value probe_value real_interval stabilization_index probes steps_total",
    )
):
    """Stabilized boundary coordinate extracted from one trajectory.

    ``value`` is the exact Z at the stabilization index; the one rational
    approximates the limit coordinate in every locked place at once, and
    ``probe_value`` is Z after ``margin`` more steps.  ``real_interval``
    encloses the real limit when R was locked.  ``probes`` records, per
    place, whether extending the walk left the locked resolution unchanged.
    """

    __slots__ = ()

    @property
    def probe_agreed(self) -> bool:
        return all(ok for _, ok in self.probes)


def extract_boundary(
    mu: StepDistribution,
    seed: int,
    finite_targets: Mapping[int, int] | None = None,
    real_tol: float | None = None,
    margin: int = DEFAULT_MARGIN,
    step_cap: int = DEFAULT_STEP_CAP,
) -> BoundarySample:
    """Run one walk until every requested place's coordinate looks locked.

    For a finite prime p with target exponent t, the lock criterion is
    v_p(A_n) >= t - min_b v_p(b) holding for ``margin`` consecutive steps,
    which keeps every further increment A_n b divisible by p^t.  For the
    infinite place the criterion is |A_n| * max|b| <= tol * safety with the
    geometric-series headroom safety = (1 - e^drift)/2.  The guarantee is
    probabilistic: after locking, the walk is extended by ``margin`` steps
    and each place's resolution re-checked; outcomes land in ``probes``.
    With ``real_tol`` the sample's ``real_interval`` encloses the real limit
    within tol (plus float slack).  The prefix of the same walk is
    ``sample_path(mu, n, seed)``.  The walk stops at ``step_cap`` steps
    (StabilizationError) or past ``DEFAULT_MAX_BITS`` bits (BudgetError).
    """
    _require_count(margin, "margin", 1)
    _require_count(step_cap, "step cap", 1)
    finite_targets = {
        _require_finite_prime(p): _require_count(t, "target exponent", None)
        for p, t in (finite_targets or {}).items()
    }
    if not finite_targets and real_tol is None:
        raise ValueError("no place to lock")
    profile = drift_profile(mu)
    _places([*finite_targets, *([INFINITE_PLACE] if real_tol is not None else [])], profile)
    real = real_bound = None
    if real_tol is not None:
        if not 0 < real_tol < math.inf:
            raise ValueError("tolerance must be finite and positive")
        safety = (1.0 - math.exp(profile.infinite_drift)) / 2.0
        max_b = max(abs(float(g.b)) for g in mu.support)
        # with every b = 0, Z stays 0 and R is always locked
        need = math.log(real_tol * safety) - math.log(max_b) if max_b else math.inf
        real = (need, [log_norm(g.a, INFINITE_PLACE) for g in mu.support])
        real_bound = math.log(real_tol / 2)

    walker = _Walker(_encode(mu), seed)
    walker.lock(finite_targets, margin, step_cap, real)
    lock_index = walker.count
    rep, probes = walker.probe(margin, finite_targets, real_bound)
    real_interval = None
    if real_tol is not None:
        center = float(rep)
        half = real_tol / 2.0
        real_interval = (
            math.nextafter(center - half, -math.inf),
            math.nextafter(center + half, math.inf),
        )
    return BoundarySample(
        value=rep,
        probe_value=walker.z,
        real_interval=real_interval,
        stabilization_index=lock_index,
        probes=tuple(probes),
        steps_total=walker.count,
    )


class BoundaryDigits(
    namedtuple(
        "BoundaryDigits",
        "expansion probe_expansion value stabilization_index probe_agreed steps_total",
    )
):
    """Digits of the limiting translation coordinate in one Q_p."""

    __slots__ = ()


def boundary_digits(
    mu: StepDistribution,
    p: int,
    n_digits: int,
    seed: int,
    margin: int = DEFAULT_MARGIN,
    step_cap: int = DEFAULT_STEP_CAP,
) -> BoundaryDigits:
    """Walk until the first n_digits of Z_n in Q_p look stable, then expand.

    Requires drift < 0 at p (exact sign test).  The digits of Z sit at
    exponents v .. v + n_digits - 1, v = v_p(Z), so the lock (see
    ``extract_boundary``) targets max(n_digits + 1, v + n_digits): first
    n_digits + 1, then, on the same seed, v + n_digits while the locked value
    is nonzero and its v needs more.  The continuation probe extends by
    another ``margin`` steps and re-expands; agreement is recorded in
    ``probe_agreed``.
    """
    _require_count(n_digits, "precision", 1)
    target = n_digits + 1
    sample = extract_boundary(mu, seed, {p: target}, margin=margin, step_cap=step_cap)
    while sample.value and (need := valuation(sample.value, p) + n_digits) > target:
        target = need
        sample = extract_boundary(mu, seed, {p: target}, margin=margin, step_cap=step_cap)
    locked = expand(sample.value, p, n_digits)
    probe = expand(sample.probe_value, p, n_digits)
    return BoundaryDigits(
        expansion=locked,
        probe_expansion=probe,
        value=sample.value,
        stabilization_index=sample.stabilization_index,
        probe_agreed=(probe == locked),
        steps_total=sample.steps_total,
    )


def _atom_batches(
    thresholds: Sequence[int], offsets: Optional[Sequence[int]], seed: int
) -> Iterator[Sequence[int]]:
    """Atom indices of one seed's stream, ``LANES`` draws at a time.

    Draw k is ``pick_index`` of output k of ``SplitMix64(seed)``.  With the
    law's ``lane_offsets`` it picks every lane in one packed compare
    (``pick_lanes``, yielding bytes); a law above ``PACKED_ATOMS`` atoms has
    none and picks lane by lane (yielding tuples).
    """
    state = seed
    if offsets is not None:
        while True:
            state, atoms = pick_lanes(state, offsets)
            yield atoms
    while True:
        state, lanes = next_u64_lanes(state)
        yield tuple([pick_index(u, thresholds) for u in lanes])


def _increment_valuations(mu: StepDistribution, place: Place, seed: int) -> Iterator:
    """v(A_{k-1} b_k) for k = 1, 2, ... along one seed's walk.

    v is v_p at a finite prime and ln|.| on R, with v(0) = v_p(0) = inf and
    ln 0 = -inf, so a step with b_k = 0 yields inf at a prime and -inf on R.
    Step k's v(b) is read before its v(a) joins the running v(A).  The atoms
    are drawn through the law's cached encoding, so they are the atoms every
    other walk of the seed draws.
    """

    def v(q: Fraction):
        if place != INFINITE_PLACE:
            return valuation(q, place)
        return log_norm(q, place) if q else -math.inf

    va, vb = [v(g.a) for g in mu.support], [v(g.b) for g in mu.support]
    enc = _encode(mu)
    running = 0  # v(A_{k-1})
    for j in chain.from_iterable(_atom_batches(enc.thresholds, enc.offsets, seed)):
        yield running + vb[j]
        running += va[j]


class DivergenceReport(namedtuple("DivergenceReport", "place n samples mean values")):
    """Monte Carlo mean of the running-maximum statistic on one place."""

    __slots__ = ()


def divergence_statistic(
    mu: StepDistribution,
    place: Place,
    n: int,
    samples: int,
    seed: int,
) -> DivergenceReport:
    """Mean over seeds of max_k ln+ |A_{k-1} b_k|_p divided by n.

    Only defined on places with drift >= 0 (exact test); there the statistic
    approaches the positive part of the drift, witnessing that |Z_n|_p does
    not stay bounded.  Contracting places are rejected.
    """
    _require_count(n, "length", 1)
    _require_count(samples, "sample count", 1)
    if place in drift_profile(mu).contracting():
        raise ValueError(f"place {format_place(place)} contracts; statistic undefined")
    # ln|A_{k-1} b_k|_p = (v(A_{k-1}) + v(b_k)) * scale
    scale = 1.0 if place == INFINITE_PLACE else -math.log(place)
    values = []
    for i in range(samples):
        stream = islice(_increment_valuations(mu, place, replica_seed(seed, i)), n)
        values.append(max(0.0, max(v * scale for v in stream)) / n)
    return DivergenceReport(
        place=place,
        n=n,
        samples=samples,
        mean=math.fsum(values) / samples,
        values=tuple(values),
    )


def increment_valuation_rate(mu: StepDistribution, p: int, n: int, seed: int) -> float:
    """v_p of the first nonzero increment of Z at or after step n, over n.

    The increment Z_{m+1} - Z_m equals A_m b_{m+1}; atoms with b = 0 leave
    Z unchanged, so the statistic reads the first step m >= n that moves.
    On contracting primes this approaches -drift/1 (positive), mirroring the
    geometric decay of the tail.  Returned in nats: v_p * ln(p) / n.  Raises
    StabilizationError when none of the ``_SEARCH_CAP`` steps after n moves.
    """
    _require_count(n, "length", 1)
    if p == INFINITE_PLACE:
        raise ValueError("the increment valuation needs a finite prime")
    if all(g.b == 0 for g in mu.support):
        raise ValueError("no translation atoms: Z never moves")
    for v in islice(_increment_valuations(mu, p, seed), n, n + _SEARCH_CAP):
        if v != INFINITE_VALUATION:
            return v * math.log(p) / n
    raise StabilizationError(
        f"no nonzero increment within {_SEARCH_CAP} steps after {n}", steps=_SEARCH_CAP
    )
