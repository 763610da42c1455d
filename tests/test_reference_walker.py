"""Every walk suite against a walker that keeps (A_n, Z_n) as Fractions.

``_FractionWalker`` replaces the integer state layer of ``walk._Walker``
(``_flush``, ``_check_bits``, ``state``, ``exponents``, ``a`` and ``z``)
and keeps the rest: the draws, the batch edges, ``lock`` and ``probe``.
It applies the law's atoms one at a time in plain Fraction arithmetic, not
the encoding's integer entries, so any suite run on it must print the
engine's bytes.  It shares the draws with the engine, so it cannot see a
wrong pick probability; ``TestTwoEngines`` in ``test_walk.py`` does.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affwalk import INFINITE_PLACE, AffineMap, BudgetError, StepDistribution, experiments, walk
from affwalk.errors import AffwalkError
from affwalk.exact import valuation
from affwalk.experiments import (
    render_csv,
    run_boundary,
    run_lln41,
    run_lln43,
    run_prop44,
    run_stationarity,
    run_walk,
)
from affwalk.measure import drift_profile
from affwalk.prng import LANES

F = Fraction


def _fraction_walker(mu: StepDistribution) -> type:
    """A ``walk._Walker`` whose state is (A_n, Z_n) in Fractions, for the law ``mu``."""
    support = mu.support

    class _FractionWalker(walk._Walker):
        _A, _Z = F(1), F(0)

        def _flush(self):
            start = self._done % LANES
            for i in self._atoms[start:start + self.count - self._done]:
                self._Z += self._A * support[i].b
                self._A *= support[i].a
            self._done = self.count

        def _check_bits(self):
            guard = walk.DEFAULT_MAX_BITS
            terms = (*self._A.as_integer_ratio(), *self._Z.as_integer_ratio())
            bits = sum(x.bit_length() for x in terms)
            if bits > guard:
                raise BudgetError(
                    f"walk state reached {bits} bits at step {self.count}, guard is {guard}",
                    reached=bits,
                )

        @property
        def state(self):
            # (P, N, D) with A = P / D and Z = N / (scale D), as the engine reads it
            a, z = self.a, self.z
            return (
                a.numerator * z.denominator,
                z.numerator * a.denominator * self._enc.scale,
                a.denominator * z.denominator,
            )

        @property
        def exponents(self):
            return [valuation(self.a, p) for p in self._enc.primes]

        @property
        def a(self):
            self._flush()
            return self._A

        @property
        def z(self):
            self._flush()
            return self._Z

    return _FractionWalker


def _outcome(run):
    """The report's CSV bytes, or the type and message of what it raised."""
    try:
        return render_csv(run())
    except (AffwalkError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _suites(mu: StepDistribution, seed: int) -> dict:
    """A small run of every suite that walks, at places where ``mu`` contracts."""
    profile = drift_profile(mu)
    # a place that contracts by at least 0.1 per step locks within a few dozen steps
    places = sorted(
        (p for p in profile.contracting() if profile.phi(p) <= -0.1),
        key=lambda p: (p == INFINITE_PLACE, p),
    )
    primes = [p for p, _ in profile.vp_means]
    grid = {"n_grid": [4, 9], "samples": 3, "seed": seed}
    suites = {
        "walk": lambda: run_walk(mu, 40, seed, primes),
        "lln41": lambda: run_lln41(mu, **grid),
        "lln43": lambda: run_lln43(mu, [*primes[:1], INFINITE_PLACE], **grid),
    }
    for place in places:
        suites[f"prop44 at {place}"] = lambda place=place: run_prop44(
            mu, [place], stab_factor=2, margin=8, **grid
        )
    if places and places[0] != INFINITE_PLACE:
        p = places[0]  # the smallest contracting prime
        suites["stationarity"] = lambda: run_stationarity(
            mu, p, 3, 6, samples=4, seed=seed, margin=8
        )
        suites["boundary"] = lambda: run_boundary(mu, p, digits=4, seed=seed, margin=8)
    return suites


# signed products of small powers of 2, 3 and 5
_slopes = st.builds(
    lambda sign, e2, e3, e5: sign * F(2) ** e2 * F(3) ** e3 * F(5) ** e5,
    st.sampled_from([1, -1]),
    *[st.integers(-2, 2)] * 3,
)
_translations = st.one_of(
    st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=6)
)
_laws = st.lists(
    st.tuples(_slopes, _translations, st.integers(1, 4)), min_size=2, max_size=4
)

_MU_REV = [(F(2), F(0), 3), (F(1, 2), F(1), 1)]
_NEGATIVE = [(F(-2), F(0), 1), (F(1, 3), F(1), 1), (F(2, 3), F(1, 5), 1)]
# the law of TestPinnedReports.test_prop44_joint_bytes: contracts at 2 and at R
_PINNED = [(F(2, 3), F(1), 2), (F(4, 5), F(0), 1), (F(4, 5), F(1, 7), 1)]


class TestFractionReferenceWalker:
    @settings(max_examples=50, deadline=None)
    @given(_laws, st.integers(0, 2**64 - 1))
    @example(_MU_REV, 5)
    @example(_NEGATIVE, 3)
    @example(_PINNED, 6)
    def test_suites_print_the_engine_bytes(self, atoms, seed):
        total = sum(w for _, _, w in atoms)
        mu = StepDistribution([(AffineMap(a, b), F(w, total)) for a, b, w in atoms])
        reference = _fraction_walker(mu)
        for name, run in _suites(mu, seed).items():
            engine = _outcome(run)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(experiments, "_Walker", reference)
                patch.setattr(walk, "_Walker", reference)
                assert _outcome(run) == engine, name

    def test_reference_replaces_the_engine(self, monkeypatch):
        # the suites build the patched class: a walk that never advances its
        # Fractions prints other bytes than the engine
        mu = StepDistribution([(AffineMap(a, b), F(w, 4)) for a, b, w in _MU_REV])
        engine = render_csv(run_walk(mu, 40, 5, [2]))

        class Frozen(_fraction_walker(mu)):
            def _flush(self):
                self._done = self.count

        monkeypatch.setattr(experiments, "_Walker", Frozen)
        assert render_csv(run_walk(mu, 40, 5, [2])) != engine
