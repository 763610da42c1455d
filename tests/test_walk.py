import math
import pickle
import random
import re
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate, repeat

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affwalk import (
    INFINITE_PLACE,
    AffineMap,
    BudgetError,
    DegenerateMeasureError,
    StabilizationError,
    StepDistribution,
    boundary_digits,
    compose,
    divergence_statistic,
    extract_boundary,
    increment_valuation_rate,
    log_norm,
    power,
    sample_path,
    valuation,
)
from affwalk import experiments, measure, walk
from affwalk.measure import drift_profile, validate
from affwalk.padic import ball_key_exact, expand
from affwalk.prng import SplitMix64, cumulative_thresholds, pick_index, replica_seed
from affwalk.walk import _encode, _Walker

F = Fraction
IDENTITY = AffineMap(1, 0)


def _bits(a, z):
    """Bit size of the reduced (A, Z), as the walk's guard counts it."""
    return sum(x.bit_length() for x in (*a.as_integer_ratio(), *z.as_integer_ratio()))


def _position(traj, n: int) -> AffineMap:
    """Reference x_n = (A_n, Z_n) = g_1 ... g_n of a sampled trajectory."""
    return reduce(compose, traj.steps[:n], IDENTITY)


def _fraction_walk(mu, seed, n, max_bits=None):
    """Reference walk in plain Fraction arithmetic.

    Returns the (atom, A_k, Z_k) of steps 1..n, and (step, bits) when the
    reduced bit size of (A, Z), checked every 32 steps, exceeds max_bits
    (the walk stops there), else None.
    """
    rng = SplitMix64(seed)
    thresholds = cumulative_thresholds(mu.weights)
    a, z = F(1), F(0)
    out = []
    for k in range(1, n + 1):
        g = mu.support[pick_index(rng.next_u64(), thresholds)]
        z += a * g.b
        a *= g.a
        out.append((g, a, z))
        if max_bits is not None and k % 32 == 0:
            bits = _bits(a, z)
            if bits > max_bits:
                return out, (k, bits)
    return out, None


# signed products of small prime powers: negative, multi-prime and unit slopes
_slopes = st.builds(
    lambda sign, e2, e3, e5, e7: sign * F(2) ** e2 * F(3) ** e3 * F(5) ** e5 * F(7) ** e7,
    st.sampled_from([1, -1]),
    *[st.integers(-2, 2)] * 4,
)
_translations = st.one_of(
    st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=12)
)
_atoms = st.lists(
    st.tuples(_slopes, _translations, st.integers(1, 5)), min_size=1, max_size=4
)
_MIXED = [(F(6, 35), F(0), 2), (F(-3), F(5, 6), 1), (F(-1, 4), F(-2, 9), 1)]
_REV = [(F(2), F(0), 3), (F(1, 2), F(1), 1)]
# reads whose flushes end on a tail of every length 1 to 7, below a block of 8
# steps: alone (steps 1 to 28), then after one whole block (steps 41 and 55)
_TAIL_READS = {
    1: "a", 3: "z", 6: "exponents", 10: "a", 15: "z", 21: "exponents", 28: "a",
    41: "z", 55: "a",
}


def _measure(atoms):
    total = sum(w for _, _, w in atoms)
    return StepDistribution([(AffineMap(a, b), F(w, total)) for a, b, w in atoms])


class TestSamplePath:
    def test_prefix_is_product_of_steps(self, mu_bias):
        traj = sample_path(mu_bias, seed=42, n=60)
        reference, _ = _fraction_walk(mu_bias, 42, 60)
        assert traj.steps == tuple(g for g, _, _ in reference)
        for i, (_, a, z) in enumerate(reference, start=1):
            assert _position(traj, i) == AffineMap(a, z)
        assert _position(traj, 0) == IDENTITY
        assert traj.length == 60

    def test_deterministic_in_seed(self, mu_rev):
        a = sample_path(mu_rev, seed=7, n=40)
        b = sample_path(mu_rev, seed=7, n=40)
        assert a.steps == b.steps
        assert a.steps != sample_path(mu_rev, seed=8, n=40).steps

    def test_steps_come_from_support(self, mu_bias):
        traj = sample_path(mu_bias, seed=1, n=200)
        support = set(mu_bias.support)
        assert set(traj.steps) <= support

    def test_weights_respected(self, mu_bias):
        # weight-3/4 atom should dominate a long sample
        traj = sample_path(mu_bias, seed=9, n=4000)
        halving = sum(1 for g in traj.steps if g.a == F(1, 2))
        assert 0.70 < halving / 4000 < 0.80

    def test_degenerate_rejected(self):
        mu = StepDistribution({AffineMap(1, 1): F(1, 2), AffineMap(1, 2): F(1, 2)})
        with pytest.raises(DegenerateMeasureError):
            sample_path(mu, seed=0, n=10)


class TestBoundaryDigits:
    def test_deterministic_walk_converges_to_minus_one(self):
        # steps all x -> 2x+1: Z_n = 2^n - 1 -> -1 in Q_2
        mu = StepDistribution({AffineMap(2, 1): F(1)})
        got = boundary_digits(mu, 2, 8, seed=3)
        assert got.expansion.digits == (1,) * 8
        assert got.expansion.start_exponent == 0
        assert got.probe_agreed

    def test_requires_contracting_prime(self, mu_bias):
        # mu_bias expands 2-adically
        with pytest.raises(ValueError):
            boundary_digits(mu_bias, 2, 4, seed=0)

    def test_seed_determinism(self, mu_rev):
        a = boundary_digits(mu_rev, 2, 12, seed=5)
        b = boundary_digits(mu_rev, 2, 12, seed=5)
        assert a.expansion == b.expansion
        assert a.stabilization_index == b.stabilization_index

    def test_digit_prefix_consistent_across_precision(self, mu_rev):
        # asking for fewer digits of the same walk gives a prefix
        long = boundary_digits(mu_rev, 2, 16, seed=11)
        short = boundary_digits(mu_rev, 2, 6, seed=11)
        assert long.expansion.start_exponent == short.expansion.start_exponent
        assert long.expansion.digits[:6] == short.expansion.digits

    def test_step_cap_raises(self, mu_rev):
        with pytest.raises(StabilizationError):
            boundary_digits(mu_rev, 2, 64, seed=0, step_cap=30)

    def test_lock_covers_the_digit_window(self, mu_rev):
        # the digits sit at exponents v .. v + 15 with v = v_2(Z); among seeds
        # 0-499, 69, 181, 213, 385, 407 and 451 lock a value with v from 8 to
        # 20, whose last digits a lock at exponent 17 left unlocked
        for seed in range(500):
            got = boundary_digits(mu_rev, 2, 16, seed)
            deep = extract_boundary(mu_rev, seed, {2: 100})
            assert got.expansion == expand(deep.value, 2, 16), seed
            assert got.probe_agreed, seed
        # v = 0 and v = -1 need no second lock: their lock index stays that of exponent 17
        for seed in (5, 7):
            got = boundary_digits(mu_rev, 2, 16, seed)
            assert valuation(got.value, 2) <= 1
            once = extract_boundary(mu_rev, seed, {2: 17})
            assert got.stabilization_index == once.stabilization_index


class TestRealLimit:
    def test_interval_contains_known_fixed_point(self):
        # deterministic x -> x/2 + 1 has fixed point 2
        mu = StepDistribution({AffineMap(F(1, 2), 1): F(1)})
        lo, hi = extract_boundary(mu, seed=0, real_tol=1e-9).real_interval
        assert lo <= 2 <= hi
        assert hi - lo <= 1e-9 * 1.01

    def test_stochastic_interval_width(self, mu_bias):
        lim = extract_boundary(mu_bias, seed=3, real_tol=1e-6)
        lo, hi = lim.real_interval
        assert hi - lo <= 1e-6 * 1.01
        assert lo <= lim.value <= hi
        assert lim.probe_agreed

    def test_halving_tolerance_nests(self, mu_bias):
        lo, hi = extract_boundary(mu_bias, seed=3, real_tol=1e-4).real_interval
        narrow = extract_boundary(mu_bias, seed=3, real_tol=1e-8)
        assert lo - 1e-4 <= narrow.value <= hi + 1e-4

    def test_requires_contracting_infinite_place(self, mu_rev):
        with pytest.raises(ValueError):
            extract_boundary(mu_rev, seed=0, real_tol=1e-6)


class TestExtractBoundary:
    def test_prefix_and_probes(self, mu_rev):
        sample = extract_boundary(mu_rev, seed=1, finite_targets={2: 10})
        assert all(ok for _, ok in sample.probes)
        # the same seed draws the same atoms, so sample_path gives the prefix
        n = sample.stabilization_index
        assert _position(sample_path(mu_rev, n, seed=1), n).b == sample.value

    def test_representative_valuation_stability(self, mu_rev):
        # the 2-adic ball of the representative must match a later refinement
        coarse = extract_boundary(mu_rev, seed=2, finite_targets={2: 8})
        fine = extract_boundary(mu_rev, seed=2, finite_targets={2: 14})
        assert ball_key_exact(coarse.value, 2, 8) == ball_key_exact(fine.value, 2, 8)

    def test_joint_finite_and_real_lock(self):
        # contracts at 2 and on R; both places must hold for the same margin
        mu = StepDistribution({
            AffineMap(F(1, 2), 1): F(1, 2),
            AffineMap(F(2, 3), F(1, 3)): F(1, 4),
            AffineMap(4, 0): F(1, 4),
        })
        sample = extract_boundary(mu, seed=7, finite_targets={2: 5}, real_tol=1e-6)
        assert sample.stabilization_index == 261
        assert sample.steps_total == 261 + 32
        assert sample.probes == ((2, True), (INFINITE_PLACE, True))

    def test_needs_a_place(self, mu_rev):
        with pytest.raises(ValueError):
            extract_boundary(mu_rev, seed=0)

    def test_infinite_place_is_no_finite_target(self, mu_bias):
        # mu_bias contracts on R, so only the key check refuses this target
        with pytest.raises(ValueError, match="finite prime"):
            extract_boundary(mu_bias, seed=0, finite_targets={INFINITE_PLACE: 3})

    @pytest.mark.parametrize("exponent", [True, 2.5], ids=["bool", "float"])
    def test_target_exponent_is_an_integer(self, mu_rev, exponent):
        with pytest.raises(ValueError, match="target exponent must be an integer"):
            extract_boundary(mu_rev, seed=0, finite_targets={2: exponent})

    @pytest.mark.parametrize("tol", [math.nan, math.inf], ids=["nan", "inf"])
    def test_real_tolerance_is_finite(self, mu_bias, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            extract_boundary(mu_bias, seed=0, real_tol=tol)

    @pytest.mark.parametrize(
        "options, message",
        [
            (dict(step_cap=2.5), "step cap must be an integer"),
            (dict(step_cap=0), "step cap must be at least 1"),
            (dict(margin=2.5), "margin must be an integer"),
            (dict(margin=0), "margin must be at least 1"),
        ],
        ids=["step-cap-float", "step-cap-0", "margin-float", "margin-0"],
    )
    def test_lock_options_checked_before_any_walk(self, mu_rev, monkeypatch, options, message):
        def unbuilt(*args):
            raise AssertionError("a walker was built")

        monkeypatch.setattr(walk, "_Walker", unbuilt)
        with pytest.raises(ValueError, match=f"^{message}$"):
            extract_boundary(mu_rev, 1, {2: 3}, **options)

    @pytest.mark.parametrize(
        "law, targets, real_tol",
        [("mu_rev", {3: 2}, None), ("mu_bias", {2: 2}, None), ("mu_rev", {2: 2}, 1e-6)],
        ids=["drift-0", "expanding", "expanding-real"],
    )
    def test_one_message_for_a_place_that_does_not_contract(
        self, request, law, targets, real_tol
    ):
        mu = request.getfixturevalue(law)
        place = "inf" if real_tol is not None else next(iter(targets))
        message = f"place {place} does not contract (drift >= 0)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            extract_boundary(mu, 0, targets, real_tol=real_tol)


class TestDivergence:
    def test_single_expanding_atom(self):
        # x -> 2x + 1 at p = infinity: running max of ln|A_{k-1} b_k| = (n-1) ln 2
        mu = StepDistribution({AffineMap(2, 1): F(1)})
        rep = divergence_statistic(mu, INFINITE_PLACE, 50, samples=3, seed=0)
        assert rep.mean == pytest.approx(49 * math.log(2) / 50)

    def test_rejects_contracting_place(self, mu_rev):
        with pytest.raises(ValueError):
            divergence_statistic(mu_rev, 2, 100, samples=2, seed=0)

    def test_rate_near_positive_drift(self, mu_bias):
        rep = divergence_statistic(mu_bias, 2, 2000, samples=50, seed=0)
        assert rep.mean == pytest.approx(0.5 * math.log(2), abs=0.05)

    def test_null_drift_rate_small(self, mu_sym):
        rep = divergence_statistic(mu_sym, 2, 2000, samples=50, seed=0)
        assert abs(rep.mean) < 0.05


class TestIncrementRate:
    def test_tracks_drift(self, mu_rev):
        vals = [increment_valuation_rate(mu_rev, 2, 1000, seed=s) for s in range(30)]
        mean = sum(vals) / len(vals)
        assert mean == pytest.approx(0.5 * math.log(2), rel=0.1)

    def test_rejects_translation_free_measure(self):
        mu = StepDistribution({AffineMap(2, 0): F(1, 2), AffineMap(F(1, 2), 0): F(1, 2)})
        with pytest.raises(ValueError):
            increment_valuation_rate(mu, 2, 100, seed=0)


def _atom_valuations(mu, place):
    """Per atom, v_p(a) and v_p(b) (ln|.| on R), None at b = 0."""

    def v(q):
        return log_norm(q, place) if place == INFINITE_PLACE else valuation(q, place)

    return [v(g.a) for g in mu.support], [None if g.b == 0 else v(g.b) for g in mu.support]


def _divergence_oracle(mu, place, n, samples, seed):
    """The running-maximum statistic, one draw at a time: (values, mean)."""
    incr_a, incr_b = _atom_valuations(mu, place)
    scale = 1.0 if place == INFINITE_PLACE else -math.log(place)
    thresholds = cumulative_thresholds(mu.weights)
    values = []
    for i in range(samples):
        rng = SplitMix64(replica_seed(seed, i))
        running = 0.0
        best = 0.0
        for _ in range(n):
            j = pick_index(rng.next_u64(), thresholds)
            vb = incr_b[j]
            if vb is not None:
                term = (running + vb) * scale
                if term > best:
                    best = term
            running += incr_a[j]
        values.append(best / n)
    return tuple(values), math.fsum(values) / samples


def _increment_oracle(mu, p, n, seed, cap):
    """The increment valuation rate, one draw at a time; None past ``cap``."""
    atom_vp, atom_vb = _atom_valuations(mu, p)
    thresholds = cumulative_thresholds(mu.weights)
    rng = SplitMix64(seed)
    running = 0
    for _ in range(n):
        running += atom_vp[pick_index(rng.next_u64(), thresholds)]
    for _ in range(cap):
        j = pick_index(rng.next_u64(), thresholds)
        vb = atom_vb[j]
        if vb is not None:
            return (running + vb) * math.log(p) / n
        running += atom_vp[j]
    return None


class TestValuationWalkReference:
    @settings(max_examples=60, deadline=None)
    @given(
        _atoms,
        st.sampled_from([INFINITE_PLACE, 2, 3]),
        st.integers(1, 300),
        st.integers(1, 3),
        st.integers(0, 2**64 - 1),
    )
    @example(_MIXED, 3, 7, 2, 5)
    @example([(F(2), F(0), 1), (F(-1, 2), F(1), 1)], INFINITE_PLACE, 300, 3, 0)
    def test_divergence_matches_draw_by_draw(self, atoms, place, n, samples, seed):
        mu = _measure(atoms)
        if place in drift_profile(mu).contracting():
            with pytest.raises(ValueError):
                divergence_statistic(mu, place, n, samples, seed)
            return
        rep = divergence_statistic(mu, place, n, samples, seed)
        values, mean = _divergence_oracle(mu, place, n, samples, seed)
        assert rep.values == values
        assert rep.mean == mean
        assert (rep.place, rep.n, rep.samples) == (place, n, samples)

    @settings(max_examples=60, deadline=None)
    @given(
        _atoms, st.sampled_from([2, 3]), st.integers(1, 300), st.integers(0, 2**64 - 1)
    )
    @example(_MIXED, 2, 7, 5)
    def test_increment_rate_matches_draw_by_draw(self, atoms, p, n, seed):
        mu = _measure(atoms)
        if all(g.b == 0 for g in mu.support):
            with pytest.raises(ValueError):
                increment_valuation_rate(mu, p, n, seed)
            return
        expected = _increment_oracle(mu, p, n, seed, 10_000)
        assert expected is not None
        assert increment_valuation_rate(mu, p, n, seed) == expected

    @pytest.mark.parametrize("cap", [1, 3, 40])
    def test_increment_rate_search_cap(self, cap, monkeypatch):
        # b = 0 with weight 15/16: the first moving step after n is often late
        mu = _measure([(F(2), F(0), 15), (F(1, 2), F(1), 1)])
        monkeypatch.setattr(walk, "_SEARCH_CAP", cap)
        for seed in range(40):
            expected = _increment_oracle(mu, 2, 5, seed, cap)
            if expected is None:
                with pytest.raises(StabilizationError, match=f"within {cap} steps"):
                    increment_valuation_rate(mu, 2, 5, seed)
            else:
                assert increment_valuation_rate(mu, 2, 5, seed) == expected


class TestIncrementStreamReference:
    @settings(max_examples=60, deadline=None)
    @given(_atoms, st.integers(1, 60), st.integers(0, 2**64 - 1))
    @example(_MIXED, 7, 5)
    @example(_REV, 40, 0)
    @example([(F(2), F(0), 1), (F(-1, 2), F(1), 1)], 60, 0)
    def test_statistics_match_fraction_walk(self, atoms, n, seed):
        # v(A_{k-1} b_k) read off the exact walk as the k-th increment of Z;
        # both statistics walk replica_seed(seed, 0), one sample's seed
        mu = _measure(atoms)
        first = replica_seed(seed, 0)
        reference, _ = _fraction_walk(mu, first, n + 400)
        zs = [F(0)] + [z for _, _, z in reference]
        increments = [z1 - z0 for z0, z1 in zip(zs, zs[1:])]
        contracting = drift_profile(mu).contracting()
        for place in (2, 3, 5, 7, INFINITE_PLACE):
            if place in contracting:
                continue
            best = max([0.0, *(log_norm(d, place) for d in increments[:n] if d)])
            (value,) = divergence_statistic(mu, place, n, 1, seed).values
            if place == INFINITE_PLACE:
                # ln|A_{k-1} b_k| as a float sum over k steps, not one logarithm
                assert value == pytest.approx(best / n, rel=1e-9, abs=1e-12)
            else:
                assert value == best / n
        # the first increment at or after step n + 1 that moves Z
        moved = next((d for d in increments[n:] if d), None)
        for p in sorted(contracting - {INFINITE_PLACE}):
            if moved is None:
                with pytest.raises(ValueError, match="Z never moves"):
                    increment_valuation_rate(mu, p, n, first)
            else:
                expected = valuation(moved, p) * math.log(p) / n
                assert increment_valuation_rate(mu, p, n, first) == expected


class TestIntegerEngine:
    @settings(max_examples=60, deadline=None)
    @given(_atoms, st.integers(0, 2**64 - 1), st.integers(1, 120))
    @example(_MIXED, 5, 100)
    def test_matches_fraction_reference(self, atoms, seed, n):
        mu = _measure(atoms)
        walker = _Walker(_encode(mu), seed)
        reference, _ = _fraction_walk(mu, seed, n)
        for g, a, z in reference:
            assert mu.support[walker.step()] == g
            assert walker.a == a
            assert walker.z == z
            for p, v in zip(walker._enc.primes, walker.exponents):
                assert v == valuation(a, p)
        assert walker.count == n

    @settings(max_examples=60, deadline=None)
    @given(
        _atoms,
        st.integers(0, 2**64 - 1),
        st.integers(1, 150),
        st.dictionaries(st.integers(1, 150), st.sampled_from("az"), max_size=8),
    )
    @example(_MIXED, 5, 150, {7: "a", 40: "z", 41: "a", 95: "z", 150: "a"})
    def test_sparse_reads_match_fraction_reference(self, atoms, seed, n, reads):
        # the slope integer is brought up to date only by a translation step,
        # a read of a, or the bit guard: unread steps leave it stale
        mu = _measure(atoms)
        walker = _Walker(_encode(mu), seed)
        reference, _ = _fraction_walk(mu, seed, n)
        for k, (g, a, z) in enumerate(reference, start=1):
            assert mu.support[walker.step()] == g
            if reads.get(k) == "a":
                assert walker.a == a
            elif reads.get(k) == "z":
                assert walker.z == z
        _, a, _ = reference[-1]
        assert walker.count == n
        assert walker.exponents == [valuation(a, p) for p in walker._enc.primes]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(_slopes, _translations, st.integers(1, 5)), min_size=1, max_size=12
        ),
        st.integers(0, 2**64 - 1),
        st.integers(1, 200),
        st.dictionaries(
            st.integers(1, 200), st.sampled_from(["a", "z", "exponents"]), max_size=10
        ),
    )
    @example(_MIXED, 5, 150, {5: "z", 6: "exponents", 40: "a", 64: "z", 101: "z"})
    @example([(F(2), F(0), 1)], 5, 100, {33: "a"})
    @example(_REV, 5, 60, _TAIL_READS)
    @example(_MIXED, 7, 60, _TAIL_READS)
    def test_blocks_match_stepwise_application(self, atoms, seed, n, reads):
        # the stepwise walker is read at every step, so each flush applies
        # one step; the others are read on a random schedule, so their flushes
        # apply whole blocks (1 to 12 atoms take blocks of 32, 8, 4 and 2
        # steps) and then the shorter tail as one word.  On one seed, the
        # first of them builds each word's composite entry; the second meets
        # the word again and reads it from the table.
        _encode.cache_clear()  # start from an empty block table
        enc = _encode(_measure(atoms))
        stepwise = _Walker(enc, seed)
        blocked = [_Walker(enc, seed), _Walker(enc, seed)]
        for k in range(1, n + 1):
            i = stepwise.step()
            now = {"a": stepwise.a, "z": stepwise.z, "exponents": stepwise.exponents}
            for walker in blocked:
                assert walker.step() == i
                if k in reads:
                    assert getattr(walker, reads[k]) == now[reads[k]]
        for walker in blocked:
            assert walker.count == n
            assert _slope(walker) == _slope(stepwise)
            assert walker.exponents == stepwise.exponents
            assert (walker._n, walker._d, walker._floor) == (
                stepwise._n, stepwise._d, stepwise._floor
            )

    @pytest.mark.parametrize("atoms", [_REV, _MIXED], ids=["2-atoms", "3-atoms"])
    def test_table_holds_words_of_length_2_to_block(self, atoms):
        # reads at random steps end flushes on tails of every length below the
        # block; a tail is one word of the table, built from its halves, so the
        # table holds every length from 2 to the block and no other
        _encode.cache_clear()  # start from an empty block table
        enc = _encode(_measure(atoms))
        walker = _Walker(enc, 11)
        rng = random.Random(4)
        for _ in range(2000):
            walker.step()
            if rng.random() < 0.2:
                walker._flush()  # as every read of a, z or exponents does
        m, k = len(atoms), enc.block
        assert {len(word) for word in enc.blocks} == set(range(2, k + 1))
        assert len(enc.blocks) <= sum(m**r for r in range(2, k + 1))

    def test_block_length_fits_the_table(self):
        lengths = {
            m: _encode(_measure([(F(2), F(i), 1) for i in range(m)])).block
            for m in (1, 2, 3, 4, 9, 10, 90, 91)
        }
        assert lengths == {1: 32, 2: 8, 3: 8, 4: 4, 9: 4, 10: 2, 90: 2, 91: 1}

    def test_law_past_the_table_walks_one_atom_at_a_time(self):
        # past _BLOCK_ENTRIES atoms no word of two atoms fits: the block stays 1
        mu = _measure([(F(2), F(i), 1) for i in range(walk._BLOCK_ENTRIES + 1)])
        assert _encode(mu).block == 1
        traj = sample_path(mu, 40, 1)
        reference, _ = _fraction_walk(mu, 1, 40)
        assert traj.length == 40
        assert traj.steps == tuple(g for g, _, _ in reference)

    def test_encoding_is_built_once_per_law(self, mu_rev, monkeypatch):
        cold = []
        for seed in range(20):
            _encode.cache_clear()
            measure._slope_valuations.cache_clear()
            cold.append(boundary_digits(mu_rev, 2, 16, seed))
        factored = []
        factor = measure.prime_factors

        def counted(n):
            factored.append(n)
            return factor(n)

        monkeypatch.setattr(measure, "prime_factors", counted)
        _encode.cache_clear()
        measure._slope_valuations.cache_clear()
        drift_profile(mu_rev)
        _encode(mu_rev)
        warm = [boundary_digits(mu_rev, 2, 16, seed) for seed in range(20)]
        # one numerator and one denominator per atom, factored on the first
        # call and shared by the drift profile and the walk encoding
        assert len(factored) == 2 * len(mu_rev.support)
        assert warm == cold

    def test_pickled_encoding_has_an_empty_block_table(self, mu_rev):
        enc = _encode(mu_rev)
        for _ in range(2):
            walker = _Walker(enc, 7)
            for _ in range(256):
                walker.step()
        assert enc.blocks
        assert all(entry is not None for entry in enc.blocks.values())
        copy = pickle.loads(pickle.dumps(enc))
        assert vars(copy) == {**vars(enc), "blocks": {}}
        assert _encode(mu_rev) is enc

    def test_primes_cover_every_slope(self):
        enc = _encode(_measure(_MIXED))
        assert enc.primes == (2, 3, 5, 7)
        assert enc.scale == 18

    @settings(max_examples=40, deadline=None)
    @given(_atoms, st.integers(0, 2**64 - 1), st.integers(8, 400))
    @example(_MIXED, 5, 150)
    def test_bit_guard_matches_reference(self, atoms, seed, max_bits):
        mu = _measure(atoms)
        assume(not validate(mu).degenerate)
        _, hit = _fraction_walk(mu, seed, 256, max_bits)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(walk, "DEFAULT_MAX_BITS", max_bits)
            if hit is None:
                assert sample_path(mu, 256, seed).length == 256
                return
            with pytest.raises(BudgetError) as info:
                sample_path(mu, 256, seed)
        step = int(re.search(r"at step (\d+)", str(info.value)).group(1))
        assert (step, info.value.reached) == hit

    def test_bit_guard_counts_the_pending_slope(self, monkeypatch):
        # no translation in the first 32 steps: the slope integer grows only
        # in the flush's pending factor, which the flush at step 32 folds in
        # before the guard bounds the state's size
        mu = _measure([(F(2**30), F(0), 63), (F(1, 2), F(1), 1)])
        reference, hit = _fraction_walk(mu, 0, 64, 100)
        assert all(g.b == 0 for g, _, _ in reference[:32])
        assert hit == (32, 963)
        monkeypatch.setattr(walk, "DEFAULT_MAX_BITS", 100)
        with pytest.raises(BudgetError) as info:
            sample_path(mu, 64, 0)
        assert info.value.reached == 963
        assert "at step 32," in str(info.value)

    def test_bit_guard_boundaries(self, monkeypatch):
        # guards set at and just below each checkpoint's size: the walk must
        # stop at the first checkpoint strictly above the guard
        mu = _measure(_MIXED)
        reference, _ = _fraction_walk(mu, 5, 256)
        sizes = [
            (k, _bits(a, z))
            for k, (_, a, z) in enumerate(reference, start=1)
            if k % 32 == 0
        ]
        for guard in sorted({b - d for _, b in sizes for d in (0, 1)}):
            hit = next(((k, b) for k, b in sizes if b > guard), None)
            monkeypatch.setattr(walk, "DEFAULT_MAX_BITS", guard)
            if hit is None:
                assert sample_path(mu, 256, 5).length == 256
                continue
            with pytest.raises(BudgetError) as info:
                sample_path(mu, 256, 5)
            assert info.value.reached == hit[1]
            assert f"at step {hit[0]}," in str(info.value)


def _slope(walker):
    """The slope integer P = A_n * D, which every flush brings up to date."""
    walker._flush()
    return walker._p


def _state(walker):
    """A walker's integer state, flushed: P, N, D, exponents, floor and count."""
    return (
        _slope(walker), walker._n, walker._d, walker.exponents, list(walker._floor),
        walker.count,
    )


def _budget_stop(walk_to):
    """(message, bits reached) of the BudgetError walk_to() raises, or None."""
    try:
        walk_to()
    except BudgetError as exc:
        return str(exc), exc.reached
    return None


# laws of up to 20 atoms: above PACKED_ATOMS the batches are tuples, not bytes
_wide_atoms = st.lists(
    st.tuples(_slopes, _translations, st.integers(1, 5)), min_size=1, max_size=20
)
# where advance stops: anywhere, or on a batch edge
_stops = st.one_of(st.integers(0, 300), st.integers(0, 9).map(lambda k: 32 * k))


class TestAdvance:
    @settings(max_examples=80, deadline=None)
    @given(_wide_atoms, st.integers(0, 2**64 - 1), st.integers(0, 80), _stops)
    @example(_MIXED, 5, 10, 10)  # m = 0
    @example(_MIXED, 5, 3, 20)  # inside one batch
    @example(_MIXED, 5, 7, 64)  # onto a batch edge
    @example(_MIXED, 5, 0, 32)  # exactly one batch
    @example(_MIXED, 5, 40, 250)  # across several edges
    @example([(F(2), F(i), 1) for i in range(18)], 5, 11, 150)  # tuple batches
    def test_matches_repeated_step(self, atoms, seed, before, stop):
        enc = _encode(_measure(atoms))
        stepped, advanced = _Walker(enc, seed), _Walker(enc, seed)
        for _ in range(before):
            assert advanced.step() == stepped.step()
        m = max(stop - before, 0)
        for _ in range(m):
            stepped.step()
        advanced.advance(m)
        assert advanced.count == before + m
        assert _state(advanced) == _state(stepped)
        assert [advanced.step() for _ in range(64)] == [stepped.step() for _ in range(64)]

    @settings(max_examples=40, deadline=None)
    @given(_atoms, st.integers(0, 2**64 - 1), st.integers(8, 400), st.integers(0, 40))
    @example(_MIXED, 5, 150, 0)
    @example(_MIXED, 5, 150, 33)
    def test_bit_guard_trips_at_the_same_step(self, atoms, seed, max_bits, before):
        enc = _encode(_measure(atoms))
        stepped, advanced = _Walker(enc, seed), _Walker(enc, seed)
        for walker in (stepped, advanced):
            for _ in range(before):
                walker.step()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(walk, "DEFAULT_MAX_BITS", max_bits)

            def step_each():
                for _ in range(256):
                    stepped.step()

            hit = _budget_stop(step_each)
            assert _budget_stop(lambda: advanced.advance(256)) == hit
        assert advanced.count == stepped.count
        if hit is not None:
            assert stepped.count % 32 == 0
            assert f"at step {stepped.count}," in hit[0]


def _reference_lock(walker, targets, margin, step_cap, real=None):
    """The lock as one ``step`` call per step: the scanning lock's oracle."""
    exponents = walker.exponents
    enc = walker._enc
    moves = [entry[4] for entry in enc.steps]
    slots = []
    for p, t in targets.items():
        j = enc.primes.index(p)
        if enc.min_vb[j] is not None:
            slots.append((j, t - enc.min_vb[j]))
    if real is not None:
        real_need, log_abs = real
        la = log_norm(walker.a, INFINITE_PLACE)
    step = walker.step
    held = 0
    while held < margin:
        if walker.count >= step_cap:
            raise StabilizationError(f"no lock within {step_cap} steps", steps=step_cap)
        i = step()
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


def _lock_outcome(lock, walker, *args):
    try:
        lock(walker, *args)
    except StabilizationError as exc:
        return ("no lock", str(exc), exc.steps, walker.count)
    return ("lock", walker.count)


class TestLockOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        _atoms,
        st.integers(0, 2**64 - 1),
        st.integers(0, 80),
        st.integers(1, 40),
        st.integers(0, 300),
        st.one_of(st.none(), st.floats(-4, 4), st.just(math.inf)),
        st.data(),
    )
    @example(_MIXED, 5, 0, 32, 300, None, None)
    @example(_MIXED, 5, 17, 8, 40, -1.0, None)
    @example([(F(2), F(0), 3), (F(1, 2), F(1), 1)], 9, 50, 32, 10, None, None)
    @example([(F(2), F(0), 3), (F(1, 2), F(1), 1)], 9, 0, 8, 300, None, None)
    @example([(F(-2), F(1, 3), 2), (F(1, 4), F(0), 1), (F(1, 2), F(-1), 1)], 3, 5, 6, 300, None, None)
    def test_matches_stepwise_lock(self, atoms, seed, before, margin, room, need, data):
        mu = _measure(atoms)
        enc = _encode(mu)
        if data is None:  # the explicit examples lock every prime at exponent 2
            targets = dict.fromkeys(enc.primes, 2)
        else:
            # one prime alone half the time: the lock's scalar path
            chosen = data.draw(
                st.one_of(
                    st.lists(st.sampled_from(enc.primes), unique=True),
                    st.sampled_from(enc.primes).map(lambda p: [p]),
                )
                if enc.primes
                else st.just([])
            )
            targets = {p: data.draw(st.integers(-3, 8)) for p in chosen}
        real = None if need is None else (need, [log_norm(g.a, INFINITE_PLACE) for g in mu.support])
        scanned, stepped = _Walker(enc, seed), _Walker(enc, seed)
        for walker in (scanned, stepped):
            for _ in range(before):
                walker.step()
        # a small cap, so that many draws stop on it
        args = (targets, margin, before + room, real)
        assert _lock_outcome(_Walker.lock, scanned, *args) == _lock_outcome(
            _reference_lock, stepped, *args
        )
        assert _state(scanned) == _state(stepped)
        assert [scanned.step() for _ in range(40)] == [stepped.step() for _ in range(40)]


# a negative slope (P < 0), b = 0 atoms, several primes, and a b denominator
# that a slope's prime divides (scale carries p)
_PROBE_LAWS = [
    [(F(-2), F(1, 3), 4), (F(1, 4), F(0), 1), (F(1, 2), F(-1), 1)],
    [(F(2), F(0), 3), (F(1, 2), F(1), 1)],
    [(F(2), F(1, 2), 3), (F(1, 2), F(-1, 4), 1)],
    [(F(-6), F(1, 5), 4), (F(1, 3), F(1), 1), (F(1, 2), F(0), 1)],
    _MIXED,
]


class TestProbeOracle:
    """``probe`` decides from the walker's integers what ball keys decide on Z."""

    @settings(max_examples=150, deadline=None)
    @given(
        _atoms,
        st.integers(0, 2**64 - 1),
        st.integers(0, 80),
        st.integers(1, 40),
        st.one_of(st.none(), st.floats(-6, 2)),
        st.data(),
    )
    @example(_PROBE_LAWS[0], 3, 5, 6, None, None)
    @example(_PROBE_LAWS[1], 9, 0, 8, None, None)
    @example(_PROBE_LAWS[2], 1, 17, 32, -1.0, None)
    @example(_PROBE_LAWS[3], 7, 40, 3, None, None)
    @example(_MIXED, 5, 0, 32, 0.5, None)
    def test_matches_fraction_ball_keys(self, atoms, seed, before, margin, real_bound, data):
        mu = _measure(atoms)
        enc = _encode(mu)
        if data is None:  # the explicit examples probe every prime at every target
            choices = [dict.fromkeys(enc.primes, t) for t in range(-3, 9)]
        else:
            chosen = data.draw(
                st.lists(st.sampled_from(enc.primes), unique=True) if enc.primes else st.just([])
            )
            choices = [{p: data.draw(st.integers(-3, 8)) for p in chosen}]
        for targets in choices:
            probed, twin = _Walker(enc, seed), _Walker(enc, seed)
            probed.advance(before)
            twin.advance(before)
            rep, agreed = probed.probe(margin, targets, real_bound)
            now = twin.z
            twin.advance(margin)
            after = twin.z
            expected = [
                (p, ball_key_exact(now, p, t) == ball_key_exact(after, p, t))
                for p, t in sorted(targets.items())
            ]
            if real_bound is not None:
                close = after == now or log_norm(after - now, INFINITE_PLACE) <= real_bound
                expected.append((INFINITE_PLACE, close))
            assert rep == now
            assert agreed == expected
            assert _state(probed) == _state(twin)

    @pytest.mark.parametrize(
        "law, p",
        [(_PROBE_LAWS[0], 2), (_PROBE_LAWS[2], 2), (_PROBE_LAWS[3], 2), (_PROBE_LAWS[3], 3)],
    )
    @pytest.mark.parametrize("n", [0, 7, 40])
    def test_stationarity_tail_key(self, law, p, n):
        # the replica's tail key is that of (rep - Z_n) / A_n read in Fractions
        enc = _encode(_measure(law))
        radius, margin = 4, 8
        for i in range(25):
            seed = replica_seed(11, i)
            walker = _Walker(enc, seed)
            walker.advance(n)
            a_n, z_n = walker.a, walker.z
            target = radius + max(valuation(a_n, p), 0) + 1
            walker.lock({p: target}, margin, walk.DEFAULT_STEP_CAP)
            rep = walker.z
            tail = (rep - z_n) / a_n
            expected = (ball_key_exact(rep, p, radius), ball_key_exact(tail, p, radius))
            _, keys, _, _ = experiments._stationarity_replica(
                seed, encoding=enc, p=p, radius=radius, n=n, margin=margin,
                step_cap=walk.DEFAULT_STEP_CAP,
            )
            assert keys == expected


def _excess(pairs, walks: int) -> float:
    """Total-variation distance of a histogram of ``walks`` draws from an exact law.

    ``pairs`` holds (probability, count) for every cell the histogram hits.
    Both have mass 1, so the distance is the mass the histogram puts above
    the law.
    """
    return math.fsum(max(c / walks - w, 0.0) for w, c in pairs)


# (atoms as (a, b, weight), n, walks); the 2- and 3-atom laws walk blocks of 8
_TWO_ENGINE_LAWS = {
    # one composite block and one single step, with walks enough to see a
    # pick threshold moved by 2^58 (a weight moved by 1/64)
    "mu_rev": ([(F(2), F(0), 3), (F(1, 2), F(1), 1)], 9, 12_000),
    "mu_sym": ([(F(2), F(0), 1), (F(1, 2), F(1), 1)], 10, 4_000),
    "pinned": ([(F(2, 3), F(1), 2), (F(4, 5), F(0), 1), (F(4, 5), F(1, 7), 1)], 8, 4_000),
    "negative-a": ([(F(-2), F(1), 1), (F(-1, 3), F(0), 1), (F(1, 2), F(-1, 5), 1)], 8, 4_000),
    # 17 atoms pick lane by lane, in blocks of 2
    "17-atoms": (
        [(F(2), F(0), 16)] + [(F(1, k + 2), F(k, 3), 1) for k in range(16)], 3, 4_000
    ),
    # blocks of 4, and n = 6 leaves two single steps
    "block-4": (
        [(F(3), F(0), 1), (F(1, 3), F(1), 1), (F(-1), F(2), 1), (F(2, 3), F(-1, 2), 1)],
        6,
        4_000,
    ),
}


class TestTwoEngines:
    @pytest.mark.parametrize("law", list(_TWO_ENGINE_LAWS))
    def test_walker_histogram_matches_power(self, law):
        # the walker's (A_n, Z_n) over seeds replica_seed(0, i) against the
        # exact law power(mu, n); the bound is the 99th percentile of the same
        # distance over 100 seeded multinomial samples of the exact table
        atoms, n, walks = _TWO_ENGINE_LAWS[law]
        mu = _measure(atoms)
        exact = {(g.a, g.b): w for g, w in power(mu, n).as_dict().items()}
        probs = [float(w) for w in exact.values()]
        enc = _encode(mu)
        hist = Counter()
        for i in range(walks):
            walker = _Walker(enc, replica_seed(0, i))
            walker.advance(n)
            hist[walker.a, walker.z] += 1
        seen = _excess(((float(exact.get(k, 0)), c) for k, c in hist.items()), walks)
        # a uniform draw u falls in cell bisect_right(edges, u)
        edges = [float(c) for c in accumulate(exact.values())]
        rng = random.Random(0)
        null = []
        for _ in range(100):
            cells = Counter(map(bisect_right, repeat(edges), [rng.random() for _ in range(walks)]))
            null.append(_excess(((probs[k], c) for k, c in cells.items()), walks))
        assert seen <= sorted(null)[98]
