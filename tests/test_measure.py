import copy
import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affwalk import (
    INFINITE_PLACE,
    AffineMap,
    BudgetError,
    ConfigError,
    StepDistribution,
    compose,
    contracting_set,
    drift,
    drift_profile,
    entropy,
    measure,
    parse_measure_config,
    power,
    reflect,
)
from affwalk.exact import support_primes, valuation
from affwalk.experiments import run_drift
from affwalk.measure import convolve, measure_config, q_approximant, validate
from affwalk.walk import _encode

F = Fraction
IDENTITY = AffineMap(1, 0)


def weights_for(n):
    """n positive Fractions summing to exactly 1."""
    return st.lists(
        st.integers(min_value=1, max_value=9), min_size=n, max_size=n
    ).map(lambda raw: [F(r, sum(raw)) for r in raw])


class TestConstruction:
    def test_duplicates_merge(self):
        mu = StepDistribution(
            [(AffineMap(2, 0), F(1, 4)), (AffineMap(2, 0), F(1, 4)),
             (AffineMap(3, 1), F(1, 2))]
        )
        assert len(mu.atoms) == 2
        assert dict(mu.atoms)[AffineMap(2, 0)] == F(1, 2)

    def test_bad_weights(self):
        with pytest.raises(ConfigError):
            StepDistribution({AffineMap(2, 0): F(1, 2)})  # sums to 1/2
        with pytest.raises(ConfigError):
            StepDistribution(
                {AffineMap(2, 0): F(3, 2), AffineMap(3, 0): F(-1, 2)}
            )
        with pytest.raises(ConfigError):
            StepDistribution([])

    def test_config_roundtrip(self, mu_bias):
        assert parse_measure_config(measure_config(mu_bias)) == mu_bias

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            parse_measure_config({"atoms": [{"a": "0", "b": "1", "w": "1"}]})
        with pytest.raises(ConfigError):
            parse_measure_config({})


class TestValidate:
    def test_nondegenerate(self, mu_bias):
        assert not validate(mu_bias).degenerate

    def test_common_fixed_point(self):
        # both maps fix x = 1
        mu = StepDistribution(
            {AffineMap(2, -1): F(1, 2), AffineMap(F(1, 2), F(1, 2)): F(1, 2)}
        )
        report = validate(mu)
        assert report.degenerate
        assert report.fixed_point == 1

    def test_pure_translations_degenerate(self):
        mu = StepDistribution({AffineMap(1, 1): F(1, 2), AffineMap(1, -1): F(1, 2)})
        assert validate(mu).degenerate

    def test_identity_only(self):
        assert validate(StepDistribution({AffineMap(1, 0): F(1)})).degenerate

    def test_moving_translation_among_other_atoms(self):
        # x + 1 fixes no point, so no common fixed point exists
        mu = StepDistribution({AffineMap(1, 1): F(1, 2), AffineMap(2, 0): F(1, 2)})
        assert validate(mu) == (False, None, None)

    def test_identity_among_atoms_with_a_common_fixed_point(self):
        # x fixes every point; 2x + 2 and 3x + 4 both fix -2
        mu = StepDistribution({
            AffineMap(1, 0): F(1, 3), AffineMap(2, 2): F(1, 3), AffineMap(3, 4): F(1, 3),
        })
        report = validate(mu)
        assert report.degenerate
        assert report.fixed_point == -2


class TestDrift:
    def test_profile_bias(self, mu_bias):
        prof = drift_profile(mu_bias)
        assert prof.exact()[2] == F(-1, 2)
        assert prof.phi(2) == pytest.approx(0.5 * math.log(2), abs=1e-15)
        assert prof.infinite_drift == pytest.approx(-0.5 * math.log(2), abs=1e-15)
        assert prof.infinite_sign == -1
        assert contracting_set(mu_bias) == {INFINITE_PLACE}

    def test_profile_sym(self, mu_sym):
        prof = drift_profile(mu_sym)
        assert prof.exact()[2] == 0
        assert prof.infinite_sign == 0
        assert contracting_set(mu_sym) == set()

    def test_profile_rev(self, mu_rev):
        prof = drift_profile(mu_rev)
        assert prof.exact()[2] == F(1, 2)
        assert prof.phi(2) == pytest.approx(-0.5 * math.log(2), abs=1e-15)
        assert prof.infinite_sign == 1
        assert contracting_set(mu_rev) == {2}

    def test_drift_single_place(self, mu_bias):
        assert drift(mu_bias, 2) == pytest.approx(0.5 * math.log(2))
        assert drift(mu_bias, 3) == 0.0
        assert drift(mu_bias, INFINITE_PLACE) == pytest.approx(-0.5 * math.log(2))

    def test_drift_sum_check_near_unit_slopes(self):
        # |ln a| near 10^-6, but ln of its numerator near 14 sets the rounding
        # (huge slopes are checked through the CLI in test_cli.py)
        near_unit = StepDistribution({
            AffineMap(F(1000001, 1000000), 0): F(1, 3),
            AffineMap(F(999999, 1000000), 1): F(2, 3),
        })
        assert drift_profile(near_unit).infinite_sign == -1
        assert run_drift(near_unit).passed is True

    def test_reflect_negates_drifts(self, mu_bias):
        prof = drift_profile(mu_bias)
        rprof = drift_profile(reflect(mu_bias))
        assert rprof.exact()[2] == -prof.exact()[2]
        assert rprof.infinite_sign == -prof.infinite_sign
        assert rprof.infinite_drift == pytest.approx(-prof.infinite_drift)

    def test_reflect_involution(self, mu_bias, mu_rev):
        assert reflect(reflect(mu_bias)) == mu_bias
        assert reflect(reflect(mu_rev)) == mu_rev


def _vp_mean(mu, p):
    """Reference mean of v_p(a): one valuation per atom."""
    total = F(0)
    for g, w in mu.atoms:
        total += w * valuation(g.a, p)
    return total


# negative, composite (6, 10/21) and unit slopes; b = 0 atoms among the translations
_FACTORED_ATOMS = st.lists(
    st.tuples(
        st.sampled_from([F(2), F(-2), F(6), F(1, 6), F(10, 21), F(-9, 4), F(1), F(-1)]),
        st.sampled_from([F(0), F(1), F(-1, 3)]),
        st.integers(1, 6),
    ),
    min_size=1,
    max_size=4,
)


class TestSlopeValuations:
    @given(_FACTORED_ATOMS)
    @settings(max_examples=100, deadline=None)
    @example([(F(10, 21), F(0), 1), (F(-2), F(1), 2)])
    def test_one_factoring_serves_drifts_and_encoding(self, atoms):
        total = sum(w for _, _, w in atoms)
        mu = StepDistribution([((a, b), F(w, total)) for a, b, w in atoms])
        primes = sorted(set().union(*(support_primes(g.a) for g in mu.support)))
        profile = drift_profile(mu)
        assert profile.vp_means == tuple((p, _vp_mean(mu, p)) for p in primes)
        for p in primes:
            assert drift(mu, p) == -_vp_mean(mu, p) * math.log(p)
        # 11 divides no slope drawn here, and 4 is no place
        assert drift(mu, 11) == 0.0
        with pytest.raises(ValueError, match="not a prime"):
            drift(mu, 4)
        enc = _encode(mu)
        assert enc.primes == tuple(primes)
        for g, step in zip(mu.support, enc.steps):
            assert [v for _, v, _ in step[4]] == [valuation(g.a, p) for p in primes]


def _integer_sign(mu):
    """Reference sign of the infinite drift by one integer comparison.

    With weights w_i = e_i / L over a common denominator L, the sign of
    sum w_i ln|a_i| is the sign of prod |num_i|^{e_i} - prod den_i^{e_i}.
    """
    lcm = math.lcm(*(w.denominator for w in mu.weights))
    num_prod = den_prod = 1
    for g, w in mu.atoms:
        e = w.numerator * (lcm // w.denominator)
        num_prod *= abs(g.a.numerator) ** e
        den_prod *= g.a.denominator ** e
    return (num_prod > den_prod) - (num_prod < den_prod)


def _near_null_law():
    """Weights w, 1 - w on x -> 3x and x -> x/2 + 1 with w = ln 2 / ln 6 to 80 digits.

    The infinite drift w ln 6 - ln 2 is about 10^-80: a float reads it as
    noise, and the integer comparison would raise 3 to a 79-digit power.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        w = F(Decimal(2).ln() / Decimal(6).ln())
    return w, StepDistribution({AffineMap(3, 0): w, AffineMap(F(1, 2), 1): 1 - w})


_SLOPES = st.sampled_from(
    [F(2), F(1, 2), F(3), F(1, 3), F(6), F(1, 6), F(-2), F(-1, 3), F(2, 3), F(4, 9), F(9, 8), F(1)]
)


class TestInfiniteSign:
    @given(st.lists(st.tuples(_SLOPES, st.integers(1, 6)), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_matches_integer_comparison(self, atoms):
        total = sum(w for _, w in atoms)
        mu = StepDistribution([((a, i), F(w, total)) for i, (a, w) in enumerate(atoms)])
        assert drift_profile(mu).infinite_sign == _integer_sign(mu)

    def test_weights_over_a_large_prime(self):
        # the integer comparison would raise 2 and 3 to powers near 10^9
        p = 10**9 + 7
        mu = StepDistribution({AffineMap(2, 0): F(1, p), AffineMap(F(1, 3), 1): F(p - 1, p)})
        start = time.perf_counter()
        assert drift_profile(mu).infinite_sign == -1
        assert time.perf_counter() - start < 1.0

    def test_drift_below_float_resolution(self, monkeypatch):
        w, mu = _near_null_law()
        # about 80 digits decide the sign: past a 64-digit budget, give up
        monkeypatch.setattr(measure, "_SIGN_DIGITS", 64)
        with pytest.raises(BudgetError):
            drift_profile(mu)
        monkeypatch.undo()
        with localcontext() as ctx:
            ctx.prec = 200
            exact = Decimal(w.numerator) / w.denominator * Decimal(6).ln() - Decimal(2).ln()
        assert drift_profile(mu).infinite_sign == (1 if exact > 0 else -1)

    def test_sign_decided_in_the_last_round(self, monkeypatch):
        # 32 and 64 digits leave the sign open, so a 128-digit budget must run
        # its 128-digit round, the last one it allows, to decide it
        w, mu = _near_null_law()
        monkeypatch.setattr(measure, "_SIGN_DIGITS", 128)
        with localcontext() as ctx:
            ctx.prec = 200
            exact = Decimal(w.numerator) / w.denominator * Decimal(6).ln() - Decimal(2).ln()
        assert drift_profile(mu).infinite_sign == (1 if exact > 0 else -1)


class TestApproximant:
    def test_bias_powers_of_two(self, mu_bias):
        prof = drift_profile(mu_bias)
        assert q_approximant(prof, 1) == 1
        assert q_approximant(prof, 2) == F(1, 2)
        assert q_approximant(prof, 4) == F(1, 4)

    def test_rev_mirrors(self, mu_rev):
        prof = drift_profile(mu_rev)
        assert q_approximant(prof, 2) == 2
        assert q_approximant(prof, 4) == 4

    def test_null_profile_gives_one(self, mu_sym):
        prof = drift_profile(mu_sym)
        for n in (1, 10, 100):
            assert q_approximant(prof, n) == 1

    def test_matches_valuation_growth(self, mu_bias):
        # v_2(q_n) = -floor(n/2) tracks n * phi_2 / ln 2 within 1
        from affwalk import valuation

        prof = drift_profile(mu_bias)
        for n in (1, 7, 50, 333):
            v = valuation(q_approximant(prof, n), 2)
            assert abs(-v - n * 0.5) <= 1.0


def _reference_convolve(p1, p2):
    """Law of g1 o g2 for independent g1 ~ p1, g2 ~ p2, on AffineMap and Fraction."""
    out = {}
    for g1, w1 in p1.items():
        for g2, w2 in p2.items():
            g = compose(g1, g2)
            w = w1 * w2
            prev = out.get(g)
            out[g] = w if prev is None else prev + w
    return out


def _reference_entropy(probs):
    return -math.fsum(float(w) * math.log(w) for w in probs.values() if w != 1)


# negative, unit and fractional linear parts; zero and fractional shifts
_LINEAR = st.sampled_from([F(2), F(1, 2), F(-2), F(-1, 3), F(3), F(2, 3), F(-1), F(1), F(5, 4)])
_SHIFTS = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-3, 4), F(2, 7), F(5)])
# a = 1 and negative linear parts; shift denominators 2, 3 and 7, so pairs of
# groups that land on one linear part meet over different denominators
_LINEAR_MIXED = st.sampled_from([F(1), F(-2), F(1, 2), F(-1, 3), F(3)])
_SHIFTS_MIXED = st.sampled_from([F(1, 2), F(-1, 3), F(2, 7), F(-5, 7), F(0), F(1)])


class TestConvolution:
    def test_square_of_fair_coin(self, mu_sym):
        table = power(mu_sym, 2)
        got = {
            (g.a, g.b): w for g, w in table.as_dict().items()
        }
        assert got == {
            (F(4), F(0)): F(1, 4),
            (F(1), F(1)): F(1, 4),
            (F(1), F(2)): F(1, 4),
            (F(1, 4), F(3, 2)): F(1, 4),
        }

    def test_zeroth_power_is_identity(self, mu_sym):
        table = power(mu_sym, 0)
        assert table.as_dict() == {AffineMap(1, 0): F(1)}

    def test_probabilities_sum_to_one(self, mu_bias):
        for n in (1, 3, 6):
            assert sum(power(mu_bias, n).as_dict().values()) == 1

    def test_convolve_matches_power(self, mu_bias):
        t2 = convolve(power(mu_bias, 1), power(mu_bias, 1))
        assert t2.as_dict() == power(mu_bias, 2).as_dict()

    def test_budget_guard(self, mu_sym):
        with pytest.raises(BudgetError):
            power(mu_sym, 8, cell_budget=10)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, mu_sym, budget):
        step = power(mu_sym, 1)
        with pytest.raises(ValueError, match="cell_budget"):
            convolve(step, step, budget)
        for n in (0, 2):
            with pytest.raises(ValueError, match="cell_budget"):
                power(mu_sym, n, budget)

    @given(
        st.lists(
            st.tuples(_LINEAR_MIXED, _SHIFTS_MIXED, st.integers(1, 9)), min_size=2, max_size=3
        ),
        st.integers(0, 4),
        st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    # x + 1/2 times x/2 + 2/7 and x/2 + 2/7 times x + 1/2 both land on a = 1/2,
    # over lcm(2, 1 * 7) = 14 and lcm(7, 2 * 2) = 28; at 3 and 2 steps, four
    # pairs land on a = 1/2 over four different lcms
    @example([(F(1), F(1, 2), 1), (F(1, 2), F(2, 7), 1), (F(-2), F(1, 3), 1)], 1, 1)
    @example([(F(1), F(1, 2), 1), (F(1, 2), F(2, 7), 1), (F(-2), F(1, 3), 1)], 3, 2)
    # a b = 0 atom at count 1 (its terms are copied as they are), at count 3
    # (copied with their counts scaled), and a law with no b = 0 atom
    @example([(F(2), F(0), 1), (F(1, 2), F(1), 1)], 4, 3)
    @example([(F(2), F(0), 3), (F(1, 2), F(1), 1)], 4, 3)
    @example([(F(3), F(1), 1), (F(1, 2), F(1, 3), 1), (F(2), F(-1), 1)], 3, 2)
    def test_convolve_multi_entry_tables(self, atoms, i, j):
        total = sum(w for _, _, w in atoms)
        mu = StepDistribution([((a, b), F(w, total)) for a, b, w in atoms])
        left, right = power(mu, i), power(mu, j)
        got, want = convolve(left, right), power(mu, i + j)
        assert got.as_dict() == want.as_dict()
        assert got.as_dict() == _reference_convolve(left.as_dict(), right.as_dict())
        assert got.support_size == want.support_size
        assert entropy(got) == entropy(want)
        assert (got.total, got.n) == (want.total, want.n)

    @given(
        st.lists(
            st.tuples(_LINEAR, _SHIFTS, st.integers(1, 9)), min_size=2, max_size=3
        )
    )
    @settings(max_examples=60, deadline=None)
    # weights 1/4, 1/6, 7/12: three denominators over the lcm 12
    @example([(F(-2), F(1, 3), 3), (F(1, 3), F(0), 2), (F(5, 2), F(-1), 7)])
    # b = 0 atoms at counts 1 and 3 over 4, and a law with no b = 0 atom
    @example([(F(2), F(0), 1), (F(1, 2), F(1), 1)])
    @example([(F(2), F(0), 3), (F(1, 2), F(1), 1)])
    @example([(F(3), F(1), 1), (F(1, 2), F(1, 3), 1), (F(2), F(-1), 1)])
    def test_matches_fraction_reference(self, atoms):
        total = sum(w for _, _, w in atoms)
        mu = StepDistribution([((a, b), F(w, total)) for a, b, w in atoms])
        ref = {IDENTITY: F(1)}
        for n in range(6):
            table = power(mu, n)
            assert table.as_dict() == ref
            assert table.support_size == len(ref)
            assert entropy(table) == _reference_entropy(ref)
            ref = _reference_convolve(ref, dict(mu.atoms))

    def test_convolve_never_aliases_its_inputs(self, mu_sym):
        left, step = power(mu_sym, 5), power(mu_sym, 1)
        for t1, t2 in ((left, step), (step, left), (left, left)):
            before = copy.deepcopy((t1.groups, t2.groups))
            out = convolve(t1, t2)
            assert (t1.groups, t2.groups) == before
            inputs = {id(counts) for t in (t1, t2) for _, counts in t.groups.values()}
            assert not any(id(counts) in inputs for _, counts in out.groups.values())
            assert out.as_dict() == _reference_convolve(t1.as_dict(), t2.as_dict())

    def test_support_growth_quadratic(self, mu_sym):
        # walk group is metabelian: supports grow polynomially, not 2^n
        sizes = [power(mu_sym, n).support_size for n in range(1, 7)]
        assert sizes == sorted(sizes)
        assert sizes[-1] < 2**6 * 4


class TestEntropy:
    def test_single_atom_zero(self):
        assert entropy(power(StepDistribution({AffineMap(2, 1): F(1)}), 1)) == 0.0

    def test_fair_coin_ln2(self, mu_sym):
        assert entropy(power(mu_sym, 1)) == pytest.approx(math.log(2))

    def test_h2_fair_coin_ln4(self, mu_sym):
        assert entropy(power(mu_sym, 2)) == pytest.approx(math.log(4), abs=1e-12)

    def test_subadditive(self, mu_bias):
        h1 = entropy(power(mu_bias, 1))
        h2 = entropy(power(mu_bias, 2))
        h3 = entropy(power(mu_bias, 3))
        assert h2 <= 2 * h1 + 1e-12
        assert h3 <= h1 + h2 + 1e-12

    def test_rate_nonincreasing(self, mu_sym, mu_bias):
        for mu in (mu_sym, mu_bias):
            rates = [entropy(power(mu, n)) / n for n in range(1, 9)]
            for a, b in zip(rates, rates[1:]):
                assert b <= a + 1e-12

    @given(weights_for(3))
    @settings(max_examples=20, deadline=None)
    def test_entropy_bounded_by_log_support(self, ws):
        mu = StepDistribution(
            [(AffineMap(2, 0), ws[0]), (AffineMap(3, 1), ws[1]),
             (AffineMap(F(1, 5), 2), ws[2])]
        )
        table = power(mu, 2)
        assert entropy(table) <= math.log(table.support_size) + 1e-12
