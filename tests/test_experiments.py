import concurrent.futures
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import pytest

from affwalk import (
    INFINITE_PLACE,
    AffineMap,
    StabilizationError,
    StepDistribution,
    cli,
    divergence_statistic,
    experiments,
    increment_valuation_rate,
)
from affwalk.experiments import (
    Report,
    Row,
    render_csv,
    render_json,
    run_boundary,
    run_drift,
    run_entropy,
    run_gauge,
    run_lln41,
    run_lln43,
    run_prop44,
    run_stationarity,
    run_validate,
    run_walk,
)
from affwalk.exact import height, log_norm_plus
from affwalk.measure import drift_profile, measure_config, power, q_approximant
from affwalk.padic import ball_key_exact
from affwalk.prng import replica_seed

F = Fraction


class TestRendering:
    def _report(self):
        rows = [
            Row("demo", "2", 10, 123, "stat", 0.5),
            Row("demo", "", 20, 124, "stat", -1.25),
        ]
        return Report(
            name="demo",
            config={"seed": 1, "alpha": "b"},
            rows=rows,
            summary={"x": 1.5},
            passed=True,
            notes=["truncated early"],
        )

    def test_csv_shape(self):
        text = render_csv(self._report())
        lines = text.splitlines()
        assert lines[0] == "# name demo"
        assert lines[1].startswith("# config ")
        assert json.loads(lines[1][len("# config "):]) == {"alpha": "b", "seed": 1}
        header_at = lines.index("experiment,p,n,seed,statistic,value")
        body = lines[header_at + 1:]
        assert body == ["demo,2,10,123,stat,0.5", "demo,,20,124,stat,-1.25"]
        assert text.endswith("\n")

    def test_csv_float_roundtrip(self):
        # repr round-trips doubles exactly
        row = Row("r", "", 1, 0, "v", 0.1 + 0.2)
        text = render_csv(Report("r", {}, [row], {}))
        value = text.splitlines()[-1].split(",")[-1]
        assert float(value) == 0.1 + 0.2

    def test_csv_heap_peak_is_near_twice_the_text(self):
        # the rows are joined in chunks, so no list of every line sits beside the text
        rows = [
            Row("stationarity", "2", i % 50, replica_seed(0, i), "ball_bucket", i / 7)
            for i in range(30_000)
        ]
        report = Report("stationarity", {"seed": 0}, rows, {"x": 1.5}, True)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            text = render_csv(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == 30_000 + 5
        assert peak - start <= 2.5 * len(text)

    def test_json_heap_peak_is_under_three_times_the_text(self):
        # rows are encoded a chunk at a time, so no dict per row sits beside the text
        rows = [
            Row("stationarity", "2", i % 50, replica_seed(0, i), "ball_bucket", i / 7)
            for i in range(30_000)
        ]
        report = Report("stationarity", {"seed": 0}, rows, {"x": 1.5}, True)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            text = render_json(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(json.loads(text)["rows"]) == 30_000
        assert peak - start <= 3 * len(text)

    @pytest.mark.parametrize("count", [0, 1, 1024, 1025, 2049])
    def test_json_matches_one_dumps_of_the_report(self, count):
        rows = [Row("demo", "2", i, i, "stat", [0.5, math.nan, -math.inf][i % 3]) for i in range(count)]
        report = Report("demo", {"rows": [], "n": {"rows": []}}, rows, {"h": math.inf}, None, ("a",))
        want = [r._asdict() for r in rows]
        for row in want:
            if not math.isfinite(row["value"]):
                row["value"] = repr(row["value"])
        payload = {
            "name": "demo",
            "config": report.config,
            "summary": report.summary,
            "notes": report.notes,
            "passed": None,
            "rows": want,
        }
        assert render_json(report) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_json_parses_and_sorts(self):
        blob = json.loads(render_json(self._report()))
        assert blob["name"] == "demo"
        assert blob["passed"] is True
        assert blob["rows"][0]["statistic"] == "stat"


class TestSmallSuites:
    def test_validate_report(self, mu_bias):
        rep = run_validate(mu_bias)
        assert rep.passed is True
        assert rep.summary["degenerate"] is False

    def test_validate_degenerate_fails(self):
        mu = StepDistribution({AffineMap(1, 1): F(1)})
        rep = run_validate(mu)
        assert rep.passed is False

    def test_drift_report(self, mu_bias):
        rep = run_drift(mu_bias)
        assert rep.passed is True
        assert rep.summary["exact_vp_means"] == {"2": "-1/2"}
        assert rep.summary["contracting_set"] == ["inf"]
        phi = {(r.p, r.statistic): r.value for r in rep.rows}
        assert phi[("2", "phi")] == pytest.approx(0.5 * math.log(2))
        assert phi[("inf", "phi")] == pytest.approx(-0.5 * math.log(2))

    def test_gauge_report(self):
        rep = run_gauge(math.log(2))
        assert rep.config == {"k": math.log(2), "k_max": 5.0}
        stats = {r.statistic: r.value for r in rep.rows}
        assert stats["count"] == 26.0
        assert rep.passed is True

    def test_walk_rows(self, mu_rev):
        rep = run_walk(mu_rev, 20, seed=3, primes=[2])
        v_rows = [r for r in rep.rows if r.statistic == "v_A"]
        assert len(v_rows) == 21  # snapshots at 0..20
        assert v_rows[0].value == 0.0


class TestMonteCarloSuites:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lln41_mean_matches_exact_law(self, mu_rev, seed):
        # height(q_n / A_n) / n is a function of A_n, so its mean and variance
        # are exact sums over power(mu, n); the Monte Carlo mean must lie
        # within 4 standard errors of the exact mean
        n, samples = 8, 4000
        q = q_approximant(experiments.drift_profile(mu_rev), n)
        law = [(float(w), height(q / g.a) / n) for g, w in power(mu_rev, n).as_dict().items()]
        mean = math.fsum(w * h for w, h in law)
        variance = math.fsum(w * (h - mean) ** 2 for w, h in law)
        rep = run_lln41(mu_rev, n_grid=[n], samples=samples, seed=seed)
        assert abs(rep.summary["means"][str(n)] - mean) <= 4 * math.sqrt(variance / samples)

    @pytest.mark.parametrize("place", [2, INFINITE_PLACE], ids=["2", "inf"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lln43_mean_matches_exact_law(self, mu_rev, place, seed):
        # <Z_n>_P^+ / n is a function of Z_n, so its mean and variance are
        # exact sums over power(mu, n); the Monte Carlo mean of the rows must
        # lie within 4 standard errors of the exact mean
        n, samples = 8, 4000
        law = [
            (float(w), log_norm_plus(g.b, place) / n) for g, w in power(mu_rev, n).as_dict().items()
        ]
        mean = math.fsum(w * h for w, h in law)
        variance = math.fsum(w * (h - mean) ** 2 for w, h in law)
        rep = run_lln43(mu_rev, [place], n_grid=[n], samples=samples, seed=seed)
        got = math.fsum(r.value for r in rep.rows) / samples
        assert len(rep.rows) == samples
        assert abs(got - mean) <= 4 * math.sqrt(variance / samples)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lln43_frequency_matches_exact_law(self, mu_rev, seed):
        # the event <Z_n>_P^+ / n <= bound is a function of Z_n, so its
        # probability is an exact sum over power(mu, n): 0.8591 at P = {inf},
        # eps = 0.1 and n = 8.  The final frequency must lie within 4 standard
        # errors of it, a width fixed before the first run
        n, samples = 8, 4000
        bound = drift_profile(mu_rev).phi_plus(INFINITE_PLACE) + 0.1
        exact = math.fsum(
            float(w)
            for g, w in power(mu_rev, n).as_dict().items()
            if log_norm_plus(g.b, INFINITE_PLACE) / n <= bound
        )
        rep = run_lln43(mu_rev, [INFINITE_PLACE], n_grid=[n], samples=samples, seed=seed)
        assert rep.summary["bound"] == bound
        error = math.sqrt(exact * (1 - exact) / samples)
        assert abs(rep.summary["final_frequency"] - exact) <= 4 * error

    def test_lln41_decreases(self, mu_bias):
        rep = run_lln41(mu_bias, n_grid=[50, 100, 200], samples=30, seed=2)
        means = rep.summary["means"]
        assert list(means) == ["50", "100", "200"]
        assert means["200"] < means["50"]

    def test_lln43_all_places_trivial_bound(self, mu_bias):
        # P = {} makes the partial height zero, so the event always holds
        rep = run_lln43(mu_bias, [], n_grid=[50, 100], samples=10, seed=0)
        assert rep.summary["final_frequency"] == 1.0

    def test_lln43_rejects_nonpositive_epsilon(self, mu_bias):
        with pytest.raises(ValueError):
            run_lln43(mu_bias, [2], n_grid=[50], samples=5, seed=0, epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "run",
        [
            lambda mu, eps: run_lln43(mu, [2], n_grid=[10], samples=5, epsilon=eps),
            lambda mu, eps: run_prop44(mu, [2], n_grid=[10], samples=5, epsilon=eps),
        ],
        ids=["lln43", "prop44"],
    )
    def test_epsilon_is_finite_before_any_walk(self, mu_rev, monkeypatch, run, epsilon):
        # NaN passed no replica and infinity passed every one
        def unbuilt(*args):
            raise AssertionError("a walker was built")

        monkeypatch.setattr(experiments, "_Walker", unbuilt)
        with pytest.raises(ValueError, match="^epsilon must be finite and positive$"):
            run(mu_rev, epsilon)

    @pytest.mark.parametrize(
        "suite, keyword, value, message",
        [
            *[
                (suite, "freq_threshold", value, r"^frequency threshold must lie in \[0, 1\]$")
                for suite in ("lln43", "prop44")
                for value in (1.5, -1.0, math.nan, math.inf)
            ],
            *[
                ("stationarity", "tv_threshold", value, r"^TV threshold must lie in \(0, 1\]$")
                for value in (-1.0, 0.0, 2.0, math.nan)
            ],
            *[
                ("lln41", "final_bound", value, "^final bound must be finite and positive$")
                for value in (math.nan, math.inf, 0.0, -1.0)
            ],
        ],
    )
    def test_verdict_threshold_checked_before_any_walk(
        self, mu_rev, monkeypatch, suite, keyword, value, message
    ):
        # outside its range a threshold decides the verdict whatever the walks read
        def unbuilt(*args):
            raise AssertionError("a walker was built")

        monkeypatch.setattr(experiments, "_Walker", unbuilt)
        runs = {
            "lln41": lambda **kw: run_lln41(mu_rev, n_grid=[10], samples=4, **kw),
            "lln43": lambda **kw: run_lln43(mu_rev, [2], n_grid=[10], samples=4, **kw),
            "prop44": lambda **kw: run_prop44(mu_rev, [2], n_grid=[10], samples=4, **kw),
            "stationarity": lambda **kw: run_stationarity(mu_rev, 2, 4, 10, samples=4, **kw),
        }
        with pytest.raises(ValueError, match=message):
            runs[suite](**{keyword: value})

    def test_verdict_thresholds_at_their_range_ends(self, mu_rev):
        for threshold in (0.0, 1.0):
            rep = run_lln43(mu_rev, [2], n_grid=[10], samples=4, freq_threshold=threshold)
            assert rep.passed is (rep.summary["final_frequency"] >= threshold)
        rep = run_stationarity(mu_rev, 2, 4, 10, samples=4, tv_threshold=1.0)
        assert rep.passed is (rep.summary["tv_distance"] < 1.0)

    def test_prop44_validates_place_set(self, mu_rev):
        # the infinite place does not contract for mu_rev
        with pytest.raises(ValueError):
            run_prop44(mu_rev, [INFINITE_PLACE], n_grid=[50], samples=5, seed=0)

    def test_prop44_rev_runs(self, mu_rev):
        rep = run_prop44(mu_rev, [2], n_grid=[50, 100], samples=15, seed=1)
        assert rep.summary["probe_miss_rate"] <= 0.1
        assert rep.summary["n_stab"] == 400
        assert 0.0 <= rep.summary["final_frequency"] <= 1.0

    def test_cross_suite_height_consistency(self, mu_bias):
        """Same seeds walk the same paths in lln41 and lln43."""
        grid = [60, 120]
        r41 = run_lln41(mu_bias, n_grid=grid, samples=8, seed=5)
        r43 = run_lln43(mu_bias, [2, INFINITE_PLACE], n_grid=grid, samples=8, seed=5)
        seeds41 = {r.seed for r in r41.rows}
        seeds43 = {r.seed for r in r43.rows}
        assert seeds41 == seeds43

    @pytest.mark.parametrize(
        "run, law, kwargs, grid",
        [
            (run_lln41, "mu_bias", dict(n_grid=[40, 80]), None),
            (run_lln43, "mu_bias", dict(places=[2], n_grid=[40, 80]), None),
            (run_prop44, "mu_rev", dict(places=[2], n_grid=[20, 40]), None),
            (run_stationarity, "mu_rev", dict(p=2, radius_exponent=4, n=30), None),
            (run_lln41, "mu_bias", dict(n_grid=[40, 20, 40]), [20, 40]),
            (run_lln43, "mu_bias", dict(places=[2], n_grid=[40, 20, 40]), [20, 40]),
            (run_prop44, "mu_rev", dict(places=[2], n_grid=[40, 20, 40]), [20, 40]),
        ],
        ids=["lln41", "lln43", "prop44", "stationarity",
             "lln41-unsorted-grid", "lln43-unsorted-grid", "prop44-unsorted-grid"],
    )
    def test_worker_count_invariance(self, request, run, law, kwargs, grid):
        # the pooled path yields each chunk as it arrives: same rows, same order;
        # a grid suite sorts its grid and drops repeated points before any walk
        mu = request.getfixturevalue(law)
        r1 = run(mu, samples=12, seed=9, workers=1, **kwargs)
        r3 = run(mu, samples=12, seed=9, workers=3, **kwargs)
        assert render_csv(r1) == render_csv(r3)
        if grid is not None:
            normal = run(mu, samples=12, seed=9, workers=1, **{**kwargs, "n_grid": grid})
            assert render_csv(r1) == render_csv(normal)

    def test_stationarity_small(self, mu_rev):
        rep = run_stationarity(
            mu_rev, 2, radius_exponent=4, n=30, samples=400, seed=4
        )
        assert rep.summary["tv_distance"] < 0.25
        assert rep.summary["probe_miss_rate"] < 0.05

    def test_stationarity_rejects_expanding_prime(self, mu_bias):
        with pytest.raises(ValueError):
            run_stationarity(mu_bias, 2, radius_exponent=4, n=10, samples=5, seed=0)

    def test_stationarity_rejects_infinite_place(self):
        # the infinite place contracts here, but ball keys need a finite prime
        mu = StepDistribution({AffineMap(F(1, 2), 1): F(1, 2), AffineMap(F(1, 3), 0): F(1, 2)})
        assert experiments.drift_profile(mu).contracting() == {INFINITE_PLACE}
        with pytest.raises(ValueError, match="^stationarity needs a finite prime$"):
            run_stationarity(mu, INFINITE_PLACE, radius_exponent=4, n=10, samples=5, seed=0)

    @pytest.mark.parametrize("place", [2.0, True, 4])
    @pytest.mark.parametrize(
        "run",
        [
            lambda mu, p: run_stationarity(mu, p, radius_exponent=6, n=50, samples=5),
            lambda mu, p: run_prop44(mu, [p], n_grid=[1000], samples=5),
            lambda mu, p: run_lln43(mu, [3, p], n_grid=[10], samples=5),
        ],
        ids=["stationarity", "prop44", "lln43"],
    )
    def test_place_must_be_a_prime_before_any_walk(self, mu_rev, monkeypatch, run, place):
        # 2.0 == 2 passes the contraction lookup, but a valuation needs an int prime
        def unbuilt(*args):
            raise AssertionError("a walker was built")

        monkeypatch.setattr(experiments, "_Walker", unbuilt)
        with pytest.raises(ValueError, match=f"^not a prime: {place!r}$"):
            run(mu_rev, place)

    def test_stationarity_lock_hits_step_cap(self, mu_rev, monkeypatch):
        # a 40-digit lock needs far more than the 10 steps the cap leaves
        monkeypatch.setattr(experiments, "DEFAULT_STEP_CAP", 60)
        with pytest.raises(StabilizationError) as info:
            run_stationarity(mu_rev, 2, radius_exponent=40, n=50, samples=2, seed=0)
        assert info.value.steps == 60

    def test_stationarity_step_cap_checked_before_any_walk(self, mu_rev, monkeypatch):
        # a lock holds for margin steps past the n-step prefix, so it needs
        # n + margin <= cap; past that no walker is built
        monkeypatch.setattr(experiments, "DEFAULT_STEP_CAP", 60)
        walkers = []
        walker_class = experiments._Walker

        def counted(*args):
            walkers.append(args)
            return walker_class(*args)

        monkeypatch.setattr(experiments, "_Walker", counted)
        for n in (10**12, 29):
            with pytest.raises(StabilizationError) as info:
                run_stationarity(mu_rev, 2, radius_exponent=40, n=n, samples=2, seed=0)
            assert str(info.value) == "no lock within 60 steps"
            assert info.value.steps == 60
        assert walkers == []
        with pytest.raises(ValueError, match="margin must be at least 1"):
            run_stationarity(mu_rev, 2, radius_exponent=40, n=10**12, margin=0, samples=2)
        assert walkers == []
        # at n + margin = cap the walk runs, and the lock's own cap stops it
        with pytest.raises(StabilizationError) as info:
            run_stationarity(mu_rev, 2, radius_exponent=40, n=28, samples=2, seed=0)
        assert info.value.steps == 60
        assert len(walkers) == 1

    def test_prop44_margin_checked_before_any_walk(self, mu_rev, monkeypatch):
        # the replicas' probe takes the margin unchecked, so the suite checks it first
        walkers = []
        walker_class = experiments._Walker

        def counted(*args):
            walkers.append(args)
            return walker_class(*args)

        monkeypatch.setattr(experiments, "_Walker", counted)
        with pytest.raises(ValueError, match="margin must be at least 1"):
            run_prop44(mu_rev, [2], n_grid=[10, 20], samples=2, seed=0, margin=0)
        assert walkers == []

    @pytest.mark.parametrize("radius, n", [(6, 50), (4, 0), (4, 33)])
    def test_stationarity_replica_walks_its_row_steps(self, mu_rev, monkeypatch, radius, n):
        # each replica walks the lock index of its probe_miss row plus margin
        # steps, the count the benchmark's work rests on
        walked = []
        probe = experiments._Walker.probe

        def counted(walker, *args):
            result = probe(walker, *args)
            walked.append(walker.count)
            return result

        monkeypatch.setattr(experiments._Walker, "probe", counted)
        rep = run_stationarity(mu_rev, 2, radius, n, samples=40, seed=9, margin=7)
        rows = [r for r in rep.rows if r.statistic == "probe_miss"]
        assert walked == [r.n + 7 for r in rows]
        assert all(r.n >= n + 7 for r in rows)

    def test_stationarity_3adic_fine_radius(self):
        # residues reach 3^30 > 2^46, past any float-exact bucket encoding
        mu = StepDistribution({AffineMap(3, 0): F(3, 4), AffineMap(F(1, 3), 1): F(1, 4)})
        rep = run_stationarity(mu, 3, radius_exponent=30, n=20, samples=20, seed=1)
        assert len(rep.rows) == 60
        assert 20 <= rep.summary["buckets"] <= 40
        assert max(r.value for r in rep.rows) > 2.0**53

    def test_stationarity_buckets_on_exact_keys(self, mu_rev, monkeypatch):
        # v = 64 with residue 1 and v = -64 with residue 2 share the row label 256
        keys = (ball_key_exact(F(2, 3**64), 3, 70), ball_key_exact(F(3**64), 3, 70))
        monkeypatch.setattr(
            experiments, "_stationarity_replica", lambda seed, **_: (seed, keys, 0, True)
        )
        rep = run_stationarity(mu_rev, 2, radius_exponent=4, n=5, samples=3, seed=0)
        assert {r.value for r in rep.rows if r.statistic == "ball_bucket"} == {256.0}
        assert rep.summary["buckets"] == 2
        assert rep.summary["tv_distance"] == 1.0

    @pytest.mark.parametrize(
        "run, kwargs",
        [
            (run_lln41, {"n_grid": [0, 5]}),
            (run_lln43, {"n_grid": []}),
            (run_lln41, {"n_grid": [5], "samples": 0}),
            (run_prop44, {"places": [2], "n_grid": [5], "samples": 0}),
            (run_prop44, {"places": [], "n_grid": [5], "samples": 1}),
            (run_stationarity, {"p": 2, "radius_exponent": 4, "n": 5, "samples": 0}),
            (run_stationarity, {"p": 2, "radius_exponent": 4, "n": 5, "samples": -1}),
            (run_stationarity, {"p": 2, "radius_exponent": 4, "n": -3, "samples": 2}),
            (run_lln41, {"n_grid": [5], "samples": 2, "workers": 0}),
            (run_lln41, {"n_grid": [2.5]}),
            (run_lln43, {"n_grid": [10.0]}),
            (run_prop44, {"places": [2], "n_grid": [10, 20.5]}),
            (run_stationarity, {"p": 2, "radius_exponent": 4, "n": 10.5}),
            (divergence_statistic, {"place": INFINITE_PLACE, "n": 0, "samples": 2, "seed": 0}),
            (divergence_statistic, {"place": INFINITE_PLACE, "n": 5, "samples": 0, "seed": 0}),
            (increment_valuation_rate, {"p": 2, "n": 0, "seed": 0}),
            (run_walk, {"n": 2.5}),
            (run_entropy, {"n_max": 2.5}),
            (run_boundary, {"p": 2, "digits": 2.5}),
            (run_lln41, {"n_grid": [True], "samples": 1}),
            (run_stationarity, {"p": 2, "radius_exponent": 4, "n": True, "samples": 2}),
            (run_walk, {"n": True}),
            (run_entropy, {"n_max": True}),
            (run_boundary, {"p": 2, "digits": True}),
            (run_stationarity, {"p": 2, "radius_exponent": 4, "n": 5, "samples": 2.5}),
            (run_stationarity, {"p": 2, "radius_exponent": 4, "n": 5, "samples": True}),
            (run_stationarity, {"p": 2, "radius_exponent": 4, "n": 5, "samples": 2,
                                "workers": 1.5}),
            (run_stationarity, {"p": 2, "radius_exponent": 2.5, "n": 5, "samples": 2}),
            (run_stationarity, {"p": 2, "radius_exponent": True, "n": 5, "samples": 2}),
            (run_prop44, {"places": [2], "n_grid": [5], "samples": 1, "margin": 2.5}),
            (run_prop44, {"places": [2], "n_grid": [5], "samples": 1, "stab_factor": True}),
            (run_entropy, {"n_max": 2, "cell_budget": 2.5}),
        ],
        ids=["grid-zero", "grid-empty", "lln41-samples-0", "prop44-samples-0",
             "prop44-no-places", "stationarity-samples-0", "stationarity-samples-negative",
             "stationarity-n-negative", "lln41-workers-0", "lln41-grid-float",
             "lln43-grid-integral-float", "prop44-grid-float", "stationarity-n-float",
             "divergence-n-0",
             "divergence-samples-0", "increment-rate-n-0", "walk-n-float",
             "entropy-n-max-float", "boundary-digits-float", "lln41-grid-bool",
             "stationarity-n-bool", "walk-n-bool", "entropy-n-max-bool",
             "boundary-digits-bool", "stationarity-samples-float",
             "stationarity-samples-bool", "stationarity-workers-float",
             "stationarity-radius-float", "stationarity-radius-bool", "prop44-margin-float",
             "prop44-stab-factor-bool", "entropy-cell-budget-float"],
    )
    def test_range_checks_raise_value_error(self, mu_rev, run, kwargs):
        with pytest.raises(ValueError):
            run(mu_rev, **kwargs)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedReports:
    """Report bytes of small runs, fixed so engine refactors cannot move them."""

    def test_stationarity_bytes(self, mu_rev):
        rep = run_stationarity(mu_rev, 2, 6, 50, samples=500, seed=9)
        assert _sha256(render_csv(rep)) == (
            "edb8b1fb3de68bedecb95aa8f07d6172b759f77f0954ddb827af3fa695c1a2f6"
        )

    def test_lln41_bytes(self, mu_bias):
        rep = run_lln41(mu_bias, n_grid=[50, 100], samples=12, seed=3)
        assert _sha256(render_csv(rep)) == (
            "9378ab899d9bafb1bf9b8b7c6735eb5212c92710426f6425edbcd31c6fe9ef70"
        )

    def test_lln43_bytes(self, mu_bias):
        rep = run_lln43(mu_bias, [2, INFINITE_PLACE], n_grid=[50, 100], samples=12, seed=3)
        assert _sha256(render_csv(rep)) == (
            "5e74631578f8a2a5a0b3594fc99dc9fdb3e98614447fc054ec9182bb650fe124"
        )

    def test_lln43_repeated_place_counts_once(self, mu_bias):
        args = dict(n_grid=[50, 100], samples=12, seed=3)
        once = run_lln43(mu_bias, [2, INFINITE_PLACE], **args)
        twice = run_lln43(mu_bias, [2, INFINITE_PLACE, INFINITE_PLACE], **args)
        assert render_csv(twice) == render_csv(once)

    def test_prop44_joint_bytes(self):
        # contracts at both 2 and the infinite place
        mu = StepDistribution({
            AffineMap(F(2, 3), 1): F(1, 2),
            AffineMap(F(4, 5), 0): F(1, 4),
            AffineMap(F(4, 5), F(1, 7)): F(1, 4),
        })
        rep = run_prop44(
            mu, [2, INFINITE_PLACE], n_grid=[10, 30], samples=8, seed=6, stab_factor=2, margin=8
        )
        assert _sha256(render_csv(rep)) == (
            "23901cef77256d8c17b938c06cc1b41614a73ae2677cda9a65d131dc06baa815"
        )

    def test_walk_bytes(self, mu_rev):
        rep = run_walk(mu_rev, 300, seed=3, primes=[2, 3])
        assert _sha256(render_csv(rep)) == (
            "e88b6680670ed728e0b7deccc25b3d3b1e24ea1b5159e35de3a19dae83944cc7"
        )

    def test_walk_repeated_prime_counts_once(self, mu_rev):
        once = run_walk(mu_rev, 3, seed=0, primes=[3])
        twice = run_walk(mu_rev, 3, seed=0, primes=[3, 3])
        assert render_csv(twice) == render_csv(once)

    def test_boundary_bytes(self, mu_rev):
        rep = run_boundary(mu_rev, 2, digits=16, seed=5)
        assert _sha256(render_csv(rep)) == (
            "ba78979cc270bc7cc94dd91ae80997dd734c1c6c3e697015bba45138a9f10220"
        )

    def test_stationarity_3adic_bytes(self):
        # odd-prime ball keys whose residues pass 2^53
        mu = StepDistribution({AffineMap(3, 0): F(3, 4), AffineMap(F(1, 3), 1): F(1, 4)})
        rep = run_stationarity(mu, 3, radius_exponent=30, n=20, samples=20, seed=1)
        assert _sha256(render_csv(rep)) == (
            "fcd1ab678c01abd56e8021afc0a4ece725bfce950c65e24bf7c350f6fb6a355c"
        )

    def test_boundary_3adic_bytes(self):
        # the locked value is 22236399690088711/3: an expansion starting at v = -1
        mu = StepDistribution({AffineMap(3, 0): F(3, 4), AffineMap(F(1, 3), 1): F(1, 4)})
        rep = run_boundary(mu, 3, digits=16, seed=5)
        assert rep.summary["digits"].endswith("start=-1")
        assert _sha256(render_csv(rep)) == (
            "ef9e9f057e30b675a024749cfc3d0e40e48d223fcb9df17f4bbbc264bcd607a4"
        )

    def test_prop44_finite_bytes(self, mu_rev):
        rep = run_prop44(mu_rev, [2], n_grid=[125, 250], samples=30)
        assert _sha256(render_csv(rep)) == (
            "e8a10929252cef40459c0031fddf010404988b68016b8e5adafaca7e3ad55c15"
        )

    def test_prop44_real_bytes(self, mu_bias):
        rep = run_prop44(mu_bias, [INFINITE_PLACE], n_grid=[125, 250], samples=30)
        assert _sha256(render_csv(rep)) == (
            "3a19fc4a535c50b641a948f07ff03f872ca9fdb88e5a19dc16570f72a0ddc5a8"
        )

    def test_entropy_cli_bytes(self, mu_sym, tmp_path, capsys):
        # the CLI report of the timed entropy size in bench/workloads.py
        cfg = tmp_path / "sym.json"
        cfg.write_text(json.dumps({"measure": measure_config(mu_sym)}))
        assert cli.main(["--config", str(cfg), "entropy", "--n-max", "16"]) == 0
        assert _sha256(capsys.readouterr().out) == (
            "d1455856ad92710cecca49fd221080dd843c53202b24fb557d95ddcbe3669cd1"
        )

    def test_entropy_values_negative_slope(self):
        # three atoms, one with a < 0, weights over 3, 2 and 6
        mu = StepDistribution({
            AffineMap(-2, 1): F(1, 3),
            AffineMap(F(1, 3), F(-1, 2)): F(1, 2),
            AffineMap(F(3, 2), 0): F(1, 6),
        })
        rep = run_entropy(mu, n_max=10)
        assert [repr(r.value) for r in rep.rows if r.statistic == "H"] == [
            "1.0114042647073518", "2.0228085294147036", "3.034212794122055",
            "4.039199029379778", "5.007412690237931", "5.949931578534977",
            "6.847411071138754", "7.6969853158044375", "8.495110772531442",
            "9.248876818577681",
        ]

    def test_entropy_bias_bytes(self, mu_bias):
        rep = run_entropy(mu_bias, n_max=14)
        assert _sha256(render_csv(rep)) == (
            "b0532dc5cae5a79e5ddf2b0855397bb87f28c9933a805650fda6fa752ffaf53d"
        )

    def test_entropy_three_atom_bytes(self):
        # the prop44 joint law: linear parts 2/3 and 4/5, denominators 3, 5 and 7
        mu = StepDistribution({
            AffineMap(F(2, 3), 1): F(1, 2),
            AffineMap(F(4, 5), 0): F(1, 4),
            AffineMap(F(4, 5), F(1, 7)): F(1, 4),
        })
        rep = run_entropy(mu, n_max=9)
        assert _sha256(render_csv(rep)) == (
            "19cd3aeaf8abc9ff5c8806e9c8ed006abfad278c95a0f07f7cb7afc5eb3ec9df"
        )


class _InlinePool:
    """Stand-in for ProcessPoolExecutor: records the pool size, runs inline."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.mark.parametrize(
    "workers, samples, cpus, pool",
    [
        (10**6, 5, 4, [4]),  # capped by the CPU count
        (8, 3, 64, [3]),  # capped by the number of chunks
        (4, 5, None, []),  # unknown CPU count: one worker, no pool
    ],
    ids=["cpus", "chunks", "no-cpu-count"],
)
def test_fan_out_clamps_workers(mu_bias, monkeypatch, workers, samples, cpus, pool):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    args = dict(n_grid=[10], samples=samples, seed=1)
    rep = run_lln41(mu_bias, workers=workers, **args)
    assert _InlinePool.sizes == pool
    assert render_csv(rep) == render_csv(run_lln41(mu_bias, workers=1, **args))


class TestEntropySuite:
    def test_report_fields(self, mu_sym):
        rep = run_entropy(mu_sym, n_max=8)
        assert rep.summary["computed_to"] == 8
        stats = {(r.statistic, r.n) for r in rep.rows}
        assert ("H", 8) in stats and ("H_rate", 8) in stats

    def test_budget_truncation_graceful(self, mu_sym):
        rep = run_entropy(mu_sym, n_max=10, cell_budget=20)
        assert rep.summary["computed_to"] < 10
        assert rep.notes  # says it truncated

    def test_dichotomy_flags(self, mu_sym, mu_bias):
        assert run_entropy(mu_sym, n_max=10).summary["trending_to_zero"] is True
        assert run_entropy(mu_bias, n_max=10).summary["trending_to_zero"] is False
