"""Experiment suites and machine-readable reports.

Each suite runs independent seeded replicas, each of which returns plain
values (and a grid suite's replica, any rows of its own) with its seed
first; the suite builds the report rows (experiment, p, n, seed,
statistic, value) from them and summarizes the values against the
configured bound.  Replicas may be fanned out to a
process pool; the suites consume the results as they arrive, in replica
index order, so output bytes are identical for any worker count.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter, namedtuple
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import BudgetError, StabilizationError
from .exact import (
    INFINITE_PLACE,
    Place,
    _require_count,
    format_place,
    format_rational,
    height,
    log_norm,
    log_norm_plus,
    valuation,
)
from .group import GAUGE_K_MAX, gauge_count_bound, gauge_enumerate
from .measure import (
    DEFAULT_CELL_BUDGET,
    StepDistribution,
    _drift_sum_bound,
    convolve,
    drift,
    drift_profile,
    entropy,
    measure_config,
    power,
    q_approximant,
    validate,
)
from .padic import ball_key_exact
from .prng import replica_seed
from .walk import DEFAULT_MARGIN, DEFAULT_STEP_CAP, _encode, _places, _Walker, boundary_digits

__all__ = [
    "Row",
    "Report",
    "render_csv",
    "render_json",
    "run_validate",
    "run_drift",
    "run_gauge",
    "run_walk",
    "run_boundary",
    "run_lln41",
    "run_lln43",
    "run_prop44",
    "run_entropy",
    "run_stationarity",
]

DEFAULT_GRID = (125, 250, 500, 1000, 2000)
DEFAULT_EPSILON = 0.1
DEFAULT_SAMPLES = 100

# calibration defaults for pass verdicts; recorded in every report
DEFAULT_FREQ_THRESHOLD_LLN43 = 0.95
DEFAULT_FREQ_THRESHOLD_PROP44 = 0.9
DEFAULT_FINAL_BOUND_LLN41 = 0.05 * math.log(2)
SEED_RULE = "seed_i = seed XOR mix64(i)"

# rows per joined block of CSV or JSON text
_CHUNK_ROWS = 1024


Row = namedtuple("Row", "experiment p n seed statistic value")


class Report(
    namedtuple("Report", "name config rows summary passed notes", defaults=(None, ()))
):
    """One experiment's resolved config, raw rows, and summary verdict."""

    __slots__ = ()


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render_csv(report: Report) -> str:
    """Deterministic CSV: config and summary as comments, then the rows.

    The rows are joined ``_CHUNK_ROWS`` at a time and the chunks once at
    the end, so the heap never holds a list of every line beside the text.
    """
    lines = [
        f"# name {report.name}",
        f"# config {_dumps(report.config)}",
        f"# summary {_dumps(report.summary)}",
    ]
    for note in report.notes:
        lines.append(f"# note {note}")
    if report.passed is not None:
        lines.append(f"# passed {str(report.passed).lower()}")
    lines.append("experiment,p,n,seed,statistic,value")
    chunks = ["\n".join(lines)]
    rows = iter(report.rows)
    while chunk := [
        f"{r.experiment},{r.p},{r.n},{r.seed},{r.statistic},{r.value!r}"
        for r in islice(rows, _CHUNK_ROWS)
    ]:
        chunks.append("\n".join(chunk))
    chunks.append("")  # the final newline, without a copy of the text
    return "\n".join(chunks)


def _json_row(r: Row) -> dict:
    row = r._asdict()
    if isinstance(r.value, float) and not math.isfinite(r.value):
        row["value"] = repr(r.value)
    return row


def render_json(report: Report) -> str:
    """Deterministic JSON (RFC 8259): a non-finite row value is written as the CSV writes it.

    The text is ``json.dumps(..., sort_keys=True, indent=2)`` of the whole
    report, but the rows are encoded ``_CHUNK_ROWS`` at a time and every
    piece is joined once at the end, so the heap never holds a dict per row.
    """
    payload = {
        "name": report.name,
        "config": report.config,
        "summary": report.summary,
        "notes": report.notes,
        "passed": report.passed,
        "rows": [],
    }
    # no JSON string holds a raw newline, so this is the top-level "rows" key
    head, _, tail = json.dumps(payload, sort_keys=True, indent=2).partition('\n  "rows": []')
    pieces = [head, '\n  "rows": [']
    rows = iter(report.rows)
    while chunk := [_json_row(r) for r in islice(rows, _CHUNK_ROWS)]:
        # "[\n  {...},\n  {...}\n]" without its brackets, two spaces deeper
        text = json.dumps(chunk, sort_keys=True, indent=2)[1:-2].replace("\n", "\n  ")
        pieces.append(text if len(pieces) == 2 else "," + text)
    pieces.append("\n  ]" if len(pieces) > 2 else "]")
    pieces.append(tail + "\n")
    return "".join(pieces)


def _partial_plus(z: Fraction, places: Iterable[Place]) -> float:
    return math.fsum(log_norm_plus(z, p) for p in places)


def _suite_config(mu: StepDistribution, seed: int, samples: int, **params) -> dict:
    """A replica suite's config: the law, the suite's parameters, and how replicas are seeded."""
    seeding = {"seed": seed, "samples": samples, "seed_rule": SEED_RULE}
    return {"measure": measure_config(mu), **params, **seeding}


# ---------------------------------------------------------------------------
# replica fan-out


def _fan_out(fn: Callable[[int], object], base_seed: int, samples: int, workers: int) -> Iterator:
    """``fn(seed_i)`` for every replica, yielded in index order as results arrive.

    The results are identical for any worker count.  The range checks run at
    the call; the replicas run as the caller consumes them, one at a time at
    one worker and at several through the pool's ``map``, a chunk of about
    samples / (4 * workers) seeds per job.  ``fn`` is a module-level replica
    or a ``functools.partial`` of one, so a chunk pickles it by name.  The
    pool never exceeds the CPU count or the number of chunks.
    """
    _require_count(samples, "sample count", 1)
    workers = min(_require_count(workers, "worker count", 1), os.cpu_count() or 1)
    seeds = map(partial(replica_seed, base_seed), range(samples))
    if workers <= 1:
        return map(fn, seeds)
    chunk = max(1, math.ceil(samples / (workers * 4)))
    return _pooled(fn, seeds, chunk, min(workers, math.ceil(samples / chunk)))


def _pooled(fn: Callable, seeds: Iterator[int], chunk: int, workers: int) -> Iterator:
    # imported here: the pool's import tree is a cost a 1-worker run never pays
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, seeds, chunksize=chunk)


def _grid(n_grid: Sequence[int]) -> list[int]:
    """The distinct grid points in increasing order; there is one, all positive integers."""
    if not n_grid:
        raise ValueError("n grid must not be empty")
    return sorted({_require_count(n, "grid point", 1) for n in n_grid})


# ---------------------------------------------------------------------------
# thin wrappers over home-module results


def run_validate(mu: StepDistribution) -> Report:
    report = validate(mu)
    summary = {
        "degenerate": report.degenerate,
        "reason": report.reason,
        "fixed_point": (
            format_rational(report.fixed_point)
            if report.fixed_point is not None
            else None
        ),
    }
    rows = [Row("validate", "", 0, 0, "degenerate", float(report.degenerate))]
    return Report(
        name="validate",
        config={"measure": measure_config(mu)},
        rows=rows,
        summary=summary,
        passed=not report.degenerate,
    )


def run_drift(mu: StepDistribution) -> Report:
    profile = drift_profile(mu)
    rows = []
    for p, phi in profile.finite_drifts:
        rows.append(Row("drift", str(p), 0, 0, "phi", phi))
    rows.append(Row("drift", "inf", 0, 0, "phi", profile.infinite_drift))
    # compare the direct mean of ln|a| with minus the finite-drift sum
    residual = drift(mu, INFINITE_PLACE) + math.fsum(
        v for _, v in profile.finite_drifts
    )
    summary = {
        "exact_vp_means": {str(p): format_rational(c) for p, c in profile.vp_means},
        "contracting_set": sorted(format_place(p) for p in profile.contracting()),
        "product_formula_residual": residual,
        "infinite_sign": profile.infinite_sign,
    }
    return Report(
        name="drift",
        config={"measure": measure_config(mu)},
        rows=rows,
        summary=summary,
        passed=abs(residual) <= _drift_sum_bound(mu),
    )


def run_gauge(k: float, k_max: float = GAUGE_K_MAX) -> Report:
    elements = gauge_enumerate(k, k_max)
    bound = gauge_count_bound(k)
    count = len(elements)
    rows = [
        Row("gauge", "", 0, 0, "count", float(count)),
        Row("gauge", "", 0, 0, "bound", bound),
    ]
    return Report(
        name="gauge",
        config={"k": k, "k_max": k_max},
        rows=rows,
        summary={"count": count, "bound": bound},
        passed=count <= bound,
    )


def run_walk(
    mu: StepDistribution, n: int = 100, seed: int = 0, primes: Sequence[int] = ()
) -> Report:
    """Dump one trajectory's growth statistics (plot-ready)."""
    _require_count(n, "walk length")
    primes = tuple(dict.fromkeys(primes))  # each prime counts once
    walker = _Walker(_encode(mu), seed)
    places = [(p, str(p)) for p in primes]
    rows = []

    def snapshot(m: int):
        a, z = walker.a, walker.z
        rows.append(Row("walk", "", m, seed, "log_abs_A", log_norm(a, INFINITE_PLACE)))
        lz = log_norm(z, INFINITE_PLACE) if z != 0 else -math.inf
        rows.append(Row("walk", "", m, seed, "log_abs_Z", lz))
        for p, label in places:
            rows.append(Row("walk", label, m, seed, "v_A", float(valuation(a, p))))
            rows.append(Row("walk", label, m, seed, "v_Z", float(valuation(z, p))))

    snapshot(0)
    step = walker.step
    for m in range(1, n + 1):
        step()
        snapshot(m)
    return Report(
        name="walk",
        config={
            "measure": measure_config(mu),
            "n": n,
            "seed": seed,
            "primes": [str(p) for p in primes],
        },
        rows=rows,
        summary={"steps": n},
        passed=None,
    )


def run_boundary(
    mu: StepDistribution,
    p: int,
    digits: int = 16,
    seed: int = 0,
    margin: int = DEFAULT_MARGIN,
    step_cap: int = DEFAULT_STEP_CAP,
) -> Report:
    """Stabilized p-adic digits of one boundary point, with its probe verdict."""
    result = boundary_digits(mu, p, digits, seed, margin=margin, step_cap=step_cap)
    index = result.stabilization_index
    rows = [
        Row("boundary", str(p), index, seed, "stabilization_index", float(index)),
        Row("boundary", str(p), index, seed, "probe_agreed", float(result.probe_agreed)),
    ]
    summary = {
        "digits": result.expansion.render(),
        "value": format_rational(result.value),
        "stabilization_index": index,
        "probe_agreed": result.probe_agreed,
        "steps_total": result.steps_total,
    }
    return Report(
        name="boundary",
        config={
            "measure": measure_config(mu),
            "p": str(p),
            "digits": digits,
            "margin": margin,
            "seed": seed,
        },
        rows=rows,
        summary=summary,
        passed=result.probe_agreed,
    )


# ---------------------------------------------------------------------------
# law-of-large-numbers suites


def _grid_walk(encoding, seed: int, grid: Sequence[int], n: int) -> tuple[_Walker, list]:
    """The walker after ``n >= grid[-1]`` steps, and (A_m, Z_m) at each grid point m."""
    walker = _Walker(encoding, seed)
    step = walker.step
    snaps = []
    for m in grid:
        for _ in range(m - walker.count):
            step()
        snaps.append((walker.a, walker.z))
    for _ in range(n - walker.count):
        step()
    return walker, snaps


def _grid_suite(name, statistics, replica, verdict, mu, grid, seed, samples, workers, **params):
    """Run a grid suite's replicas and build its report as their results stream in.

    A replica returns ``(seed, points, trailing)``: one tuple of values per
    grid point, in the order of ``statistics``, then rows of its own, which
    follow its grid rows.  ``verdict(columns, rows)`` gives the summary and
    the pass; ``columns`` holds, per grid point, every replica's last value.
    """
    rows = []
    columns: list[list[float]] = [[] for _ in grid]
    for s, points, trailing in _fan_out(replica, seed, samples, workers):
        for n, values, column in zip(grid, points, columns):
            rows.extend(Row(name, "", n, s, stat, v) for stat, v in zip(statistics, values))
            column.append(values[-1])
        rows.extend(trailing)
    summary, passed = verdict(columns, rows)
    config = _suite_config(mu, seed, samples, n_grid=grid, **params)
    return Report(name=name, config=config, rows=rows, summary=summary, passed=passed)


def _frequency_verdict(grid, columns, bound, freq_threshold, **extra) -> tuple[dict, bool]:
    """The share of replicas at most ``bound`` per grid point; the last must reach the threshold."""
    freqs = [sum(v <= bound for v in column) / len(column) for column in columns]
    summary = {
        "bound": bound,
        "frequencies": {str(n): f for n, f in zip(grid, freqs)},
        "final_frequency": freqs[-1],
        "freq_threshold": freq_threshold,
        **extra,
    }
    return summary, freqs[-1] >= freq_threshold


def _lln41_replica(seed: int, *, encoding, targets: dict[int, Fraction]) -> tuple[int, list, tuple]:
    """(seed, height(A_m^(-1) q_m) / m at each grid point m, no trailing rows)."""
    grid = list(targets)
    _, snaps = _grid_walk(encoding, seed, grid, grid[-1])
    return seed, [(height(targets[m] / a) / m,) for m, (a, _) in zip(grid, snaps)], ()


def run_lln41(
    mu: StepDistribution,
    n_grid: Sequence[int] = DEFAULT_GRID,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    final_bound: float = DEFAULT_FINAL_BOUND_LLN41,
    workers: int = 1,
) -> Report:
    """Monte Carlo decay of height(A_n^(-1) q_n)/n along the grid."""
    if not 0 < final_bound < math.inf:
        raise ValueError("final bound must be finite and positive")
    grid = _grid(n_grid)
    profile = drift_profile(mu)
    replica = partial(
        _lln41_replica,
        encoding=_encode(mu),
        targets={n: q_approximant(profile, n) for n in grid},
    )

    def verdict(columns, _):
        means = [math.fsum(column) / samples for column in columns]
        decreasing = all(b < a for a, b in zip(means, means[1:]))
        summary = {
            "means": {str(n): m for n, m in zip(grid, means)},
            "final_mean": means[-1],
            "decreasing": decreasing,
            "final_bound": final_bound,
        }
        return summary, decreasing and means[-1] < final_bound

    return _grid_suite(
        "lln41", ("height_ratio",), replica, verdict, mu, grid, seed, samples, workers,
        final_bound=final_bound,
    )


def _lln43_replica(
    seed: int, *, encoding, grid: Sequence[int], places: tuple[Place, ...]
) -> tuple[int, list[tuple[float]], tuple]:
    """(seed, <Z_m>_P^+ / m at each grid point m, no trailing rows)."""
    _, snaps = _grid_walk(encoding, seed, grid, grid[-1])
    return seed, [(_partial_plus(z, places) / m,) for m, (_, z) in zip(grid, snaps)], ()


def run_lln43(
    mu: StepDistribution,
    places: Sequence[Place] = (),
    n_grid: Sequence[int] = DEFAULT_GRID,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    epsilon: float = DEFAULT_EPSILON,
    freq_threshold: float = DEFAULT_FREQ_THRESHOLD_LLN43,
    workers: int = 1,
) -> Report:
    """Frequency of the partial-height event <Z_n>_P^+ / n <= bound + eps."""
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and positive")
    if not 0 <= freq_threshold <= 1:
        raise ValueError("frequency threshold must lie in [0, 1]")
    grid = _grid(n_grid)
    places = _places(places)
    profile = drift_profile(mu)
    bound = math.fsum(profile.phi_plus(p) for p in places) + epsilon
    replica = partial(_lln43_replica, encoding=_encode(mu), grid=grid, places=places)

    def verdict(columns, _):
        return _frequency_verdict(grid, columns, bound, freq_threshold)

    return _grid_suite(
        "lln43", ("partial_height_rate",), replica, verdict, mu, grid, seed, samples, workers,
        P=sorted(format_place(p) for p in places),
        epsilon=epsilon,
        freq_threshold=freq_threshold,
    )


def _prop44_replica(
    seed: int,
    *,
    encoding,
    targets: dict[int, Fraction],
    places: tuple[Place, ...],
    cotrunc: tuple[Place, ...],
    n_stab: int,
    margin: int,
    finite_probe: dict[int, int],
    real_probe: Optional[float],
) -> tuple[int, list[tuple[float, float]], tuple[Row]]:
    """(seed, height ratio and adelic rate at each grid point, the probe_miss row)."""
    walker, snaps = _grid_walk(encoding, seed, list(targets), n_stab)
    rep, agreed = walker.probe(margin, finite_probe, real_probe)
    points = []
    for n, (a, z) in zip(targets, snaps):
        first = height(targets[n] / a) / n
        boundary_term = _partial_plus((rep - z) / a, places)
        co_term = _partial_plus(z / a, cotrunc)
        points.append((first, first + (boundary_term + co_term) / n))
    miss = float(not all(ok for _, ok in agreed))
    return seed, points, (Row("prop44", "", n_stab, seed, "probe_miss", miss),)


def run_prop44(
    mu: StepDistribution,
    places: Sequence[Place],
    n_grid: Sequence[int] = DEFAULT_GRID,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    epsilon: float = DEFAULT_EPSILON,
    freq_threshold: float = DEFAULT_FREQ_THRESHOLD_PROP44,
    stab_factor: int = 4,
    margin: int = DEFAULT_MARGIN,
    workers: int = 1,
) -> Report:
    """Frequency of the tracking event |x_n^(-1) pi_n(z)| / n <= bound + eps.

    The boundary representative is the exact Z at 4x (configurable) the
    largest grid n; the stabilization error is absorbed into epsilon and the
    probe-miss rate over an extra ``margin`` steps is reported.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and positive")
    if not 0 <= freq_threshold <= 1:
        raise ValueError("frequency threshold must lie in [0, 1]")
    _require_count(stab_factor, "stab_factor", 1)
    _require_count(margin, "margin", 1)
    profile = drift_profile(mu)
    places = _places(places, profile)
    if not places:
        raise ValueError("prop44 needs a non-empty place list")
    grid = _grid(n_grid)
    trunc = profile.nonzero_places() | {INFINITE_PLACE}
    cotrunc = tuple(sorted((trunc - set(places)), key=lambda p: (p == INFINITE_PLACE, p)))
    bound = math.fsum(profile.phi_minus(p) for p in cotrunc) + epsilon
    n_stab = stab_factor * max(grid)
    exact = profile.exact()
    finite_probe = {
        p: math.ceil(max(grid) * exact[p]) + 1
        for p in places
        if p != INFINITE_PLACE
    }
    real_probe = (
        max(grid) * profile.infinite_drift if INFINITE_PLACE in places else None
    )
    replica = partial(
        _prop44_replica,
        encoding=_encode(mu),
        targets={n: q_approximant(profile, n) for n in grid},
        places=places,
        cotrunc=cotrunc,
        n_stab=n_stab,
        margin=margin,
        finite_probe=finite_probe,
        real_probe=real_probe,
    )

    def verdict(columns, rows):
        misses = sum(r.value for r in rows if r.statistic == "probe_miss")
        return _frequency_verdict(
            grid, columns, bound, freq_threshold, probe_miss_rate=misses / samples, n_stab=n_stab
        )

    statistics = ("height_ratio", "adelic_rate")
    return _grid_suite(
        "prop44", statistics, replica, verdict, mu, grid, seed, samples, workers,
        P=sorted(format_place(p) for p in places),
        epsilon=epsilon,
        freq_threshold=freq_threshold,
        stab_factor=stab_factor,
        margin=margin,
    )


# ---------------------------------------------------------------------------
# entropy dichotomy


def run_entropy(
    mu: StepDistribution,
    n_max: int = 12,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> Report:
    """Exact convolution entropies H_n with rate and increment columns.

    The trend flag compares the final increment to the final average rate:
    sublinear growth (trivial boundary) makes increments collapse well below
    H_n/n, while a positive entropy rate keeps them comparable.
    """
    _require_count(n_max, "n_max", 1)
    rows = []
    entropies = [0.0]
    truncated_at: Optional[int] = None
    table = power(mu, 0, cell_budget)  # raises ValueError for a bad budget
    step = power(mu, 1)
    for n in range(1, n_max + 1):
        try:
            table = convolve(table, step, cell_budget)
        except BudgetError:
            truncated_at = n
            break
        h = entropy(table)
        entropies.append(h)
        rows.append(Row("entropy", "", n, 0, "H", h))
        rows.append(Row("entropy", "", n, 0, "H_rate", h / n))
        rows.append(Row("entropy", "", n, 0, "H_increment", h - entropies[n - 1]))
    computed = len(entropies) - 1
    summary: dict = {"n_max": n_max, "computed_to": computed}
    notes = ()
    if truncated_at is not None:
        summary["truncated_at"] = truncated_at
        notes = (f"support budget {cell_budget} exceeded at n={truncated_at}; table truncated",)
    if computed >= 1:
        summary["h_estimate"] = entropies[-1] - entropies[-2] if computed >= 2 else entropies[-1]
        summary["final_rate"] = entropies[-1] / computed
        ratio = summary["h_estimate"] / summary["final_rate"] if summary["final_rate"] > 0 else 0.0
        summary["increment_to_rate_ratio"] = ratio
        summary["trending_to_zero"] = ratio < 0.75
        half = [(n, entropies[n] / n) for n in range(max(1, computed // 2), computed + 1)]
        summary["rate_slope_last_half"] = _ols_slope(half)
    return Report(
        name="entropy",
        config={"measure": measure_config(mu), "n_max": n_max, "cell_budget": cell_budget},
        rows=rows,
        summary=summary,
        passed=None,
        notes=notes,
    )


def _ols_slope(points: list[tuple[int, float]]) -> float:
    if len(points) < 2:
        return 0.0
    xs = [float(x) for x, _ in points]
    ys = [y for _, y in points]
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    num = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.fsum((x - mx) ** 2 for x in xs)
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# stationarity of the tail law


def _ball_label(key: tuple) -> float:
    """Row value of a ball key: residue * 128 + v + 64, which may collide."""
    return float(key[3] * 128 + key[2] + 64)


def _stationarity_replica(
    seed: int, *, encoding, p: int, radius: int, n: int, margin: int, step_cap: int
) -> tuple[int, tuple[tuple, tuple], int, bool]:
    """(seed, ball keys of the tail point at steps 0 and n, lock index, probe verdict)."""
    walker = _Walker(encoding, seed)
    walker.advance(n)
    slope, num, den = walker.state  # A_n = P_n / D_n, Z_n = N_n / (scale D_n)
    # lock the representative at a resolution fine enough for the tail at n;
    # p contracts, so it divides some atom's linear part and has a slot
    target = radius + max(walker.exponents[encoding.primes.index(p)], 0) + 1
    walker.lock({p: target}, margin, step_cap)
    stab_index = walker.count
    rep, [(_, probe_ok)] = walker.probe(margin, {p: target})
    # (rep - Z_n) / A_n over one denominator; Fraction moves a negative P_n's sign up
    r_num, r_den, scale = rep.numerator, rep.denominator, encoding.scale
    tail = Fraction(r_num * scale * den - num * r_den, r_den * scale * slope)
    keys = (ball_key_exact(rep, p, radius), ball_key_exact(tail, p, radius))
    return seed, keys, stab_index, probe_ok


def run_stationarity(
    mu: StepDistribution,
    p: int,
    radius_exponent: int,
    n: int,
    samples: int = 1000,
    seed: int = 0,
    tv_threshold: float = 0.1,
    margin: int = DEFAULT_MARGIN,
    workers: int = 1,
) -> Report:
    """Two-sample check that the tail law x_n^(-1) z does not depend on n.

    Buckets tail points at step 0 and step n by p-adic ball and reports the
    total-variation distance of the two histograms.  The threshold is a test
    calibration, not a derived quantity.
    """
    if not 0 < tv_threshold <= 1:
        raise ValueError("TV threshold must lie in (0, 1]")
    _require_count(n, "walk length")
    _require_count(radius_exponent, "radius_exponent", None)
    _require_count(margin, "margin", 1)
    if p == INFINITE_PLACE:
        raise ValueError("stationarity needs a finite prime")
    _places((p,), drift_profile(mu))
    if n + margin > DEFAULT_STEP_CAP:  # a lock holds for margin steps past the prefix
        raise StabilizationError(f"no lock within {DEFAULT_STEP_CAP} steps", steps=DEFAULT_STEP_CAP)
    replica = partial(
        _stationarity_replica,
        encoding=_encode(mu),
        p=p,
        radius=radius_exponent,
        n=n,
        margin=margin,
        step_cap=DEFAULT_STEP_CAP,
    )
    # rows share their constant fields: one place label, one value per ball and per verdict
    place = str(p)
    labels: dict = {}
    miss = (0.0, 1.0)
    rows = []
    hist0: Counter = Counter()
    hist1: Counter = Counter()
    misses = 0
    for s, (key0, key1), stab_index, probe_ok in _fan_out(replica, seed, samples, workers):
        label0 = labels.setdefault(key0, _ball_label(key0))
        label1 = labels.setdefault(key1, _ball_label(key1))
        rows.append(Row("stationarity", place, 0, s, "ball_bucket", label0))
        rows.append(Row("stationarity", place, n, s, "ball_bucket", label1))
        rows.append(Row("stationarity", place, stab_index, s, "probe_miss", miss[not probe_ok]))
        hist0[key0] += 1
        hist1[key1] += 1
        misses += not probe_ok
    keys = set(hist0) | set(hist1)
    tv = 0.5 * math.fsum(
        abs(hist0[k] - hist1[k]) / samples for k in keys
    )
    summary = {
        "tv_distance": tv,
        "tv_threshold": tv_threshold,
        "probe_miss_rate": misses / samples,
        "buckets": len(keys),
    }
    config = _suite_config(
        mu,
        seed,
        samples,
        p=p,
        radius_exponent=radius_exponent,
        n=n,
        tv_threshold=tv_threshold,
        margin=margin,
    )
    return Report(
        name="stationarity",
        config=config,
        rows=rows,
        summary=summary,
        passed=tv < tv_threshold,
    )
