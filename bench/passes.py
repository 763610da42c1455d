"""One benchmark pass of one workload, in a fresh process.

    python3 bench/passes.py --workload tracking --seed 0 --size timed --workers 1
    python3 bench/passes.py --workload tracking --seed 0 --size full --trace

``--size`` is one of the workload's sizes in workloads.py: full, timed or quick.

``run.py`` starts this script once per pass, so every pass pays the import
and set-up a command-line user pays, and the peak RSS it reports belongs to
this pass alone.  The last line of standard output is one JSON object.

Untraced, the script sets up, runs one pass and reports its set-up time,
wall time, CPU time (its own plus its reaped pool workers'), peak RSS, the
sha256 of the report bytes and the walk steps the report accounts for.

Traced (``--trace``), it measures the direct-call walk metrics, runs one
untraced pass at 1 and at 2 workers, then one pass at 1 worker with every
layer's callables wrapped by ``tracer.Tracer``, and reports the per-layer
metrics.  The traced pass runs at 1 worker because spans recorded inside
pool workers never reach this process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ROOT,
    SRC,
    STATIONARITY_N,
    STATIONARITY_P,
    STATIONARITY_RADIUS,
    TRACKING_EPSILON,
    TRACKING_GRID,
    WORKLOADS,
    Workload,
    load_config,
)

TRACE_DIR = ROOT / ".bench_out"


def set_up(workload: Workload):
    """Import affwalk, parse the workload's config and build its measure."""
    sys.path.insert(0, str(SRC))
    import affwalk
    import affwalk.cli  # noqa: F401  (the entry point of two workloads)

    if not Path(affwalk.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"affwalk imported from {affwalk.__file__}, not from {SRC}")
    mu = affwalk.parse_measure_config(load_config(workload)["measure"])
    return affwalk, mu


def run_pass(affwalk, workload: Workload, mu, param: int, seed: int, workers: int):
    """Run the workload once through its public entry point.

    Returns (exit code, report text).  Entry points are looked up on their
    modules at call time, so installed trace wrappers are the ones called.
    """
    if workload.name == "stationarity":
        experiments = affwalk.experiments
        report = experiments.run_stationarity(
            mu,
            p=STATIONARITY_P,
            radius_exponent=STATIONARITY_RADIUS,
            n=STATIONARITY_N,
            samples=param,
            seed=seed,
            workers=workers,
        )
        text = experiments.render_csv(report)
        return (1 if report.passed is False else 0), text
    argv = [
        "--config", str(workload.config_path()),
        "--seed", str(seed),
        "--workers", str(workers),
    ]
    if workload.name == "tracking":
        argv += [
            "--replicas", str(param),
            "prop44",
            "--places", "2",
            "--n-grid", TRACKING_GRID,
            "--epsilon", TRACKING_EPSILON,
        ]
    else:
        argv += ["entropy", "--n-max", str(param)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = affwalk.cli.main(argv)
    return code, out.getvalue()


def _header(text: str, key: str):
    prefix = f"# {key} "
    for line in text.splitlines():
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
        if not line.startswith("#"):
            break
    return None


def expected_exit_code(text: str) -> int:
    """The CLI's exit code for this report: 1 only when its bound check failed."""
    return 1 if "\n# passed false\n" in text else 0


def walk_steps(workload: Workload, text: str):
    """Walk steps the report accounts for; None for the entropy workload.

    tracking: every replica walks n_stab + margin steps.  stationarity: each
    replica's probe_miss row carries its lock index n, after which the probe
    walks margin more steps.
    """
    config = _header(text, "config")
    if workload.name == "tracking":
        summary = _header(text, "summary")
        return config["samples"] * (summary["n_stab"] + config["margin"])
    if workload.name == "stationarity":
        steps = 0
        for line in text.splitlines():
            fields = line.split(",")
            if len(fields) == 6 and fields[4] == "probe_miss":
                steps += int(fields[2]) + config["margin"]
        return steps
    return None


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed_pass(affwalk, workload, mu, param, seed, workers) -> dict:
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    code, text = run_pass(affwalk, workload, mu, param, seed, workers)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "exit_code": code,
        "expected_exit_code": expected_exit_code(text),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "work": walk_steps(workload, text),
    }


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any pool worker it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# traced run


def deep_size(root) -> int:
    """Bytes of every object reachable from root, each counted once."""
    seen: set[int] = set()
    total = 0
    todo = [root]
    skip = (type, types.ModuleType, types.FunctionType)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        todo.extend(gc.get_referents(obj))
    return total


def _median_ns_per_step(runs: int, call) -> float:
    """Median over runs of (wall ns of call()) / (steps call() returns)."""
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        steps = call()
        samples.append((time.perf_counter_ns() - t0) / steps)
    return statistics.median(samples)


def direct_walk_metrics(affwalk, seed: int, quick: bool, missing: dict) -> dict:
    """sample_path and boundary_digits timed by direct calls on MU_REV.

    A callable that no longer exists is recorded in ``missing``.
    """
    walk = affwalk.walk
    mu = affwalk.parse_measure_config(load_config(WORKLOADS["tracking"])["measure"])
    out = {}
    sample_path = getattr(walk, "sample_path", None)
    boundary_digits = getattr(walk, "boundary_digits", None)
    if sample_path is None:
        missing["walk.sample_path"] = "affwalk.walk.sample_path does not exist"
    else:
        for n, runs in ((100, 20), (1000, 5), (4000, 3)):
            out[f"walk.sample_path_ns_per_step.n{n}"] = _median_ns_per_step(
                1 if quick else runs,
                lambda n=n: sample_path(mu, n, seed).length,
            )
    if boundary_digits is None:
        missing["walk.boundary_digits"] = "affwalk.walk.boundary_digits does not exist"
    else:
        seeds = range(seed, seed + (20 if quick else 200))
        out["walk.boundary_digits_ns_per_step"] = _median_ns_per_step(
            1 if quick else 3,
            lambda: sum(boundary_digits(mu, 2, 16, s).steps_total for s in seeds),
        )
    return out


# (span name, wrap targets as (module, attribute), keep full span records)
SPANS = (
    ("cli.main", [("affwalk.cli", "main")], True),
    (
        "experiments.run",
        [
            ("affwalk.cli", "run_prop44"),
            ("affwalk.cli", "run_entropy"),
            ("affwalk.experiments", "run_stationarity"),
        ],
        True,
    ),
    (
        "experiments.render_csv",
        [("affwalk.cli", "render_csv"), ("affwalk.experiments", "render_csv")],
        True,
    ),
    (
        "measure.drift_profile",
        [("affwalk.experiments", "drift_profile"), ("affwalk.walk", "drift_profile")],
        True,
    ),
    ("measure.entropy", [("affwalk.experiments", "entropy")], True),
    ("group.compose", [("affwalk.measure", "compose")], False),
    (
        "exact.valuation",
        [
            ("affwalk.experiments", "valuation"),
            ("affwalk.walk", "valuation"),
            ("affwalk.measure", "valuation"),
            ("affwalk.padic", "valuation"),
        ],
        False,
    ),
    ("exact.height", [("affwalk.experiments", "height")], False),
    ("exact.log_norm_plus", [("affwalk.experiments", "log_norm_plus")], False),
    (
        "padic.ball_key_exact",
        [("affwalk.experiments", "ball_key_exact"), ("affwalk.walk", "ball_key_exact")],
        False,
    ),
    ("walk.step", [("affwalk.walk", "_Walker.step")], False),
    ("prng.next_u64", [("affwalk.prng", "SplitMix64.next_u64")], False),
    (
        "prng.pick_index",
        [("affwalk.walk", "pick_index"), ("affwalk.experiments", "pick_index")],
        False,
    ),
)

# per-layer metric -> (unit, spans or direct callables it is computed from)
LAYER_METRICS = {
    "prng.draws": ("count", ["prng.next_u64"]),
    "prng.draw_ns": ("ns", ["prng.next_u64", "prng.pick_index"]),
    "walk.steps": ("count", ["walk.step"]),
    "walk.step_self_ns": ("ns", ["walk.step"]),
    "walk.sample_path_ns_per_step.n100": ("ns", ["walk.sample_path"]),
    "walk.sample_path_ns_per_step.n1000": ("ns", ["walk.sample_path"]),
    "walk.sample_path_ns_per_step.n4000": ("ns", ["walk.sample_path"]),
    "walk.boundary_digits_ns_per_step": ("ns", ["walk.boundary_digits"]),
    "exact.valuation_calls": ("count", ["exact.valuation"]),
    "exact.valuation_self_s": ("s", ["exact.valuation"]),
    "exact.height_self_s": ("s", ["exact.height"]),
    "exact.log_norm_plus_self_s": ("s", ["exact.log_norm_plus"]),
    "padic.ball_key_exact_calls": ("count", ["padic.ball_key_exact"]),
    "padic.ball_key_exact_self_s": ("s", ["padic.ball_key_exact"]),
    "measure.drift_profile_calls": ("count", ["measure.drift_profile"]),
    "measure.cells": ("count", ["measure.convolve"]),
    "measure.final_support": ("count", ["measure.convolve"]),
    "measure.convolve_ns_per_cell": ("ns", ["measure.convolve"]),
    "measure.entropy_self_s": ("s", ["measure.entropy"]),
    "measure.table_bytes_per_cell": ("B", ["measure.convolve"]),
    "group.compose_calls": ("count", ["group.compose"]),
    "group.compose_ns": ("ns", ["group.compose"]),
    "experiments.parallel_efficiency": ("ratio", []),
    "experiments.render_s": ("s", ["experiments.render_csv"]),
    "cli.overhead_s": ("s", ["cli.main", "experiments.run"]),
    "trace.overhead_ratio": ("ratio", []),
}


class _Convolutions:
    """Counts the cells of each convolve call and keeps the latest table."""

    def __init__(self) -> None:
        self.cells = 0
        self.last = None

    def observe(self, args, kwargs, result) -> None:
        t1, t2 = args[:2]
        self.cells += t1.support_size * t2.support_size
        self.last = result


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def traced_run(affwalk, workload, mu, param, seed, quick) -> dict:
    missing: dict[str, str] = {}  # span or callable name -> why it is missing
    metrics = direct_walk_metrics(affwalk, seed, quick, missing)
    passes = [timed_pass(affwalk, workload, mu, param, seed, w) for w in (1, 2)]
    wall_1, wall_2 = passes[0]["wall_s"], passes[1]["wall_s"]

    tracer = Tracer()
    convolutions = _Convolutions()
    for name, targets, keep in SPANS:
        tracer.install(name, targets, keep)
    tracer.install(
        "measure.convolve",
        [("affwalk.experiments", "convolve")],
        keep=True,
        observe=convolutions.observe,
    )
    try:
        traced = timed_pass(affwalk, workload, mu, param, seed, 1)
    finally:
        tracer.uninstall()
    passes.append(traced)
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.dump(TRACE_DIR / f"trace-{workload.name}-seed{seed}.json")

    ns, calls = tracer.self_ns, tracer.calls
    draws = calls("prng.next_u64")
    steps = calls("walk.step")
    cells = convolutions.cells
    support = convolutions.last.support_size if convolutions.last is not None else 0
    table_bytes = deep_size(convolutions.last) if convolutions.last is not None else 0
    cli_total = tracer.total_ns("cli.main")
    metrics.update(
        {
            "prng.draws": draws,
            "prng.draw_ns": _ratio(ns("prng.next_u64") + ns("prng.pick_index"), draws),
            "walk.steps": steps,
            "walk.step_self_ns": _ratio(ns("walk.step"), steps),
            "exact.valuation_calls": calls("exact.valuation"),
            "exact.valuation_self_s": ns("exact.valuation") / 1e9,
            "exact.height_self_s": ns("exact.height") / 1e9,
            "exact.log_norm_plus_self_s": ns("exact.log_norm_plus") / 1e9,
            "padic.ball_key_exact_calls": calls("padic.ball_key_exact"),
            "padic.ball_key_exact_self_s": ns("padic.ball_key_exact") / 1e9,
            "measure.drift_profile_calls": calls("measure.drift_profile"),
            "measure.cells": cells,
            "measure.final_support": support,
            "measure.convolve_ns_per_cell": _ratio(
                tracer.total_ns("measure.convolve"), cells
            ),
            "measure.entropy_self_s": ns("measure.entropy") / 1e9,
            "measure.table_bytes_per_cell": _ratio(table_bytes, support),
            "group.compose_calls": calls("group.compose"),
            "group.compose_ns": _ratio(ns("group.compose"), calls("group.compose")),
            "experiments.parallel_efficiency": wall_1 / (2 * wall_2),
            "experiments.render_s": tracer.total_ns("experiments.render_csv") / 1e9,
            "cli.overhead_s": (
                (cli_total - tracer.total_ns("experiments.run")) / 1e9
                if cli_total
                else 0.0
            ),
            "trace.overhead_ratio": traced["wall_s"] / wall_1,
        }
    )
    missing.update(tracer.missing)
    out = {}
    for name, (unit, sources) in LAYER_METRICS.items():
        gone = [missing[s] for s in sources if s in missing]
        if gone:
            out[name] = {"value": None, "unit": unit, "missing": "; ".join(gone)}
        else:
            out[name] = {"value": metrics[name], "unit": unit}
    return {"passes": passes, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--size", choices=("full", "timed", "quick"), default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    param = workload.size(args.size).param

    t0 = time.perf_counter()
    affwalk, mu = set_up(workload)
    setup_s = time.perf_counter() - t0

    if args.trace:
        quick = args.size == "quick"
        result = traced_run(affwalk, workload, mu, param, args.seed, quick)
    else:
        result = timed_pass(affwalk, workload, mu, param, args.seed, args.workers)
        result["setup_s"] = setup_s
        result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
