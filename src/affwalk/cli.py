"""Command-line front end for the experiment suites.

Subcommands: validate, drift, gauge, walk, boundary, lln41, lln43, prop44,
entropy.  Configuration is a JSON file with a "measure" block and optional
per-subcommand parameter sections; command-line flags override the file.

Exit codes: 0 pass, 1 bound-check fail, 2 config error (including
non-numeric, non-finite and, where an integer is required, non-integral
values, and a worker count below 1), 3 resource budget exceeded (including
walks that fail to stabilize within their step cap, an entropy table
truncated before its second step, and an infinite-drift sign undecided
within its digit budget).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from .errors import BudgetError, ConfigError, StabilizationError
from .exact import INFINITE_PLACE, format_rational, parse_place
from .experiments import (
    DEFAULT_EPSILON,
    DEFAULT_GRID,
    DEFAULT_SAMPLES,
    Report,
    Row,
    render_csv,
    render_json,
    run_drift,
    run_entropy,
    run_gauge,
    run_lln41,
    run_lln43,
    run_prop44,
    run_validate,
    run_walk,
)
from .measure import DEFAULT_CELL_BUDGET, measure_config, parse_measure_config
from .walk import DEFAULT_MARGIN, DEFAULT_STEP_CAP, boundary_digits

__all__ = ["main", "entrypoint", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affwalk",
        description="Random walks on rational affine maps: drifts, gauges, "
        "boundary contraction, height laws of large numbers, entropy.",
    )
    parser.add_argument("--config", help="JSON config file with the measure block")
    parser.add_argument("--seed", default=None, help="base 64-bit seed")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument(
        "--replicas",
        default=None,
        help="number of Monte Carlo replicas (overrides config samples)",
    )
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="report format"
    )
    parser.add_argument(
        "--workers",
        default=None,
        help="worker processes; output bytes do not depend on this",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="degeneracy check of the measure")
    sub.add_parser("drift", help="drift profile and contracting set")

    p_gauge = sub.add_parser("gauge", help="gauge enumeration and growth bound")
    p_gauge.add_argument("--k", default=None, help="gauge radius")
    p_gauge.add_argument("--k-max", default=None, help="enumeration cap")

    p_walk = sub.add_parser("walk", help="dump one trajectory's growth")
    p_walk.add_argument("--n", default=None, help="number of steps")
    p_walk.add_argument(
        "--p", action="append", default=None, help="prime to track (repeatable)"
    )

    p_boundary = sub.add_parser("boundary", help="stabilized p-adic boundary digits")
    p_boundary.add_argument("--p", default=None, help="contracting finite prime")
    p_boundary.add_argument("--digits", default=None, help="digit count")
    p_boundary.add_argument("--margin", default=None)

    for name, help_text in (
        ("lln41", "decay of height(A_n^-1 q_n)/n"),
        ("lln43", "partial-height growth event frequency"),
        ("prop44", "boundary tracking event frequency"),
    ):
        p_lln = sub.add_parser(name, help=help_text)
        p_lln.add_argument("--n-grid", default=None, help="comma-separated n values")
        if name != "lln41":
            p_lln.add_argument(
                "--places", default=None, help='comma-separated, e.g. "2,inf"'
            )
            p_lln.add_argument("--epsilon", default=None)

    p_entropy = sub.add_parser("entropy", help="exact convolution entropy table")
    p_entropy.add_argument("--n-max", default=None)
    p_entropy.add_argument("--cell-budget", default=None)

    return parser


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _need_measure(cfg: dict):
    block = cfg.get("measure")
    if block is None:
        raise ConfigError('this command needs a "measure" block in the config')
    return parse_measure_config(block)


def _section(cfg: dict, name: str) -> dict:
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f'config section "{name}" must be an object')
    return section


def _pick(flag, section: dict, key: str, default, kind=None):
    """Priority: command-line flag, config section, default; coerced by ``kind``."""
    value = flag if flag is not None else section.get(key, default)
    if kind is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad {key}: {value!r}")


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{x} is not finite")
    return x


def _integral(value) -> int:
    """``int(value)``, except that a float with a fractional part is rejected."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value} is not an integer")
    return int(value)


def _items(value) -> list:
    """A list as given, or the comma-separated parts of a string."""
    if isinstance(value, str):
        return [part for part in value.replace(" ", "").split(",") if part]
    return list(value)


def _grid(value) -> list[int]:
    return [_integral(v) for v in _items(value)]


def _places(value) -> list:
    return [parse_place(str(v)) for v in _items(value)]


def _n_grid(args, section: dict) -> list[int]:
    grid = _pick(args.n_grid, section, "n_grid", list(DEFAULT_GRID), _grid)
    if not grid or any(n < 1 for n in grid):
        raise ConfigError("n grid must be positive integers")
    return grid


def _base_seed(args, section: dict) -> int:
    return _pick(args.seed, section, "seed", 0, _integral) & (1 << 64) - 1


def _samples(args, section: dict, default: int) -> int:
    n = _pick(args.replicas, section, "samples", default, _integral)
    if n < 1:
        raise ConfigError("sample count must be at least 1")
    return n


def _workers(args) -> int:
    n = _pick(args.workers, {}, "workers", 1, _integral)
    if n < 1:
        raise ConfigError("worker count must be at least 1")
    return n


def _dispatch(args, cfg: dict) -> Report:
    cmd = args.command
    workers = _workers(args)
    if cmd == "validate":
        return run_validate(_need_measure(cfg))
    if cmd == "drift":
        return run_drift(_need_measure(cfg))
    if cmd == "gauge":
        section = _section(cfg, "gauge")
        if _pick(args.k, section, "k", None) is None:
            raise ConfigError("gauge needs --k or a gauge.k config entry")
        return run_gauge(
            _pick(args.k, section, "k", None, _finite),
            _pick(args.k_max, section, "k_max", 5.0, _finite),
        )
    if cmd == "walk":
        section = _section(cfg, "walk")
        mu = _need_measure(cfg)
        n = _pick(args.n, section, "n", 100, _integral)
        primes = _pick(args.p, section, "primes", [], _places)
        primes = [p for p in primes if p != INFINITE_PLACE]
        return run_walk(mu, n, _base_seed(args, section), primes)
    if cmd == "boundary":
        return _run_boundary(args, cfg)
    if cmd == "lln41":
        section = _section(cfg, "lln41")
        mu = _need_measure(cfg)
        return run_lln41(
            mu,
            n_grid=_n_grid(args, section),
            samples=_samples(args, section, DEFAULT_SAMPLES),
            seed=_base_seed(args, section),
            final_bound=_pick(None, section, "final_bound", 0.05 * math.log(2), _finite),
            workers=workers,
        )
    if cmd == "lln43":
        section = _section(cfg, "lln43")
        mu = _need_measure(cfg)
        places = _pick(args.places, section, "places", [], _places)
        return run_lln43(
            mu,
            places,
            n_grid=_n_grid(args, section),
            samples=_samples(args, section, DEFAULT_SAMPLES),
            seed=_base_seed(args, section),
            epsilon=_pick(args.epsilon, section, "epsilon", DEFAULT_EPSILON, _finite),
            freq_threshold=_pick(None, section, "freq_threshold", 0.95, _finite),
            workers=workers,
        )
    if cmd == "prop44":
        section = _section(cfg, "prop44")
        mu = _need_measure(cfg)
        places = _pick(args.places, section, "places", [], _places)
        if not places:
            raise ConfigError("prop44 needs a non-empty place list")
        return run_prop44(
            mu,
            places,
            n_grid=_n_grid(args, section),
            samples=_samples(args, section, DEFAULT_SAMPLES),
            seed=_base_seed(args, section),
            epsilon=_pick(args.epsilon, section, "epsilon", DEFAULT_EPSILON, _finite),
            freq_threshold=_pick(None, section, "freq_threshold", 0.9, _finite),
            stab_factor=_pick(None, section, "stab_factor", 4, _integral),
            margin=_pick(None, section, "margin", DEFAULT_MARGIN, _integral),
            workers=workers,
        )
    if cmd == "entropy":
        section = _section(cfg, "entropy")
        mu = _need_measure(cfg)
        return run_entropy(
            mu,
            n_max=_pick(args.n_max, section, "n_max", 12, _integral),
            cell_budget=_pick(
                args.cell_budget, section, "cell_budget", DEFAULT_CELL_BUDGET, _integral
            ),
        )
    raise ConfigError(f"unknown command {cmd!r}")


def _run_boundary(args, cfg: dict) -> Report:
    section = _section(cfg, "boundary")
    mu = _need_measure(cfg)
    p_raw = _pick(args.p, section, "p", None)
    if p_raw is None:
        raise ConfigError("boundary needs --p or a boundary.p config entry")
    p = parse_place(str(p_raw))
    if p == INFINITE_PLACE:
        raise ConfigError("boundary digits need a finite prime")
    digits = _pick(args.digits, section, "digits", 16, _integral)
    margin = _pick(args.margin, section, "margin", DEFAULT_MARGIN, _integral)
    step_cap = _pick(None, section, "step_cap", DEFAULT_STEP_CAP, _integral)
    seed = _base_seed(args, section)
    result = boundary_digits(mu, p, digits, seed, margin=margin, step_cap=step_cap)
    rows = [
        Row("boundary", str(p), result.stabilization_index, seed, "stabilization_index",
            float(result.stabilization_index)),
        Row("boundary", str(p), result.stabilization_index, seed, "probe_agreed",
            float(result.probe_agreed)),
    ]
    summary = {
        "digits": result.expansion.render(),
        "value": format_rational(result.value),
        "stabilization_index": result.stabilization_index,
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        report = _dispatch(args, cfg)
    except (ConfigError, ValueError) as exc:
        # ValueError is how the library rejects out-of-range parameters
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except StabilizationError as exc:
        print(f"stabilization failed: {exc}", file=sys.stderr)
        return 3

    if "truncated_at" in report.summary and report.summary["computed_to"] <= 1:
        # nothing beyond the one-step law fit in the cell budget
        print("resource budget exceeded: convolution table truncated at "
              f"n={report.summary['truncated_at']}", file=sys.stderr)
        return 3

    text = render_json(report) if args.format == "json" else render_csv(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed is not False else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
