"""Command-line front end for the experiment suites.

Subcommands: validate, drift, gauge, walk, boundary, lln41, lln43, prop44,
entropy.  Configuration is a JSON file with a "measure" block and optional
per-subcommand parameter sections; command-line flags override the file.
Each subcommand runs ``experiments.run_<subcommand>``: ``_PARAMS`` maps its
flags and config keys onto that runner's keywords, so every default and
range check is the runner's own.

Exit codes: 0 pass, 1 bound-check fail, 2 config error (including
non-numeric, non-finite and, where an integer is required, non-integral
values and JSON booleans, a worker count below 1, an entropy cell budget
below 1 and an ``--out`` path that cannot be written), 3 resource budget
exceeded (including walks that fail to stabilize within their step cap, an
entropy table truncated before its second step, and an infinite-drift sign
undecided within its digit budget).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from typing import Optional, Sequence

from .errors import BudgetError, ConfigError, StabilizationError
from .exact import INFINITE_PLACE, _require_count, parse_place
from .experiments import (  # run_<command> is looked up by name in _dispatch
    Report,
    render_csv,
    render_json,
    run_boundary,
    run_drift,
    run_entropy,
    run_gauge,
    run_lln41,
    run_lln43,
    run_prop44,
    run_validate,
    run_walk,
)
from .measure import parse_measure_config

__all__ = ["main", "entrypoint", "build_parser"]


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


def _coerce(key: str, value, kind):
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
    """``int(value)``, except that a bool or a float with a fractional part is rejected."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value} is not an integer")
    return int(value)


def _seed(value) -> int:
    return _integral(value) & (1 << 64) - 1


def _items(value) -> list:
    """A list as given, or the comma-separated parts of a string."""
    if isinstance(value, str):
        return [part for part in value.replace(" ", "").split(",") if part]
    return list(value)


def _grid(value) -> list[int]:
    return [_integral(v) for v in _items(value)]


def _place(value):
    return parse_place(str(value))


def _places(value) -> list:
    return [_place(v) for v in _items(value)]


def _primes(value) -> list[int]:
    """The finite places of a list; a walk tracks valuations at primes only."""
    return [p for p in _places(value) if p != INFINITE_PLACE]


# subcommand -> {keyword of run_<subcommand>: (args attribute of its flag, coercer)}.
# The keyword is also the config key in the subcommand's section; a flag of
# None means the key is read from the config only.
_SEED = ("seed", _seed)
_REPLICAS = {"n_grid": ("n_grid", _grid), "samples": ("replicas", _integral), "seed": _SEED}
_PARAMS: dict[str, dict] = {
    "validate": {},
    "drift": {},
    "gauge": {"k": ("k", _finite)},
    "walk": {"n": ("n", _integral), "seed": _SEED, "primes": ("p", _primes)},
    "boundary": {
        "p": ("p", _place),
        "digits": ("digits", _integral),
        "seed": _SEED,
        "margin": ("margin", _integral),
        "step_cap": (None, _integral),
    },
    "lln41": {**_REPLICAS, "final_bound": (None, _finite)},
    "lln43": {
        "places": ("places", _places),
        **_REPLICAS,
        "epsilon": ("epsilon", _finite),
        "freq_threshold": (None, _finite),
    },
    "prop44": {
        "places": ("places", _places),
        **_REPLICAS,
        "epsilon": ("epsilon", _finite),
        "freq_threshold": (None, _finite),
        "stab_factor": (None, _integral),
        "margin": (None, _integral),
    },
    "entropy": {"n_max": ("n_max", _integral), "cell_budget": ("cell_budget", _integral)},
}
# the keywords without a default in their runner's signature
_REQUIRED = {"gauge": ("k",), "boundary": ("p",), "prop44": ("places",)}
# each subcommand's line in --help
_HELP = {
    "validate": "degeneracy check of the measure",
    "drift": "drift profile and contracting set",
    "gauge": "gauge enumeration and growth bound",
    "walk": "dump one trajectory's growth",
    "boundary": "stabilized p-adic boundary digits",
    "lln41": "decay of height(A_n^-1 q_n)/n",
    "lln43": "partial-height growth event frequency",
    "prop44": "boundary tracking event frequency",
    "entropy": "exact convolution entropy table",
}


class _Subcommand:
    """One subcommand's parser, built only when argparse asks it to parse.

    ``add_parser`` constructs this class with the parser's keywords, and
    ``--help`` reads each command's line from its ``help=`` pseudo-action, so
    a run builds the ``ArgumentParser`` of the one subcommand it runs.
    """

    def __init__(self, *, command: str, **kwargs):
        self.command = command
        self.kwargs = kwargs

    def build(self) -> argparse.ArgumentParser:
        """The subcommand's parser: one flag per flagged ``_PARAMS`` entry."""
        cmd = self.command
        parser = argparse.ArgumentParser(**self.kwargs)
        for key, (flag, kind) in _PARAMS[cmd].items():
            if flag not in (None, "seed", "replicas"):  # those two are global flags
                parser.add_argument(
                    "--" + flag.replace("_", "-"),
                    action="append" if kind is _primes else "store",
                    help=f"overrides config entry {cmd}.{key}",
                )
        return parser

    def parse_known_args(self, args, namespace):
        return self.build().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """Global flags, then each subcommand, whose parser ``_Subcommand`` defers."""
    parser = argparse.ArgumentParser(
        prog="affwalk",
        description="Random walks on rational affine maps: drifts, gauges, "
        "boundary contraction, height laws of large numbers, entropy.",
    )
    parser.add_argument("--config", help="JSON config file with the measure block")
    parser.add_argument("--seed", help="base 64-bit seed")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument(
        "--replicas", help="number of Monte Carlo replicas (overrides config samples)"
    )
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="report format"
    )
    parser.add_argument("--workers", help="worker processes; output bytes do not depend on this")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for cmd in _PARAMS:
        sub.add_parser(cmd, help=_HELP[cmd], command=cmd)
    return parser


def _check_out(path: str) -> None:
    """Reject an ``--out`` path that cannot take a file, before any run; touch nothing.

    A directory, a missing parent, a parent that is a file, an existing file
    that is not writable and a parent that cannot take a new file are caught;
    the file itself is opened only once the report exists.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not (
        os.access(path, os.W_OK) if os.path.exists(path)
        else os.access(parent, os.W_OK | os.X_OK)
    ):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write report: {OSError(code, os.strerror(code), path)}")


def _dispatch(args, cfg: dict) -> Report:
    """Run ``run_<command>`` with the keywords the flags and config give.

    A keyword is passed only when its flag is given or its key is present in
    the section (a present null is coerced, and rejected), so every default
    and range check is the runner's own.
    """
    cmd = args.command
    params = _PARAMS[cmd]
    section = cfg.get(cmd, {}) if params else {}
    if not isinstance(section, dict):
        raise ConfigError(f'config section "{cmd}" must be an object')
    kwargs = {}
    for key, (flag, kind) in params.items():
        value = getattr(args, flag) if flag else None
        if value is None:
            if key not in section:
                continue
            value = section[key]
        kwargs[key] = _coerce(key, value, kind)
    for key in _REQUIRED.get(cmd, ()):
        if key not in kwargs:
            raise ConfigError(f"{cmd} needs --{params[key][0]} or a {cmd}.{key} config entry")
    if args.workers is not None:
        workers = _require_count(_coerce("workers", args.workers, _integral), "worker count", 1)
        if "samples" in params:  # the suites with replicas fan them out
            kwargs["workers"] = workers
    # looked up at call time, so a wrapper installed on this module is the one run
    run = globals()["run_" + cmd]
    if cmd == "gauge":
        return run(**kwargs)
    measure = cfg.get("measure")
    if measure is None:
        raise ConfigError('this command needs a "measure" block in the config')
    return run(parse_measure_config(measure), **kwargs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
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
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report.passed is not False else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
