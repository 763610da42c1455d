import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from affwalk import cli, experiments, measure, parse_measure_config
from affwalk.cli import main
from affwalk.experiments import Report, Row, render_csv

BIAS = {
    "measure": {
        "atoms": [
            {"a": "2", "b": "0", "w": "1/4"},
            {"a": "1/2", "b": "1", "w": "3/4"},
        ]
    }
}

REV = {
    "measure": {
        "atoms": [
            {"a": "2", "b": "0", "w": "3/4"},
            {"a": "1/2", "b": "1", "w": "1/4"},
        ]
    }
}


@pytest.fixture
def bias_config(tmp_path):
    path = tmp_path / "bias.json"
    path.write_text(json.dumps(BIAS))
    return str(path)


@pytest.fixture
def rev_config(tmp_path):
    path = tmp_path / "rev.json"
    path.write_text(json.dumps(REV))
    return str(path)


class TestExitCodes:
    def test_validate_ok(self, bias_config, capsys):
        assert main(["--config", bias_config, "validate"]) == 0
        out = capsys.readouterr().out
        assert "# passed true" in out

    def test_validate_degenerate_is_failure(self, tmp_path):
        cfg = tmp_path / "deg.json"
        cfg.write_text(json.dumps(
            {"measure": {"atoms": [{"a": "1", "b": "2", "w": "1"}]}}
        ))
        assert main(["--config", str(cfg), "validate"]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "drift"]) == 2

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["--config", str(cfg), "drift"]) == 2

    def test_no_measure_block(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        assert main(["--config", str(cfg), "drift"]) == 2

    def test_bad_weight_sum(self, tmp_path):
        cfg = tmp_path / "half.json"
        cfg.write_text(json.dumps(
            {"measure": {"atoms": [{"a": "2", "b": "0", "w": "1/2"}]}}
        ))
        assert main(["--config", str(cfg), "drift"]) == 2

    def test_boundary_wrong_prime_direction(self, bias_config):
        # mu_bias spreads out 2-adically; boundary digits are undefined there
        assert main(["--config", bias_config, "boundary", "--p", "2"]) == 2

    def test_entropy_budget_exhausted(self, bias_config):
        code = main(
            ["--config", bias_config, "entropy", "--n-max", "6",
             "--cell-budget", "2"]
        )
        assert code == 3

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_entropy_budget_below_one(self, bias_config, capsys, budget):
        code = main(["--config", bias_config, "entropy", "--cell-budget", budget])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: cell_budget must be at least 1"]

    def test_stabilization_cap(self, tmp_path):
        cfg = tmp_path / "cap.json"
        blob = dict(REV)
        blob["boundary"] = {"step_cap": 20}
        cfg.write_text(json.dumps(blob))
        code = main(
            ["--config", str(cfg), "boundary", "--p", "2", "--digits", "48"]
        )
        assert code == 3

    def test_gauge_needs_k(self, bias_config):
        assert main(["--config", bias_config, "gauge"]) == 2

    def test_entropy_truncated_at_first_step(self, bias_config, capsys):
        code = main(
            ["--config", bias_config, "entropy", "--n-max", "1", "--cell-budget", "1"]
        )
        assert code == 3
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_integral_float_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**REV, "walk": {"n": 3.0}}))
        assert main(["--config", str(cfg), "walk"]) == 0
        assert '"steps":3' in capsys.readouterr().out

    def test_drift_with_weights_over_a_large_prime(self, tmp_path, capsys):
        p = 10**9 + 7
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"atoms": [
            {"a": "2", "b": "0", "w": f"1/{p}"},
            {"a": "1/3", "b": "1", "w": f"{p - 1}/{p}"},
        ]}}))
        start = time.perf_counter()
        assert main(["--config", str(cfg), "drift"]) == 0
        assert time.perf_counter() - start < 1.0
        assert '"infinite_sign":-1' in capsys.readouterr().out

    def test_drift_factoring_budget_exit_3(self, tmp_path):
        # the slope is a product of two 64-bit primes: rho stops at its step
        # budget instead of running for minutes; a subprocess bounds the wait
        p, q = 9223372036854775837, 9223372036854775907
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"atoms": [
            {"a": str(p * q), "b": "0", "w": "1/2"},
            {"a": "1/2", "b": "1", "w": "1/2"},
        ]}}))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-m", "affwalk", "--config", str(cfg), "drift"],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert run.returncode == 3
        assert run.stdout == ""
        assert run.stderr.startswith("resource budget exceeded: ")
        assert len(run.stderr.splitlines()) == 1

    def test_drift_with_huge_slopes(self, tmp_path, capsys):
        # |ln a| near 10^4: the drift-sum identity holds to rounding at that scale
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"atoms": [
            {"a": str(2**14000), "b": "0", "w": "1/3"},
            {"a": f"1/{3**8800}", "b": "1", "w": "2/3"},
        ]}}))
        assert main(["--config", str(cfg), "drift"]) == 0
        assert "# passed true" in capsys.readouterr().out

    def test_drift_bound_check_fails_with_exit_1(self, bias_config, capsys, monkeypatch):
        # a negative bound fails every residual: a report that says so, not a traceback
        monkeypatch.setattr(measure, "_drift_sum_bound", lambda mu: -1.0)
        monkeypatch.setattr(experiments, "_drift_sum_bound", lambda mu: -1.0)
        assert main(["--config", bias_config, "drift"]) == 1
        out, err = capsys.readouterr()
        assert "# passed false" in out
        assert err == ""

    def test_drift_sign_budget_exit_3(self, tmp_path, capsys, monkeypatch):
        # weights ln 2 / ln 6 to 80 digits: the drift is about 10^-80
        with localcontext() as ctx:
            ctx.prec = 80
            w = Fraction(Decimal(2).ln() / Decimal(6).ln())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"atoms": [
            {"a": "3", "b": "0", "w": str(w)},
            {"a": "1/2", "b": "1", "w": str(1 - w)},
        ]}}))
        monkeypatch.setattr(measure, "_SIGN_DIGITS", 64)
        assert main(["--config", str(cfg), "drift"]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
        monkeypatch.undo()
        assert main(["--config", str(cfg), "drift"]) == 0

    @pytest.mark.parametrize(
        "section, argv",
        [
            (None, ["gauge", "--k", "nan"]),
            (None, ["gauge", "--k", "inf"]),
            ({"walk": {"n": "abc"}}, ["walk"]),
            ({"walk": {"n": None}}, ["walk"]),
            (None, ["boundary", "--p", "2", "--margin", "0"]),
            ({"prop44": {"stab_factor": 0}}, ["prop44", "--places", "2"]),
            (None, ["walk", "--n", "-3"]),
            (None, ["entropy", "--n-max", "-2"]),
            ({"walk": {"n": 2.9}}, ["walk"]),
            (None, ["walk", "--n", "2.9"]),
            ({"lln41": {"n_grid": [10, 20.5]}}, ["lln41"]),
            ({"lln41": {"samples": 1.5}}, ["lln41"]),
            ({"walk": {"seed": 0.5}}, ["walk"]),
            (None, ["--seed", "abc", "walk"]),
            (None, ["--replicas", "1.5", "lln41"]),
            (None, ["--workers", "abc", "drift"]),
            (None, ["--workers", "0", "drift"]),
            ({"walk": {"n": True}}, ["walk"]),
            ({"lln41": {"samples": True, "n_grid": [3]}}, ["lln41"]),
            ({"lln41": {"samples": 2, "n_grid": [True, 3]}}, ["lln41"]),
            ({"walk": {"seed": False}}, ["walk"]),
            ({"boundary": {"step_cap": 0}}, ["boundary", "--p", "2"]),
            ({"boundary": {"step_cap": -5}}, ["boundary", "--p", "2"]),
        ],
        ids=["k-nan", "k-inf", "n-abc", "n-null", "margin-0", "stab-factor-0",
             "walk-n-negative", "n-max-negative", "n-non-integral",
             "n-flag-non-integral", "grid-non-integral", "samples-non-integral",
             "seed-non-integral", "seed-flag-abc", "replicas-flag-non-integral",
             "workers-abc", "workers-0", "n-bool", "samples-bool", "grid-bool", "seed-bool",
             "step-cap-0", "step-cap-negative"],
    )
    def test_bad_values_exit_2(self, tmp_path, capsys, section, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**REV, **(section or {})}))
        assert main(["--config", str(cfg)] + argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, key, value",
        [("lln43", "freq_threshold", 1.5), ("prop44", "freq_threshold", -0.5),
         ("lln41", "final_bound", -1.0)],
    )
    def test_verdict_threshold_out_of_range_exits_2(self, tmp_path, capsys, command, key, value):
        # exit 1 means a bound check failed, which a bad threshold must not fake
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**REV, command: {**_BASE_SECTIONS[command], key: value}}))
        assert main(["--config", str(cfg), command]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "must" in err


# a cheap valid section per subcommand: grids stay at n <= 10 and samples at 2
_BASE_SECTIONS = {
    "validate": {},
    "drift": {},
    "gauge": {"k": 1},
    "walk": {"n": 10, "primes": [2], "seed": 1},
    "boundary": {"p": 2, "digits": 4, "margin": 2, "step_cap": 1000, "seed": 1},
    "lln41": {"n_grid": [5, 10], "samples": 2, "seed": 1, "final_bound": 0.5},
    "lln43": {
        "places": [2], "n_grid": [5, 10], "samples": 2, "seed": 1,
        "epsilon": 0.1, "freq_threshold": 0.5,
    },
    "prop44": {
        "places": [2], "n_grid": [5, 10], "samples": 2, "seed": 1,
        "epsilon": 0.1, "freq_threshold": 0.5, "stab_factor": 2, "margin": 2,
    },
    "entropy": {"n_max": 4, "cell_budget": 100},
}
_KEYS = sorted({key for section in _BASE_SECTIONS.values() for key in section})
_SCALARS = st.sampled_from([-3, 0, 1, 2, 1.5, 2.9, "abc", None, "nan", []])
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, min_size=1, max_size=2))
# subcommand flag -> the config key it overrides; values stay cheap (<= 2)
_FLAGS = {
    "gauge": {"--k": "k"},
    "walk": {"--n": "n", "--p": "primes"},
    "boundary": {"--p": "p", "--digits": "digits", "--margin": "margin"},
    "lln43": {"--epsilon": "epsilon"},
    "prop44": {"--epsilon": "epsilon"},
    "entropy": {"--n-max": "n_max", "--cell-budget": "cell_budget"},
}
_FLAG_NAMES = sorted({flag for flags in _FLAGS.values() for flag in flags})
_FLAG_VALUES = st.sampled_from(["-3", "0", "1", "2", "1.5", "2.9", "abc", "nan", "inf", ""])
_INT_KEYS = {"n", "seed", "samples", "digits", "margin", "step_cap", "n_max",
             "cell_budget", "stab_factor"}


def _non_integral(value) -> bool:
    """A number, or a numeric string, with a fractional part."""
    try:
        return not float(value).is_integer() and value not in ("nan", "inf")
    except (TypeError, ValueError):
        return False


class TestFuzzedConfig:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(sorted(_BASE_SECTIONS)),
        overrides=st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=3),
        replicas=st.sampled_from([None, "1", "2", "3", "1.5", "abc"]),
        flags=st.dictionaries(st.sampled_from(_FLAG_NAMES), _FLAG_VALUES, max_size=3),
        # values that start no process pool
        workers=st.sampled_from([None, "1", "0", "-1", "1.5", "abc"]),
    )
    @example(command="prop44", overrides={"stab_factor": 0}, replicas=None, flags={},
             workers=None)
    @example(command="walk", overrides={"n": -3}, replicas=None, flags={},
             workers=None)
    @example(command="entropy", overrides={"n_max": -3}, replicas=None, flags={},
             workers=None)
    @example(command="walk", overrides={"n": 2.9}, replicas=None, flags={},
             workers=None)
    @example(
        command="entropy", overrides={}, replicas=None,
        flags={"--n-max": "1", "--cell-budget": "1"}, workers=None,
    )
    @example(command="drift", overrides={}, replicas=None, flags={}, workers="0")
    def test_exit_code_contract(
        self, tmp_path, command, overrides, replicas, flags, workers
    ):
        # keys a subcommand does not read are ignored, as in any config file
        section = {**_BASE_SECTIONS[command], **overrides}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**REV, command: section}))
        argv = ["--config", str(cfg)]
        if replicas is not None:
            argv += ["--replicas", replicas]
        if workers is not None:
            argv += ["--workers", workers]
        flags = {f: v for f, v in flags.items() if f in _FLAGS.get(command, {})}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [command] + [x for item in flags.items() for x in item])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code in (0, 1):
            # a report always has rows
            header = "experiment,p,n,seed,statistic,value\n"
            assert out.getvalue().split(header, 1)[1]
        if code == 1:
            assert "# passed false" in out.getvalue()
        if code in (2, 3):
            assert len(err.getvalue().splitlines()) == 1
        # a value with a fractional part where an integer is read exits 2
        read = {key: section[key] for key in _BASE_SECTIONS[command]}
        if replicas is not None and "samples" in read:
            read["samples"] = replicas
        for flag, value in flags.items():
            read[_FLAGS[command][flag]] = value
        if any(_non_integral(read[key]) for key in _INT_KEYS & set(read)):
            assert code == 2
        # every worker count drawn but 1 is invalid
        if workers not in (None, "1"):
            assert code == 2


# each subcommand's required inputs: (global flags, subcommand flags, run_* keywords)
_MINIMAL = {
    "validate": ([], [], {}),
    "drift": ([], [], {}),
    "gauge": ([], ["--k", "1"], {"k": 1.0}),
    "walk": ([], [], {}),
    "boundary": ([], ["--p", "2"], {"p": 2}),
    "lln41": (["--replicas", "2"], ["--n-grid", "5,10"], {"samples": 2, "n_grid": [5, 10]}),
    "lln43": (["--replicas", "2"], ["--n-grid", "5,10"], {"samples": 2, "n_grid": [5, 10]}),
    "prop44": (
        ["--replicas", "2"],
        ["--places", "2", "--n-grid", "5,10"],
        {"samples": 2, "places": [2], "n_grid": [5, 10]},
    ),
    "entropy": ([], [], {}),
}


# each subcommand's flags, as the hand-written parser declared them
_FLAG_SETS = {
    "validate": set(),
    "drift": set(),
    "gauge": {"--k"},
    "walk": {"--n", "--p"},
    "boundary": {"--p", "--digits", "--margin"},
    "lln41": {"--n-grid"},
    "lln43": {"--n-grid", "--places", "--epsilon"},
    "prop44": {"--n-grid", "--places", "--epsilon"},
    "entropy": {"--n-max", "--cell-budget"},
}


def test_one_worker_run_skips_the_process_pool():
    # the pool's import tree (multiprocessing) is paid only by a pooled run
    code = (
        "import sys, affwalk, affwalk.cli\n"
        "mu = affwalk.parse_measure_config(%r['measure'])\n"
        "affwalk.experiments.run_lln41(mu, n_grid=[10], samples=4, seed=1, workers=1)\n"
        "pool = ('multiprocessing', 'concurrent.futures.process')\n"
        "print([m for m in pool if m in sys.modules])\n"
    ) % BIAS
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_skips_dataclasses_and_inspect():
    # dataclasses imports inspect, and with it ast, dis and tokenize: start-up
    # time that no record needs
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def loaded(modules: str) -> str:
        probe = "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
        code = f"import {modules}\n{probe}"
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return run.stdout.strip()

    assert loaded("sys") == "[]"  # a bare interpreter loads neither
    assert loaded("sys, affwalk.cli") == "[]"


@pytest.mark.parametrize(
    "blob, argv, code",
    [
        (BIAS, ["drift"], 0),
        ({"measure": {"atoms": [{"a": "1", "b": "2", "w": "1"}]}}, ["validate"], 1),
        ({}, ["drift"], 2),
        (BIAS, ["entropy", "--cell-budget", "1"], 3),
    ],
    ids=["ok", "check-failed", "config-error", "budget"],
)
def test_python_m_affwalk_exits_with_the_code_of_main(tmp_path, capsys, blob, argv, code):
    # python -m affwalk runs __main__.py and cli.entrypoint, the console script's target
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(blob))
    argv = ["--config", str(cfg), *argv]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-m", "affwalk", *argv], env=env, capture_output=True, text=True
    )
    assert run.returncode == code
    assert main(argv) == code
    assert run.stdout == capsys.readouterr().out


def test_subcommand_flag_sets():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        cmd: {s for action in p.build()._actions for s in action.option_strings}
        - {"-h", "--help"}
        for cmd, p in sub.choices.items()
    }
    assert flags == _FLAG_SETS
    # walk tracks several primes, one --p each
    assert cli.build_parser().parse_args(["walk", "--p", "2", "--p", "3"]).p == ["2", "3"]


def _eager_parser() -> argparse.ArgumentParser:
    """``build_parser`` with every subcommand's parser built up front, from ``_PARAMS``."""
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
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, params in cli._PARAMS.items():
        cmd_parser = sub.add_parser(cmd, help=cli._HELP[cmd])
        for key, (flag, kind) in params.items():
            if flag not in (None, "seed", "replicas"):
                cmd_parser.add_argument(
                    "--" + flag.replace("_", "-"),
                    action="append" if kind is cli._primes else "store",
                    help=f"overrides config entry {cmd}.{key}",
                )
    return parser


def _main_outcome(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, a parser's exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([cmd, "--help"] for cmd in _FLAG_SETS),
        ["nosuch"],
        [],
        ["walk", "--bogus"],
        ["entropy", "--n-max"],
    ],
    ids=lambda argv: " ".join(argv) or "no-command",
)
def test_deferred_parsers_print_what_eager_ones_did(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    deferred = _main_outcome(argv)
    monkeypatch.setattr(cli, "build_parser", _eager_parser)
    assert deferred == _main_outcome(argv)
    assert deferred[0] in (0, 2)


def test_a_run_builds_only_its_own_subcommand_parser(monkeypatch, bias_config, capsys):
    built = []
    build = cli._Subcommand.build

    def counted(self):
        built.append(self.command)
        return build(self)

    monkeypatch.setattr(cli._Subcommand, "build", counted)
    assert _main_outcome(["--help"])[0] == 0
    assert built == []
    assert main(["--config", bias_config, "drift"]) == 0
    assert built == ["drift"]


class TestParameterTable:
    """The CLI passes keywords to run_<subcommand>; the defaults are the runner's."""

    @pytest.mark.parametrize("command", sorted(_MINIMAL))
    def test_table_matches_runner_signature(self, command):
        assert set(cli._PARAMS) == set(_MINIMAL)
        params = inspect.signature(getattr(cli, "run_" + command)).parameters
        assert set(cli._PARAMS[command]) <= set(params)
        required = {key for key, p in params.items() if p.default is p.empty} - {"mu"}
        assert set(cli._REQUIRED.get(command, ())) == required
        flags = vars(cli.build_parser().parse_args([command]))
        assert all(flag in flags for flag, _ in cli._PARAMS[command].values() if flag)

    @pytest.mark.parametrize("command", sorted(_MINIMAL))
    def test_defaults_come_from_the_runner(self, rev_config, capsys, command):
        global_flags, flags, kwargs = _MINIMAL[command]
        code = main(["--config", rev_config] + global_flags + [command] + flags)
        assert code in (0, 1)
        run = getattr(experiments, "run_" + command)
        mu = () if command == "gauge" else (parse_measure_config(REV["measure"]),)
        assert capsys.readouterr().out == render_csv(run(*mu, **kwargs))

    def test_runner_is_looked_up_at_call_time(self, bias_config, monkeypatch):
        # trace wrappers installed on affwalk.cli must be the ones called
        calls = []

        def stub(mu, **kwargs):
            calls.append(kwargs)
            return Report("entropy", {}, [Row("entropy", "", 1, 0, "H", 0.0)], {})

        monkeypatch.setattr(cli, "run_entropy", stub)
        assert main(["--config", bias_config, "entropy", "--n-max", "3"]) == 0
        assert calls == [{"n_max": 3}]


class TestOutputs:
    def test_drift_csv(self, bias_config, capsys):
        assert main(["--config", bias_config, "drift"]) == 0
        out = capsys.readouterr().out
        assert "experiment,p,n,seed,statistic,value" in out
        assert "drift,2,0,0,phi," in out

    def test_json_format(self, bias_config, capsys):
        assert main(["--config", bias_config, "--format", "json", "drift"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["name"] == "drift"
        assert blob["passed"] is True

    @pytest.mark.parametrize("command", sorted(_MINIMAL))
    def test_json_format_is_strict_json(self, rev_config, capsys, command):
        # RFC 8259 has no Infinity or NaN: step 0 of a walk has Z = 0, so
        # log|Z| = -inf and v_2(Z) = inf, which are written as "-inf" and "inf"
        global_flags, flags, _ = _MINIMAL[command]
        if command == "walk":
            flags = ["--p", "2"]
        argv = ["--config", rev_config, "--format", "json", *global_flags, command, *flags]
        assert main(argv) in (0, 1)

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        json.loads(capsys.readouterr().out, parse_constant=reject)

    def test_out_file(self, bias_config, tmp_path, capsys):
        target = tmp_path / "report.csv"
        assert main(
            ["--config", bias_config, "--out", str(target), "validate"]
        ) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("# name validate")

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_out_exits_2(self, bias_config, tmp_path, capsys, monkeypatch, where):
        # the path is checked before the suite runs: a report that cannot be
        # written is not computed
        def never(*args, **kwargs):
            raise AssertionError("the suite ran although its report cannot be written")

        monkeypatch.setattr(cli, "run_validate", never)
        target = tmp_path if where == "directory" else tmp_path / "nope" / "x.csv"
        assert main(["--config", bias_config, "--out", str(target), "validate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot write report: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("where", ["read-only file", "read-only parent"])
    def test_unwritable_out_permission_exits_2(
        self, bias_config, tmp_path, capsys, monkeypatch, where
    ):
        def never(*args, **kwargs):
            raise AssertionError("the suite ran although its report cannot be written")

        monkeypatch.setattr(cli, "run_validate", never)
        target = tmp_path / "report.csv"
        if where == "read-only file":
            target.write_text("earlier report\n")
        denied = str(target if where == "read-only file" else tmp_path)
        real_access = os.access
        # root passes a permission check on any mode, so the denial is simulated
        monkeypatch.setattr(
            os, "access", lambda p, mode: str(p) != denied and real_access(p, mode)
        )
        assert main(["--config", bias_config, "--out", str(target), "validate"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: cannot write report: ")
        assert "Permission denied" in captured.err
        assert captured.err.count("\n") == 1
        if where == "read-only file":
            assert target.read_text() == "earlier report\n"
        else:
            assert not target.exists()

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() == 0,
        reason="root may write a read-only directory",
    )
    def test_read_only_directory_out_exits_2(self, bias_config, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the suite ran although its report cannot be written")

        monkeypatch.setattr(cli, "run_validate", never)
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o500)
        try:
            target = locked / "report.csv"
            assert main(["--config", bias_config, "--out", str(target), "validate"]) == 2
            assert capsys.readouterr().err.startswith("config error: cannot write report: ")
            assert not target.exists()
        finally:
            locked.chmod(0o700)

    def test_out_file_untouched_by_a_failed_run(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        target.write_text("earlier report\n")
        config = tmp_path / "empty.json"
        config.write_text("{}")
        assert main(["--config", str(config), "--out", str(target), "drift"]) == 2
        assert "measure" in capsys.readouterr().err
        assert target.read_text() == "earlier report\n"

    def test_boundary_roundtrip(self, rev_config, capsys):
        # seed 11 locks a value with v_2 = 4, so its 8 digits need a lock at exponent 12
        assert main(
            ["--config", rev_config, "--seed", "11", "boundary",
             "--p", "2", "--digits", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "base 2" in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b03165a95c93dfb75ae85bb6359bf692716077639a20f79dd78585f49c55085d"
        )


class TestReproducibility:
    def test_identical_reruns(self, bias_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--config", bias_config, "--seed", "5", "--replicas", "10"]
        # short grids may fail the decay bound; only determinism matters here
        rc1 = main(args + ["--out", str(a), "lln41", "--n-grid", "40,80"])
        rc2 = main(args + ["--out", str(b), "lln41", "--n-grid", "40,80"])
        assert rc1 == rc2
        assert rc1 in (0, 1)
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_bytes(self, bias_config, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
        base = ["--config", bias_config, "--seed", "5", "--replicas", "10"]
        assert main(
            base + ["--workers", "1", "--out", str(a), "lln43"]
            + ["--n-grid", "40,80", "--places", "2"]
        ) == 0
        assert main(
            base + ["--workers", "4", "--out", str(b), "lln43"]
            + ["--n-grid", "40,80", "--places", "2"]
        ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_repeated_place_counts_once(self, rev_config, tmp_path):
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        base = ["--config", rev_config, "--seed", "3", "--replicas", "6"]
        for target, places in ((once, "2"), (twice, "2,2")):
            assert main(
                base + ["--out", str(target), "prop44", "--n-grid", "20,40", "--places", places]
            ) in (0, 1)
        assert once.read_bytes() == twice.read_bytes()

    def test_seed_changes_rows(self, bias_config, tmp_path):
        a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(
            ["--config", bias_config, "--seed", "1", "--replicas", "5",
             "--out", str(a), "lln41", "--n-grid", "40"]
        ) in (0, 1)
        assert main(
            ["--config", bias_config, "--seed", "2", "--replicas", "5",
             "--out", str(b), "lln41", "--n-grid", "40"]
        ) in (0, 1)
        assert a.read_bytes() != b.read_bytes()
