"""Tests of the benchmark itself, on reduced sizes:  python3 -m pytest bench -q

They run every workload in quick mode, traced and untraced, and check that
every metric named in BENCHMARK.json comes out with its unit and that every
pin holds.  The whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
QUICK_BUDGET_S = 60


def _run(*args, cwd=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=cwd)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_quick_mode_emits_every_metric_with_its_unit():
    started = time.perf_counter()
    for workload in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = _run("--workload", workload["name"], "--seconds", "1",
                        "--trace", str(trace), "--quick")
            result = _result(done)
            label = f"{workload['name']} --trace {trace}"
            assert result["correct"] and result["failed"] == 0, label
            assert result["attempted"] >= 1, label
            wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
            assert set(result["metrics"]) == set(wanted), label
            for name, unit in wanted.items():
                metric = result["metrics"][name]
                assert metric["unit"] == unit, (label, name)
                assert isinstance(metric["value"], (int, float)), (label, name)
                if kind == "end_to_end":
                    assert metric["value"] > 0, (label, name)
    assert time.perf_counter() - started < QUICK_BUDGET_S


def test_held_out_seed_skips_only_the_hash_pin():
    done = _run("--workload", "tracking", "--seed", "5", "--seconds", "1",
                "--trace", "1", "--quick")
    result = _result(done)
    assert result["correct"]
    assert result["metrics"]["walk.steps"]["value"] == WORKLOADS["tracking"].quick.work
    assert '"hash_pinned": false' in done.stdout


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "tracking", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_tracer_marks_a_vanished_target_missing():
    original = json.dumps
    tracer = Tracer()
    tracer.install("gone", [("json", "no_such_function"), ("no_such_module", "f")])
    assert "gone" in tracer.missing
    tracer.install("kept", [("json", "dumps")])
    try:
        assert json.dumps([1]) == "[1]"
    finally:
        tracer.uninstall()
    assert tracer.calls("kept") == 1
    assert "kept" not in tracer.missing
    assert json.dumps is original
