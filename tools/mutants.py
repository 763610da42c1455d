#!/usr/bin/env python3
"""Rerunnable mutant list: each entry breaks the code on purpose, and its tests must fail.

Usage (from anywhere; needs pytest and hypothesis, as the tests do):

    python tools/mutants.py

An entry is (name, file, old text, new text, test node ids).  The script
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory
and first runs the union of the named tests there unchanged: they must pass,
or no kill would mean anything.  Then, for each entry, it replaces the one
occurrence of the old text in the copy's file, runs the named tests with
``-x -q``, and restores the file.  A mutant the tests do not fail survives.
Exit status: 0 when every mutant is killed, 1 when one survives, an entry's
old text does not occur exactly once, or the unchanged tests fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALK = "src/affwalk/walk.py"
MEASURE = "src/affwalk/measure.py"
LOCK_ORACLE = "tests/test_walk.py::TestLockOracle"
PROBE_ORACLE = "tests/test_walk.py::TestProbeOracle"
JOINT_LOCK = "tests/test_walk.py::TestExtractBoundary::test_joint_finite_and_real_lock"
ALL_B_ZERO = "tests/test_walk.py::TestExtractBoundary::test_all_b_zero_locks_at_once"
TINY_B = "tests/test_walk.py::TestExtractBoundary::test_translation_below_float_range"
SYMMETRY = "tests/test_symmetry.py"

MUTANTS = [
    # the one lock-and-probe rule, R among the places
    (
        "lock needs v > need (< made <=)",
        WALK,
        "if levels[j] < need:",
        "if levels[j] <= need:",
        [LOCK_ORACLE, JOINT_LOCK],
    ),
    (
        "lock drops R's move",
        WALK,
        "            moves = [(*m, (len(enc.primes), v, 0)) for m, v in zip(moves, enc.v_inf)]\n",
        "",
        [LOCK_ORACLE, JOINT_LOCK],
    ),
    (
        "probe needs v > t (>= made >)",
        WALK,
        "agreed.append((p, v >= t))",
        "agreed.append((p, v > t))",
        [PROBE_ORACLE],
    ),
    (
        "_v(0) on R is -inf",
        WALK,
        "return -log_norm(q, place) if q else math.inf",
        "return -log_norm(q, place) if q else -math.inf",
        [ALL_B_ZERO],
    ),
    (
        "probe drops the denominator's v_p",
        WALK,
        "v = valuation(diff, p) - valuation(den, p)",
        "v = valuation(diff, p)",
        [PROBE_ORACLE],
    ),
    (
        "R's min v(b) is 0 when every b is 0",
        WALK,
        "real_vb = _v(max_b, INFINITE_PLACE)",
        "real_vb = 0 if not max_b else _v(max_b, INFINITE_PLACE)",
        [ALL_B_ZERO],
    ),
    (
        "R's min v(b) is inf when max |b| rounds to the float 0",
        WALK,
        "real_vb = _v(max_b, INFINITE_PLACE)",
        "real_vb = math.inf if max_b < 1 else _v(max_b, INFINITE_PLACE)",
        [TINY_B],
    ),
    # the symmetry oracles
    (
        "z read without scale",
        WALK,
        "return Fraction(self._n, self._enc.scale * self._d)",
        "return Fraction(self._n, self._d)",
        [SYMMETRY],
    ),
    (
        "convolve's re-keyed copy ignores m1",
        MEASURE,
        "counts = {x * m1 + shift: c1 * c2 for x, c1 in xs.items()}",
        "counts = {x + shift: c1 * c2 for x, c1 in xs.items()}",
        [SYMMETRY],
    ),
    (
        "convolve's m1 forced to 1",
        MEASURE,
        "m1 = den // d1",
        "m1 = 1",
        [SYMMETRY],
    ),
]


def _pytest(copy: Path, tests: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)


def main() -> int:
    bad = False
    for name, path, old, _, _ in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            print(f"{name}: old text occurs {count} times in {path}, not once")
            bad = True
    if bad:
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        tests = list(dict.fromkeys(t for *_, ids in MUTANTS for t in ids))
        clean = _pytest(copy, tests)
        if clean.returncode != 0:
            print("the named tests fail on the unchanged code:")
            print(clean.stdout[-2000:])
            return 1
        survivors = []
        for name, path, old, new, ids in MUTANTS:
            target = copy / path
            source = target.read_text()
            target.write_text(source.replace(old, new))
            start = time.perf_counter()
            killed = _pytest(copy, ids).returncode != 0
            target.write_text(source)
            verdict = "killed  " if killed else "SURVIVED"
            print(f"{verdict} {time.perf_counter() - start:5.1f}s  {name}")
            if not killed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
