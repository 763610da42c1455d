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
EXACT = "src/affwalk/exact.py"
GROUP = "src/affwalk/group.py"
MEASURE = "src/affwalk/measure.py"
PADIC = "src/affwalk/padic.py"
PRNG = "src/affwalk/prng.py"
CLI = "src/affwalk/cli.py"
WALK = "src/affwalk/walk.py"
LOCK_ORACLE = "tests/test_walk.py::TestLockOracle"
PROBE_ORACLE = "tests/test_walk.py::TestProbeOracle"
JOINT_LOCK = "tests/test_walk.py::TestExtractBoundary::test_joint_finite_and_real_lock"
ALL_B_ZERO = "tests/test_walk.py::TestExtractBoundary::test_all_b_zero_locks_at_once"
TINY_B = "tests/test_walk.py::TestExtractBoundary::test_translation_below_float_range"
SYMMETRY = "tests/test_symmetry.py"
NORM_ORACLE = "tests/test_exact.py::test_norms_read_valuation_as_their_old_formulas_did"
WALK_BYTES = "tests/test_experiments.py::TestPinnedReports::test_walk_bytes"

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
        "v(0) on R is -inf",
        EXACT,
        "        return INFINITE_VALUATION\n",
        "        return -INFINITE_VALUATION if place == INFINITE_PLACE else INFINITE_VALUATION\n",
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
        "real_vb = valuation(max_b, INFINITE_PLACE)",
        "real_vb = 0 if not max_b else valuation(max_b, INFINITE_PLACE)",
        [ALL_B_ZERO],
    ),
    (
        "R's min v(b) is inf when max |b| rounds to the float 0",
        WALK,
        "real_vb = valuation(max_b, INFINITE_PLACE)",
        "real_vb = math.inf if max_b < 1 else valuation(max_b, INFINITE_PLACE)",
        [TINY_B],
    ),
    # one valuation at every place, and what reads it
    (
        "v_inf as ln(den) - ln|num|, which reads +0.0 at 1",
        EXACT,
        "return -(math.log(abs(num)) - math.log(den))",
        "return math.log(den) - math.log(abs(num))",
        [WALK_BYTES],
    ),
    (
        "log_norm_plus without its clamp",
        EXACT,
        "return max(0.0, log_norm(q, place))",
        "return log_norm(q, place)",
        ["tests/test_exact.py::TestLogNorm", NORM_ORACLE],
    ),
    (
        "extract_boundary reads a limit past float range without a guard",
        WALK,
        """        try:
            center = float(rep)
        except OverflowError:
            size = -valuation(rep, INFINITE_PLACE) / math.log(10)
            raise ValueError(f"locked value of about 10^{size:.0f} is past float range") from None
""",
        "        center = float(rep)\n",
        ["tests/test_walk.py::TestRealLimit::test_limit_past_float_range_is_refused"],
    ),
    (
        "gauge radius not checked for finiteness",
        GROUP,
        """    if not math.isfinite(k):
        raise ValueError(f"radius {k} is not finite")
""",
        "",
        ["tests/test_group.py::TestGauge::test_radius_that_is_not_finite_is_refused"],
    ),
    # the exact layer
    (
        "_terms' fast path accepts bool",
        EXACT,
        "    if kind is int:\n",
        "    if kind is int or kind is bool:\n",
        ["tests/test_exact.py::test_terms_reads_other_ints_through_fraction"],
    ),
    (
        "_require_count accepts bool",
        EXACT,
        "if not isinstance(value, int) or isinstance(value, bool):",
        "if not isinstance(value, int):",
        ["tests/test_exact.py::TestRequireCount"],
    ),
    (
        "ball_key_exact skips the denominator strip",
        PADIC,
        """    elif v < 0:
        den //= p**-v
""",
        "",
        ["tests/test_padic.py"],
    ),
    (
        "_infinite_sign stops one round early",
        MEASURE,
        "while digits <= _SIGN_DIGITS:",
        "while digits < _SIGN_DIGITS:",
        ["tests/test_measure.py::TestInfiniteSign"],
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
    # the batch width and the deferred subcommand parsers
    (
        "step() crosses a batch edge every 64 steps, while LANES is 128",
        WALK,
        "if not count % 128:",
        "if not count % 64:",
        ["tests/test_walk.py::TestAdvance::test_matches_repeated_step"],
    ),
    (
        "_LANE_GAMMAS built over LANES - 1 lanes",
        PRNG,
        "for i in range(LANES))\n_LANES_GAMMA",
        "for i in range(LANES - 1))\n_LANES_GAMMA",
        ["tests/test_prng.py"],
    ),
    (
        "the deferred subcommand parser drops action=\"append\" for --p",
        CLI,
        'action="append" if kind is _primes else "store",',
        'action="store",',
        ["tests/test_cli.py::test_subcommand_flag_sets"],
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
