"""affwalk benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload tracking --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload entropy --trace 1
    python3 bench/run.py --workload stationarity --quick

Workloads, their sizes, their inputs and their pinned outputs are in
workloads.py; why each exists and which layer metric should move which
end-to-end metric is in README.md.  Run it from anywhere: paths are taken
from this file's location.

With ``--trace 0`` it first runs one untimed pass at the gate size and at the
workload's worker count, which checks the gate report and gives the peak
RSS.  Then it starts one fresh process per pass at the timed size and at 1
worker (passes.py) until ``--seconds`` have gone by since the run began.
Each time metric is the 90th percentile over the run's passes, and work per
second the 10th.  The CPU this was written on switches between a loaded
speed and one about 1.8x faster, for seconds to minutes at a time.  The
loaded speed, which the slower passes of a run show, reads alike from run
to run; a median or a minimum moves with how much of the run got the
faster speed.  README.md gives the measurements.

With ``--trace 1`` it starts one traced process at the gate size and
reports the per-layer metrics.

Every pass is checked: its exit code must match its report, its report bytes
must hash to the pin of its size at the gate seed (and agree across passes
of that size at any seed), and the work it accounts for must match the
pinned counts.  The ``stationarity`` workload also checks, once per run and
outside the timed passes, that its report bytes at the timed size are the
same at 2 workers as at 1.

Lines starting with ``#`` describe the run for a reader: the environment,
each pass, each metric with its spread and the error rate.  The last line
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import BENCH_DIR, ROOT, SRC, WORKLOADS, Workload, hash_pinned  # noqa: E402

PASS_SCRIPT = BENCH_DIR / "passes.py"
PASS_TIMEOUT_S = 170
# stop starting passes once this much of the 180 s a run may take is used
RUN_BUDGET_S = 140

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def log(text: str) -> None:
    print(f"# {text}", flush=True)


def environment() -> dict:
    """Interpreter, machine and source identity of this run."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha256()
    for path in sorted((SRC / "affwalk").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": cpu_model,
        "affwalk_commit": commit,
        "affwalk_src_sha256": tree.hexdigest(),
    }


def start_pass(workload: Workload, seed: int, size: str, workers=None, trace=False):
    """Run passes.py once at one size; returns its JSON result, or an error string."""
    cmd = [sys.executable, str(PASS_SCRIPT), "--workload", workload.name,
           "--seed", str(seed), "--size", size]
    cmd += ["--trace"] if trace else ["--workers", str(workers)]
    # its own session, so a pass that hangs is killed with its pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return f"pass timed out after {PASS_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return f"pass process exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return "pass process printed no result"


class Checker:
    """Decides whether each pass's output is correct and counts the failures."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.pinned = hash_pinned(workload, seed)
        self.reference: dict[str, str] = {}  # size name -> expected sha256
        self.attempted = 0
        self.failed = 0

    def check(self, result, label: str, size: str, problems=()) -> bool:
        self.attempted += 1
        problems = list(problems)
        if isinstance(result, str):
            problems.append(result)
        else:
            if result["exit_code"] != result["expected_exit_code"]:
                problems.append(
                    f"exit code {result['exit_code']}, report implies "
                    f"{result['expected_exit_code']}"
                )
            if self.pinned:
                self.reference.setdefault(size, self.workload.size(size).sha256)
            # held-out seed: the first pass of each size sets the reference
            expected = self.reference.setdefault(size, result["sha256"])
            if result["sha256"] != expected:
                what = "pinned" if self.pinned else "first pass's"
                problems.append(f"report sha256 {result['sha256'][:16]} is not the {what}")
            pinned_work = self.workload.size(size).work
            if pinned_work is not None and result["work"] is not None:
                if result["work"] != pinned_work:
                    problems.append(
                        f"report accounts for {result['work']} walk steps, "
                        f"pinned {pinned_work}"
                    )
        if problems:
            self.failed += 1
            print(f"FAILED {self.workload.name} {label}: {'; '.join(problems)}",
                  file=sys.stderr, flush=True)
        return not problems

    def count_problems(self, metrics: dict, size: str) -> list[str]:
        """Work-count pins on the traced pass; throughputs divide by these."""
        pinned = self.workload.size(size)
        pins = {}
        if self.workload.name == "tracking":
            pins["walk.steps"] = pinned.work
        if self.workload.name == "entropy":
            pins["measure.cells"] = pinned.work
            pins["measure.final_support"] = pinned.support
        problems = []
        for name, pin in pins.items():
            got = metrics[name]["value"]
            if got is None:
                log(f"{name} is missing, so its pin {pin} is not checked")
            elif got != pin:
                problems.append(f"{name} = {got}, pinned {pin}")
        return problems


def work_of(workload: Workload, size: str, result: dict) -> int:
    """Walk steps or convolution cells done by one pass."""
    if workload.name == "entropy":
        return workload.size(size).work
    return result["work"]


def decile(values, k: int) -> float:
    """The k-th decile of values, interpolated between the nearest two."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"min {min(values):.6g} max {max(values):.6g} n={len(values)}"


def timed_run(workload: Workload, seed: int, seconds: int, quick: bool, checker: Checker):
    gate_size, timed_size = ("quick", "quick") if quick else ("full", "timed")
    started = time.perf_counter()
    # untimed gate-size pass: the pinned gate report and the peak RSS
    gate = start_pass(workload, seed, gate_size, workers=workload.workers)
    if checker.check(gate, "gate-size pass", gate_size):
        log(f"gate-size pass: wall {gate['wall_s']:.4f} s, "
            f"rss {gate['peak_rss_mb']:.1f} MB, sha256 {gate['sha256'][:16]}")
    good = []
    longest = 0.0
    # the gate-size pass counts against --seconds, so a run lasts about as
    # long whatever speed the machine runs at
    while not good or time.perf_counter() - started < seconds:
        if time.perf_counter() - started + 2 * longest > RUN_BUDGET_S:
            log("stopping early to stay inside the run's time limit")
            break
        t0 = time.perf_counter()
        # one worker: a 2-worker pass needs both CPUs of a 2-CPU machine, and
        # when a neighbour takes one of them its wall time doubles for minutes
        result = start_pass(workload, seed, timed_size, workers=1)
        longest = max(longest, time.perf_counter() - t0)
        label = f"pass {len(good) + 1}"
        if not checker.check(result, label, timed_size):
            break  # a wrong pass fails the run; do not time more of it
        good.append(result)
        log(f"{label}: wall {result['wall_s']:.4f} s, cpu {result['cpu_s']:.4f} s, "
            f"setup {result['setup_s']:.4f} s, sha256 {result['sha256'][:16]}")
    if workload.workers > 1 and good:
        # worker-count invariance of the report bytes, outside the timed passes
        fanned = start_pass(workload, seed, timed_size, workers=workload.workers)
        if checker.check(fanned, f"{workload.workers}-worker identity check", timed_size):
            log(f"{workload.workers}-worker report bytes match the 1-worker passes")
    if not good or isinstance(gate, str):
        return None
    per_pass = {
        "setup_s": [r["setup_s"] for r in good + [gate]],
        "wall_s": [r["wall_s"] for r in good],
        "cpu_s": [r["cpu_s"] for r in good],
        "work_per_s": [work_of(workload, timed_size, r) / r["wall_s"] for r in good],
    }
    metrics = {}
    for name, values in per_pass.items():
        # the slow end of the run: the top decile of times, the bottom of rates
        value = decile(values, 1 if name == "work_per_s" else 9)
        metrics[name] = {"value": value, "unit": E2E_UNITS[name]}
        log(f"{name} {value:.6g} {E2E_UNITS[name]}, "
            f"median {statistics.median(values):.6g} ({spread(values)})")
    metrics["peak_rss_mb"] = {"value": gate["peak_rss_mb"], "unit": E2E_UNITS["peak_rss_mb"]}
    log(f"peak_rss_mb {gate['peak_rss_mb']:.6g} MB, of the gate-size pass")
    log(f"work_per_s counts {workload.work_unit} per wall second")
    return metrics


def traced_run(workload: Workload, seed: int, quick: bool, checker: Checker):
    size = "quick" if quick else "full"
    result = start_pass(workload, seed, size, trace=True)
    if isinstance(result, str):
        checker.check(result, "traced run", size)
        return None
    metrics = result["metrics"]
    labels = ("untraced 1-worker pass", "untraced 2-worker pass", "traced 1-worker pass")
    for label, one in zip(labels, result["passes"]):
        problems = checker.count_problems(metrics, size) if label.startswith("traced") else ()
        if checker.check(one, label, size, problems):
            log(f"{label}: wall {one['wall_s']:.4f} s, cpu {one['cpu_s']:.4f} s, "
                f"sha256 {one['sha256'][:16]}")
    for name, metric in metrics.items():
        note = f" (missing: {metric['missing']})" if "missing" in metric else ""
        log(f"{name} {metric['value']} {metric['unit']}{note}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance-gate seed)")
    parser.add_argument("--seconds", type=int, default=40,
                        help="start timed passes until this many seconds have gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "affwalk" / "__init__.py").is_file():
        print(f"no affwalk sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.gate_seed if args.seed is None else args.seed
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    env.update(workload=workload.name, seed=seed, quick=args.quick,
               hash_pinned=hash_pinned(workload, seed))
    checker = Checker(workload, seed)

    if args.trace:
        metrics = traced_run(workload, seed, args.quick, checker)
    else:
        metrics = timed_run(workload, seed, args.seconds, args.quick, checker)
    env["loadavg_after"] = os.getloadavg()
    log(f"env {json.dumps(env, sort_keys=True)}")
    log(f"error_rate {checker.failed / max(checker.attempted, 1):.6g} "
        f"({checker.failed} failed of {checker.attempted} passes)")
    if metrics is None:
        print("no pass succeeded; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
