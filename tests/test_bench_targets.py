"""Every callable the benchmark's tracer wraps by name still exists.

``bench/passes.py`` measures each layer by wrapping module attributes with
``bench/tracer.Tracer``; a deleted or renamed target makes its per-layer
metric read null, which only the slower ``python -m pytest bench`` notices.
This installs every span on a fresh tracer, without running a workload.
The benchmark also pins how many times the ``walk.step`` span fires: once
per walk step, which a batching change to the walker must keep, and the
cells and final support its ``measure.convolve`` span reads on ``entropy``.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import affwalk.cli
import affwalk.experiments
import affwalk.walk
from affwalk.walk import _Walker

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_passes():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_passes", BENCH / "passes.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)  # puts bench/ on sys.path for its imports
    finally:
        sys.path[:] = saved
    return module


def test_every_span_has_a_target():
    passes = _load_passes()
    tracer = passes.Tracer()
    try:
        for name, targets, keep in passes.SPANS:
            tracer.install(name, targets, keep)
        assert tracer.missing == {}
    finally:
        tracer.uninstall()
    # wrapped or called directly by passes.py outside SPANS
    assert callable(affwalk.experiments.convolve)
    assert callable(affwalk.walk.sample_path)
    assert callable(affwalk.walk.boundary_digits)


def test_prop44_calls_step_once_per_walk_step(monkeypatch, mu_rev):
    calls = 0
    step = _Walker.step

    def counted(self):
        nonlocal calls
        calls += 1
        return step(self)

    monkeypatch.setattr(_Walker, "step", counted)
    report = affwalk.experiments.run_prop44(
        mu_rev, [2], n_grid=[10, 25], samples=3, seed=1, stab_factor=2, margin=8
    )
    n_stab = report.summary["n_stab"]
    assert n_stab == 2 * 25
    assert calls == 3 * (n_stab + 8)


def test_entropy_cells_and_support_match_bench_pins(monkeypatch, capsys):
    # measure.cells sums t1.support_size * t2.support_size over the
    # experiments.convolve calls; measure.final_support is the last table's
    entropy = _load_passes().WORKLOADS["entropy"]
    quick = entropy.size("quick")
    convolve = affwalk.experiments.convolve
    cells = 0
    last = None

    def counted(t1, t2, *args, **kwargs):
        nonlocal cells, last
        cells += t1.support_size * t2.support_size
        last = convolve(t1, t2, *args, **kwargs)
        return last

    monkeypatch.setattr(affwalk.experiments, "convolve", counted)
    argv = ["--config", str(entropy.config_path()), "entropy", "--n-max", str(quick.param)]
    assert affwalk.cli.main(argv) == 0
    assert (cells, last.support_size) == (quick.work, quick.support) == (3_282, 1_019)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == quick.sha256
