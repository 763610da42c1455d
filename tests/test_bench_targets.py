"""Every callable the benchmark's tracer wraps by name still exists.

``bench/passes.py`` measures each layer by wrapping module attributes with
``bench/tracer.Tracer``; a deleted or renamed target makes its per-layer
metric read null, which only the slower ``python -m pytest bench`` notices.
This installs every span on a fresh tracer, without running a workload.
The benchmark also pins how many times the ``walk.step`` span fires: once
per walk step, which a batching change to the walker must keep.
"""

import importlib.util
import sys
from pathlib import Path

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
