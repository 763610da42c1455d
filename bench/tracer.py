"""Span tracer installed from outside the package, by wrapping callables.

Each wrapper records a span (name, start, end, parent) around one call.  Self
time is a span's duration minus the time its child spans cover.  Per-name
totals are kept for every span; full span records are kept only for the
coarse names marked ``keep``, because the hot names (one walk step, one PRNG
draw) run millions of times and a record each would cost more memory than
the workload itself.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from typing import Callable, Optional, Sequence


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list[int]] = []  # open spans: [child_ns, span_id]
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list[tuple[int, str, int, int, Optional[int]]] = []
        self.missing: dict[str, str] = {}  # span name -> why nothing was wrapped

    def _wrap(self, name: str, fn: Callable, keep: bool, observe: Optional[Callable]):
        stack, ids, spans = self._stack, self._ids, self.spans
        stat = self.stats.setdefault(name, [0, 0, 0])
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if keep:
                    spans.append(
                        (frame[1], name, start, end, parent[1] if parent else None)
                    )
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(
        self,
        name: str,
        targets: Sequence[tuple[str, str]],
        keep: bool = False,
        observe: Optional[Callable] = None,
    ) -> None:
        """Wrap every existing (module, dotted attribute) binding in targets.

        Bindings are wrapped where each caller looks them up, so a function
        imported by name into another module is wrapped in that module too.
        A binding that no longer exists is skipped; when none exists, the
        span name is recorded in ``missing`` instead of raising.
        """
        self.stats.setdefault(name, [0, 0, 0])
        wrapped = 0
        for module_name, dotted in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                continue
            setattr(owner, attr, self._wrap(name, fn, keep, observe))
            self._undo.append((owner, attr, fn))
            wrapped += 1
        if not wrapped:
            wanted = ", ".join(f"{m}.{a}" for m, a in targets)
            self.missing[name] = f"no wrap target exists among {wanted}"

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def total_ns(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[1]

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[2]

    def dump(self, path) -> None:
        payload = {
            "spans": [
                {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "aggregates": {
                name: {"calls": c, "total_ns": t, "self_ns": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
