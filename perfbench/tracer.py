"""In-memory span tracer for the traced benchmark runs.

A span is (name, start, end, parent).  Spans are opened by the benchmark
around its own calls into the library and by wrappers installed over the
module-level names each layer calls, for example ``propmrf.fdc.minfill_width``
(the name ``fdc_count`` looks up) or ``propmrf.fis.is_satisfiable`` (the name
the sampler looks up).  Wrapping the name in the calling module, not the
defining one, keeps recursion inside a layer out of its call count:
``propmrf.sat.is_satisfiable`` calls itself through ``propmrf.sat``, which is
not wrapped, so ``sat.calls`` counts top-level checks only.

Spans live in flat arrays and are written out once, at the end of the run.
A layer's self time is the duration of its spans minus the time their direct
children cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(
        self,
        module: object,
        attr: str,
        name: str,
        counted: bool = True,
        observe: Callable[[Counter, object], None] | None = None,
    ) -> None:
        """Replace module.attr by a wrapper that records a span per call.

        counted=False folds the call's time into the layer without adding to
        ``<name>.calls`` (for helpers such as factor building inside VE).
        observe(counters, result) reads deterministic counters off the result.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if counted:
                self.counters[name + ".calls"] += 1
            if observe is not None:
                observe(self.counters, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @property
    def mark(self) -> int:
        return len(self.start)

    def truncate(self, mark: int) -> None:
        """Drop the spans recorded since mark (their times were already read)."""
        for arr in (self.name_id, self.start, self.end, self.parent):
            del arr[mark:]

    def layer_times(self, mark: int) -> dict[str, float]:
        """Self time per span name, plus ``<name>.incl`` inclusive time, over
        the spans recorded since mark."""
        names = np.frombuffer(self.name_id, dtype=np.int32)[mark:]
        if names.size == 0:
            return {}
        dur = (
            np.frombuffer(self.end, dtype=np.float64)[mark:]
            - np.frombuffer(self.start, dtype=np.float64)[mark:]
        )
        parent = np.frombuffer(self.parent, dtype=np.int32)[mark:]
        own = dur.copy()
        inside = parent >= mark
        np.subtract.at(own, parent[inside] - mark, dur[inside])
        width = len(self.names)
        self_s = np.bincount(names, weights=own, minlength=width)
        incl_s = np.bincount(names, weights=dur, minlength=width)
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[name] = float(self_s[nid])
            out[name + ".incl"] = float(incl_s[nid])
        return out

    def write(self, path) -> int:
        """Write every retained span as gzip JSON lines; returns the count."""
        n = len(self.start)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent"]}) + "\n")
            for i in range(n):
                fh.write(
                    json.dumps(
                        [self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]]
                    )
                    + "\n"
                )
        return n
