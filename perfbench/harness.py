"""Metric math and the span tracer shared by the benchmark workloads.

Nothing here imports ``ptqtune``: the tracer patches module attributes it is
handed, so the same code times any layer and is testable on its own.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import platform
import resource
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable

MIN_BEYOND = 10  # a percentile is reported only with this many samples past it


# ---------------------------------------------------------------- statistics
def percentile(values: Iterable[float], q: float) -> float:
    """q-quantile (0 < q < 1) by linear interpolation between order statistics.

    Raises ValueError unless at least ``MIN_BEYOND`` samples lie beyond the
    quantile's rank, i.e. ``n * (1 - q) >= 10``: p50 needs 20 samples and
    p90 needs 100.
    """
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    if n * (1.0 - q) < MIN_BEYOND - 1e-9:
        raise ValueError(f"p{q * 100:g} needs {math.ceil(MIN_BEYOND / (1 - q) - 1e-9)} "
                         f"samples, got {n}")
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def failed_ratio(failed: int, attempted: int) -> float:
    if attempted <= 0:
        raise ValueError("no operations attempted")
    return failed / attempted


def count_failed_trials(rows: Iterable[dict]) -> tuple[int, int]:
    """(attempted, failed) over tuning-database rows; the fp32 baseline row
    (``config`` null) is not a trial, and ``error: true`` marks a failure."""
    attempted = failed = 0
    for row in rows:
        if row.get("config") is None:
            continue
        attempted += 1
        failed += bool(row.get("error", False))
    return attempted, failed


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (ru_maxrss is KiB on
    Linux, bytes on macOS)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024.0 * 1024.0) if sys.platform == "darwin" else rss / 1024.0


# -------------------------------------------------------------------- spans
class Tracer:
    """Records spans around calls into patched functions.

    A span is ``[name, start, end, parent, counts]``: ``parent`` is the index
    of the enclosing span (-1 at top level) and ``counts`` an optional dict
    measured at the boundary by a per-function hook.  Spans stay in memory
    until ``dump``.  One tracer serves one thread.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, out)
            return out

        return traced

    def install(self, layers: dict[str, object], namespaces: Iterable[object],
                skip: dict[str, set[str]] | None = None,
                hooks: dict[str, Callable] | None = None) -> list[str]:
        """Wrap every public function defined in each layer module.

        ``layers`` maps a layer name to its module.  The wrapper replaces the
        function in its own module and in every namespace of ``namespaces``
        that bound the same object (``from .x import f``).  Returns the span
        names installed.
        """
        skip = skip or {}
        hooks = hooks or {}
        namespaces = list(namespaces)
        names = []
        for layer, mod in layers.items():
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or attr in skip.get(layer, ())):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, hooks.get(name))
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._patched.append((ns, bound, fn))
                            setattr(ns, bound, wrapped)
                names.append(name)
        return names

    def uninstall(self) -> None:
        for ns, bound, fn in reversed(self._patched):
            setattr(ns, bound, fn)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, f)
            f.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds; per layer (the
    name's first component): self seconds under the key ``<layer>``."""
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        row = out[s[0]]
        row["calls"] += 1
        row["s"] += s[2] - s[1]
        row["self_s"] += own
        out[s[0].split(".", 1)[0]]["self_s"] += own
    return dict(out)


def ancestors(spans: list[list], i: int) -> Iterable[int]:
    p = spans[i][3]
    while p >= 0:
        yield p
        p = spans[p][3]


def children(spans: list[list]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    return kids


class NodeTimer:
    """Sink for ``run_fp32``/``run_quantized`` that charges the time since
    the previous sink call (or ``start``) to the kind of the node whose
    output arrived.  Tensors that no node produces (the graph input) only
    restart the clock."""

    def __init__(self, nodes, clock: Callable[[], float] = time.perf_counter):
        self.kind_of = {n.output: n.kind for n in nodes}
        self.clock = clock
        self.totals: dict[str, float] = defaultdict(float)
        self._last = 0.0

    def start(self) -> "NodeTimer":
        self._last = self.clock()
        return self

    def __call__(self, tensor_id: str, _values) -> None:
        now = self.clock()
        kind = self.kind_of.get(tensor_id)
        if kind is not None:
            self.totals[kind] += now - self._last
        self._last = now


# --------------------------------------------------------------- environment
def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name', '?')} {cfg.get('version', '?')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }
