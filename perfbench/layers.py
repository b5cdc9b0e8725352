"""Per-layer timing taken from outside the program.

A :class:`LayerTracer` replaces the public entry point of each layer
(a method on a class, or a function in the module namespace where its
caller looks it up) with a wrapper that opens a span on entry and
closes it on exit.  Nothing inside ``src/`` changes: the wrappers are
installed for one measured phase and removed afterwards, leaving every
patched attribute exactly as it was.

Self time is a span's duration minus the time covered by its child
spans.  Span stacks are kept per thread, because the classification
service runs its batches on a worker thread: a span on the worker never
subtracts from a span open on the submitting thread.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

#: Layer name -> entry points, each ``(module, owner, attribute)``.
#: ``owner`` is a class name inside ``module``, or ``None`` when the
#: attribute is a module-level function looked up in ``module``.
LAYERS: dict[str, tuple[tuple[str, str | None, str], ...]] = {
    "sim.step": (("repro.sim.engine", "SimulationEngine", "step"),),
    # engine.py imports allocate by name, so it is wrapped there.
    "sim.contention": (("repro.sim.engine", None, "allocate"),),
    "vm.counters": (
        ("repro.vm.counters", "NodeCounters", "account_cpu"),
        ("repro.vm.counters", "NodeCounters", "account_io"),
        ("repro.vm.counters", "NodeCounters", "account_swap"),
        ("repro.vm.counters", "NodeCounters", "account_net"),
        ("repro.vm.counters", "NodeCounters", "advance_time"),
        ("repro.sim.engine", "DaemonNoiseModel", "sample"),
    ),
    "monitoring.gmond": (
        ("repro.monitoring.gmond", "Gmond", "collect"),
        ("repro.monitoring.gmond", "Gmond", "announce"),
    ),
    "monitoring.multicast": (("repro.monitoring.multicast", "MulticastChannel", "announce"),),
    "monitoring.filter": (("repro.monitoring.filter", "PerformanceFilter", "extract"),),
    "ingest.push": (("repro.ingest.plane", "IngestPlane", "push"),),
    "ingest.ring_push": (("repro.ingest.ring", "AnnouncementRing", "push"),),
    "ingest.drain": (("repro.ingest.plane", "IngestPlane", "drain"),),
    "core.classify_rows": (("repro.core.pipeline", "ApplicationClassifier", "classify_rows"),),
    "knn.distances": (
        ("repro.core.knn", None, "rowwise_sq_distances"),
        ("repro.core.knn", None, "pairwise_sq_distances"),
    ),
    "knn.topk": (
        ("repro.core.knn", "KNeighborsClassifier", "kneighbors"),
        ("repro.core.knn", "KNeighborsClassifier", "kneighbors_rows"),
    ),
    "knn.vote": (("repro.core.knn", "KNeighborsClassifier", "vote"),),
    "online.fanback": (("repro.core.online", "OnlineClassifier", "pump"),),
    "serve.submit": (("repro.serve.service", "ClassificationService", "submit"),),
    # The service enters the kernel through classify_batch_traced while
    # obs is on; neither entry point calls the other.
    "serve.classify_batch": (
        ("repro.serve.batch", "BatchClassifier", "classify_batch"),
        ("repro.serve.batch", "BatchClassifier", "classify_batch_traced"),
    ),
    "obs.trace": (
        ("repro.obs.registry", "MetricsRegistry", "start_trace"),
        ("repro.obs.registry", "MetricsRegistry", "finish_trace"),
        ("repro.serve.service", None, "build_request_records"),
        ("repro.serve.service", None, "observe_attribution"),
    ),
    "core.train": (
        ("repro.core.pipeline", "ApplicationClassifier", "train"),
        ("repro.experiments.training", None, "profile_training_entry"),
    ),
}

#: Layers timed while the benchmark sets up; every other layer is timed
#: over the measured phase only.
SETUP_LAYERS = ("core.train",)


def quantile(values: list[float], q: float) -> float:
    """The q-quantile of *values*, interpolated linearly (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class SpanLedger:
    """Calls and self time per layer, from spans on per-thread stacks.

    ``enter``/``exit`` take explicit clock readings so the arithmetic can
    be checked with fake spans; the wrappers pass ``time.perf_counter``.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str, t: float) -> None:
        """Open a span of *layer* at clock reading *t* on this thread."""
        self._stack().append([layer, t, 0.0])

    def exit(self, t: float) -> None:
        """Close this thread's innermost span at clock reading *t*."""
        stack = self._stack()
        layer, start, child_s = stack.pop()
        duration = t - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.calls[layer] += 1
            self.self_s[layer] += duration - child_s

    def open_spans(self) -> int:
        """Spans still open on the calling thread."""
        return len(self._stack())


class LayerTracer:
    """Install span wrappers on every layer's entry points, then remove them.

    Use as a context manager around the phase to trace.  Besides calls
    and self time, the tracer keeps the counts that need a look at the
    arguments or results of an entry point: series per
    ``classify_batch`` call, rows per drain, and each served request's
    wait from ``submit`` returning to the start of the batch it joined.
    """

    def __init__(self, layers: dict[str, tuple] = LAYERS, clock: Callable[[], float] = time.perf_counter) -> None:
        self.layers = layers
        self.clock = clock
        self.ledger = SpanLedger()
        self.batch_sizes: list[int] = []
        self.rows_per_drain: list[int] = []
        self._submit_returns: dict[int, list[float]] = defaultdict(list)
        self._batch_starts: dict[int, list[float]] = defaultdict(list)
        self._hook_lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, bool, object]] = []

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Run the benchmark's own bookkeeping on this thread unrecorded."""
        self._local.off = True
        try:
            yield
        finally:
            self._local.off = False

    def serve_waits_s(self) -> list[float]:
        """Each served request's wait from submit returning to its batch starting.

        A window's submissions and the batches that take them are paired
        in order: the service's single worker serves its queue first in,
        first out.  A batch that starts before submit has returned counts
        as no wait.
        """
        with self._hook_lock:
            return [
                max(0.0, start - returned)
                for key, returns in self._submit_returns.items()
                for returned, start in zip(returns, self._batch_starts.get(key, ()))
            ]

    def _wrap(self, layer: str, fn: Callable, attr: str) -> Callable:
        ledger = self.ledger
        clock = self.clock
        local = self._local

        def wrapper(*args, **kwargs):
            if getattr(local, "off", False):
                return fn(*args, **kwargs)
            t = clock()
            if attr in ("classify_batch", "classify_batch_traced"):
                with self._hook_lock:
                    self.batch_sizes.append(len(args[1]))
                    for series in args[1]:
                        self._batch_starts[id(series)].append(t)
            ledger.enter(layer, t)
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                ledger.exit(t)
            if attr == "submit":
                with self._hook_lock:
                    self._submit_returns[id(args[1])].append(t)
            elif attr == "drain":
                self.rows_per_drain.append(len(result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point; raises if one no longer exists."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for layer, points in self.layers.items():
                for module_name, owner_name, attr in points:
                    module = importlib.import_module(module_name)
                    owner = module if owner_name is None else getattr(module, owner_name)
                    had_own = attr in vars(owner)
                    raw = vars(owner)[attr] if had_own else None
                    fn = getattr(owner, attr)
                    self._saved.append((owner, attr, had_own, raw))
                    setattr(owner, attr, self._wrap(layer, fn, attr))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._saved:
            owner, attr, had_own, raw = self._saved.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def metrics(self, layer_names: Iterable[str]) -> dict[str, float]:
        """``<layer>.calls`` and ``<layer>.self_s`` for each named layer."""
        out: dict[str, float] = {}
        for layer in layer_names:
            out[f"{layer}.calls"] = float(self.ledger.calls.get(layer, 0))
            out[f"{layer}.self_s"] = float(self.ledger.self_s.get(layer, 0.0))
        return out
