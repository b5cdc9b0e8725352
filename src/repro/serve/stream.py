"""Streaming serve harness: drains → series, and the ingest benchmark.

Two pieces glue the ingest plane (:mod:`repro.ingest`) to the serving
layer:

* :func:`drain_to_series` regroups a merged
  :class:`~repro.ingest.DrainBatch` into per-node
  :class:`~repro.metrics.series.SnapshotSeries`, the currency of
  :class:`~repro.serve.batch.BatchClassifier` and
  :class:`~repro.serve.service.ClassificationService` — the "optionally
  through the micro-batcher" route;
* :func:`run_ingest_benchmark` times the per-announcement push path
  against the drain-a-window-classify-a-batch pull path on a synthetic
  fleet, verifying along the way that the two paths classify every
  announcement bit-identically (they share the batch-size-invariant
  ``classify_rows`` kernel) and fold identical per-node rolling state.
  It backs ``repro ingest bench`` and the CI-gated
  ``benchmarks/bench_ingest.py``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from ..core.online import OnlineClassifier
from ..core.pipeline import ApplicationClassifier
from ..ingest import DrainBatch, IngestPlane, MulticastChannel, synthetic_fleet
from ..metrics.series import SnapshotSeries
from ..obs import counter as obs_counter, get_registry as obs_get_registry
from ..obs.context import TraceContext

__all__ = [
    "IngestBenchResult",
    "drain_to_series",
    "drain_trace_contexts",
    "run_ingest_benchmark",
]


def drain_to_series(batch: DrainBatch) -> list[SnapshotSeries]:
    """Regroup a merged drain into per-node snapshot series.

    Returns one :class:`~repro.metrics.series.SnapshotSeries` per node
    that has rows in *batch*, in the batch's node order (nodes with no
    rows in this window are skipped).  Within a node the drained rows
    are already in timestamp order, so the series' column order is the
    node's announcement order.  The series own copies of the rows — a
    later drain reusing the plane's buffers cannot mutate them.

    Raises
    ------
    ValueError
        If a node's window carries two announcements with the same
        timestamp (a ``SnapshotSeries`` requires strictly increasing
        times; the plane's duplicate drop only covers consecutive
        pushes).
    """
    series: list[SnapshotSeries] = []
    for node_id, node in enumerate(batch.nodes):
        sel = batch.node_ids == node_id
        if not np.any(sel):
            continue
        series.append(
            SnapshotSeries(
                node=node,
                timestamps=batch.timestamps[sel].copy(),
                matrix=batch.values[sel].T.copy(),
            )
        )
    return series


def drain_trace_contexts(batch: DrainBatch) -> list[TraceContext]:
    """Adopt one request trace per node with rows in *batch*.

    Aligned element-for-element with :func:`drain_to_series`: the i-th
    context belongs to the i-th series.  A drained window coalesces a
    node's announcements into one classification request, so the window
    adopts the trace of its *oldest* row (the request that waited
    longest) and the remaining rows' traces are counted into the
    ``obs.traces.coalesced`` counter rather than finished — they ended
    as part of a window that is observable through the representative
    trace.  Each adopted context is stamped with the ``ingest.push``
    (log enqueue) and ``ingest.drain`` boundary marks recorded by the
    plane, so downstream attribution can telescope ingest-buffer wait and
    drain hand-off into the request's end-to-end latency.

    Returns falsy null contexts when the drain carries no trace ids
    (tracing off at push time) — callers can pass them straight to
    ``submit(..., trace=...)`` unconditionally.
    """
    registry = obs_get_registry()
    contexts: list[TraceContext] = []
    coalesced = 0
    for node_id in range(len(batch.nodes)):
        sel = batch.node_ids == node_id
        rows = int(np.count_nonzero(sel))
        if rows == 0:
            continue
        trace_id = 0
        if batch.trace_ids is not None and batch.trace_ids.shape[0]:
            trace_id = int(batch.trace_ids[sel][0])
        ctx = registry.adopt_trace("serve.request", trace_id)
        if ctx:
            coalesced += rows - 1
            if batch.enqueued_s is not None and batch.enqueued_s.shape[0]:
                ctx.mark("ingest.push", float(batch.enqueued_s[sel][0]))
            if batch.drained_s:
                ctx.mark("ingest.drain", batch.drained_s)
        contexts.append(ctx)
    if coalesced:
        obs_counter(
            "obs.traces.coalesced",
            help="Traced announcements folded into another row's window trace.",
        ).inc(coalesced)
    return contexts


@dataclass(frozen=True)
class IngestBenchResult:
    """Per-announcement vs ingest-plane throughput comparison.

    Rates are end-to-end announcements per second: the per-announcement
    arm pays channel delivery plus one classify per announcement; the
    ingest arm pays channel delivery into the ingest log plus vectorized
    drains through the batch kernel.  ``bit_identical`` asserts that
    both arms produced the same class for every announcement *and* the
    same per-node rolling state.
    """

    num_nodes: int
    num_announcements: int
    repeats: int
    per_announcement_ms: float
    ingest_ms: float
    per_announcement_rate: float
    ingest_rate: float
    speedup: float
    drains: int
    bit_identical: bool

    def to_dict(self) -> dict:
        """Plain-dict form for JSON emission."""
        return asdict(self)


def _states_equal(a: OnlineClassifier, b: OnlineClassifier) -> bool:
    """True iff both classifiers hold identical per-node rolling state."""
    if a.nodes() != b.nodes():
        return False
    for node in a.nodes():
        sa, sb = a.state(node), b.state(node)
        if not np.array_equal(sa.class_counts, sb.class_counts):
            return False
        if (
            sa.current_class is not sb.current_class
            or sa.streak != sb.streak
            or sa.snapshots_seen != sb.snapshots_seen
            or sa.last_timestamp != sb.last_timestamp
        ):
            return False
    return True


def run_ingest_benchmark(
    classifier: ApplicationClassifier,
    *,
    num_nodes: int = 64,
    per_node: int = 100,
    repeats: int = 5,
    seed: int = 0,
    pump_rows: int = 4096,
) -> IngestBenchResult:
    """Time per-announcement classification against the ingest plane.

    Both arms consume the same synthetic *num_nodes*-node fleet through
    a multicast channel.  The per-announcement arm attaches an
    :class:`~repro.core.online.OnlineClassifier` directly (every
    announcement classified on delivery); the ingest arm lands
    announcements in an :class:`~repro.ingest.IngestPlane` and pumps
    drained batches of up to *pump_rows* rows through the vectorized
    kernel.  Arms are timed in interleaved pairs with a min-of-repeats
    estimator (noise moves both arms together), after an untimed
    correctness pass asserting bit-identical classifications and
    identical fan-back state.

    Raises
    ------
    ValueError
        For non-positive fleet dimensions or repeats.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    if pump_rows < 1:
        raise ValueError("pump_rows must be positive")
    announcements = synthetic_fleet(num_nodes, per_node, seed=seed)
    total = len(announcements)

    def push_arm() -> OnlineClassifier:
        channel = MulticastChannel()
        online = OnlineClassifier(classifier, channel)
        for announcement in announcements:
            channel.announce(announcement)
        return online

    def pull_arm() -> tuple[OnlineClassifier, list]:
        channel = MulticastChannel()
        plane = IngestPlane(channel, capacity=per_node)
        online = OnlineClassifier(classifier, plane)
        for announcement in announcements:
            channel.announce(announcement)
        drained = []
        while True:
            result = online.pump(pump_rows)
            if len(result) == 0:
                break
            drained.append(result)
        return online, drained

    # --- correctness (untimed): identical codes per announcement and
    # identical per-node state after the full fleet.
    push_online = push_arm()
    pull_online, drained = pull_arm()
    identical = _states_equal(push_online, pull_online)
    if identical:
        # Per-node code sequences: the drains are in timestamp order per
        # node, as is the synthetic fleet's arrival order.
        check_channel = MulticastChannel()
        checker = OnlineClassifier(classifier, check_channel)
        by_node: dict[str, list[int]] = {}
        for announcement in announcements:
            code = int(checker.classify(announcement))
            by_node.setdefault(announcement.node, []).append(code)
        drained_by_node: dict[str, list[int]] = {}
        for result in drained:
            for node in result.nodes:
                codes = result.codes_for(node)
                if codes.shape[0]:
                    drained_by_node.setdefault(node, []).extend(int(c) for c in codes)
        identical = by_node == drained_by_node
    drains_per_pass = len(drained)

    # --- timing: interleaved pairs, min of repeats.
    per_announcement_s = float("inf")
    ingest_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        push_arm()
        per_announcement_s = min(per_announcement_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        pull_arm()
        ingest_s = min(ingest_s, time.perf_counter() - t0)
    return IngestBenchResult(
        num_nodes=num_nodes,
        num_announcements=total,
        repeats=repeats,
        per_announcement_ms=per_announcement_s * 1e3,
        ingest_ms=ingest_s * 1e3,
        per_announcement_rate=total / per_announcement_s,
        ingest_rate=total / ingest_s,
        speedup=per_announcement_s / ingest_s,
        drains=drains_per_pass,
        bit_identical=identical,
    )
