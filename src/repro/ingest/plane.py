"""The ingest plane: one columnar log in, merged chronological batches out.

:class:`IngestPlane` is the streaming buffer between the monitoring
substrate and the batched classification kernels.  Producers —
``gmond`` daemons announcing on the multicast channel, or anything
calling :meth:`IngestPlane.push` directly — append announcements to one
plane-wide columnar log (:class:`~repro.ingest.ring.AnnouncementRing`)
with no per-announcement Python objects.  Consumers call
:meth:`IngestPlane.drain`, which sorts the log once on
``(timestamp, node)`` (:mod:`repro.ingest.timeline`) and gathers the
drainable prefix into reused batch buffers, ready for a single
vectorized classify call.

Watermark semantics (out-of-order tolerance)
--------------------------------------------
The plane tracks the newest timestamp seen across all nodes; the
**watermark** trails it by ``lateness_s``.  A drain only emits rows
with ``timestamp <= watermark``, so an announcement up to
``lateness_s`` behind the newest traffic still lands in its correct
merged position.  Rows already emitted define the **frontier** (the
largest emitted timestamp, monotone).  An announcement at or behind the
frontier is **late**: under the default ``late_policy="accept"`` it is
counted and emitted in a later drain (locally sorted within that
drain); under ``late_policy="drop"`` it is counted and discarded.  An
announcement whose timestamp exactly equals the newest one its node has
sent is a **duplicate** and is always dropped.

Batches are views into buffers owned by the plane and reused across
drains — consume (or copy) a :class:`DrainBatch` before the next drain.

dtype: float64
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..monitoring.multicast import MetricAnnouncement, MulticastChannel
from ..obs import (
    SloRule,
    counter as obs_counter,
    enabled as obs_enabled,
    event as obs_event,
    gauge as obs_gauge,
    get_registry as obs_get_registry,
    histogram as obs_histogram,
)
from .ring import AnnouncementRing, DEFAULT_RING_CAPACITY

#: Late-announcement policies: buffer for the next drain, or discard.
LATE_POLICIES = ("accept", "drop")

#: Drain-size histogram buckets (rows per drain).
DRAIN_ROWS_BUCKETS = (1.0, 8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0)

__all__ = [
    "DrainBatch",
    "IngestPlane",
    "IngestStats",
    "LATE_POLICIES",
    "ingest_slo_rules",
]


@dataclass(frozen=True)
class DrainBatch:
    """One drained, chronologically merged window of announcements.

    ``timestamps``, ``node_ids`` and ``values`` are parallel arrays in
    merged timeline order (timestamp ascending; ties in node order,
    arrival order within a node).  ``node_ids[i]`` indexes ``nodes``.
    The arrays are **views into the plane's reused drain buffers** —
    valid until the next ``drain()`` on the same plane; copy them to
    keep a batch across drains.
    """

    nodes: tuple[str, ...]
    node_ids: np.ndarray
    timestamps: np.ndarray
    values: np.ndarray
    watermark: float
    #: Request-trace ids per row (0 where tracing was off at push time);
    #: ``None`` on batches built without the trace columns.
    trace_ids: np.ndarray | None = None
    #: Registry-clock reading at each row's ``push()`` (0.0 untraced).
    enqueued_s: np.ndarray | None = None
    #: Registry-clock reading when this batch was drained (0.0 when
    #: observability was off), the trace's ``ingest.drain`` mark.
    drained_s: float = 0.0

    def __len__(self) -> int:
        """Number of announcements in the batch."""
        return int(self.node_ids.shape[0])


@dataclass(frozen=True)
class IngestStats:
    """Consistent snapshot of the plane's lifetime accounting."""

    received: int
    filtered: int
    late_accepted: int
    late_dropped: int
    duplicates: int
    overflowed: int
    drains: int
    drained_rows: int
    buffered: int


class IngestPlane:
    """One columnar announcement log with watermarked, merged batch drains.

    Parameters
    ----------
    channel:
        Optional multicast channel to subscribe to (the ``gmond`` →
        ``aggregator`` announcement bus).  Without one, feed the plane
        through :meth:`push`.
    capacity:
        Per-node bound on buffered announcements; a node more than
        *capacity* announcements ahead of the consumer drops its oldest
        entries.
    lateness_s:
        Watermark lag: how far behind the newest seen timestamp a drain
        holds back, to give out-of-order announcements time to arrive.
    late_policy:
        ``"accept"`` (default) buffers announcements that arrive behind
        the emitted frontier for the next drain; ``"drop"`` discards
        them.  Both count them.
    nodes:
        Optional allow-list; announcements from other nodes are
        filtered (and counted), mirroring ``OnlineClassifier``.
    """

    def __init__(
        self,
        channel: MulticastChannel | None = None,
        *,
        capacity: int = DEFAULT_RING_CAPACITY,
        lateness_s: float = 0.0,
        late_policy: str = "accept",
        nodes: Iterable[str] | None = None,
    ) -> None:
        self._log = AnnouncementRing(capacity)
        if lateness_s < 0.0:
            raise ValueError("lateness_s must be non-negative")
        if late_policy not in LATE_POLICIES:
            raise ValueError(f"late_policy must be one of {LATE_POLICIES}, got {late_policy!r}")
        self.channel = channel
        self.capacity = self._log.capacity
        self.lateness_s = float(lateness_s)
        self.late_policy = late_policy
        self._allow = set(nodes) if nodes is not None else None
        self._node_id: dict[str, int] = {}
        self._names: tuple[str, ...] = ()
        if nodes is not None:
            for node in nodes:
                self._register(node)
        self._max_seen = -np.inf
        self._frontier = -np.inf
        # Lifetime accounting (plain ints: always on, obs or not).
        self._received = 0
        self._filtered = 0
        self._late_accepted = 0
        self._late_dropped = 0
        self._duplicates = 0
        self._drains = 0
        self._drained_rows = 0
        self._callback = self._on_announcement
        self._attached = False
        if channel is not None:
            self.attach()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        """True while subscribed to the channel."""
        return self._attached

    def attach(self) -> None:
        """(Re)subscribe to the channel; idempotent.

        Raises
        ------
        RuntimeError
            If the plane was built without a channel.
        """
        if self.channel is None:
            raise RuntimeError("IngestPlane has no channel; feed it via push()")
        if self._attached:
            return
        self.channel.subscribe(self._callback)
        self._attached = True
        obs_event("ingest.attach", nodes=str(len(self._names)))

    def detach(self) -> None:
        """Unsubscribe from the channel; idempotent, tolerates torn-down channels."""
        if not self._attached:
            return
        self._attached = False
        obs_event("ingest.detach", nodes=str(len(self._names)))
        try:
            self.channel.unsubscribe(self._callback)
        except ValueError:
            # The channel no longer knows this listener (torn down or
            # replaced underneath us); shutdown must not blow up.
            pass

    def _on_announcement(self, announcement: MetricAnnouncement) -> None:
        self.push(announcement.node, announcement.timestamp, announcement.values)

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def _register(self, node: str) -> int:
        index = self._log.add_node()
        self._node_id[node] = index
        self._names += (node,)
        return index

    def push(self, node: str, timestamp: float, values: np.ndarray) -> bool:
        """Buffer one announcement; returns True when it was accepted.

        *values* is the node's full length-33 metric vector.  This is
        the per-announcement hot path: one dict lookup, the
        late/duplicate checks, and one log row write — no Python object
        is created for the announcement.  While observability is on,
        each accepted announcement also mints a request-trace id and
        stamps the registry clock into the log's trace columns, so the
        trace survives the log without carrying any object.
        """
        self._received += 1
        timestamp = float(timestamp)
        timed = obs_enabled()
        log = self._log
        index = self._node_id.get(node)
        if index is None:
            if self._allow is not None:
                self._filtered += 1
                if timed:
                    _count_dropped("filtered")
                return False
            index = self._register(node)
        if log.pushed[index] and timestamp == log.newest[index]:
            self._duplicates += 1
            if timed:
                _count_dropped("duplicate")
            return False
        if timestamp <= self._frontier:
            if self.late_policy == "drop":
                self._late_dropped += 1
                if timed:
                    _count_dropped("late")
                return False
            self._late_accepted += 1
            if timed:
                obs_counter(
                    "ingest.announcements.late",
                    help="Late announcements accepted behind the frontier.",
                ).inc()
        if timed:
            registry = obs_get_registry()
            if not log.push(index, timestamp, values, registry.next_trace_id(), registry.clock()):
                _count_dropped("overflow")
            obs_counter(
                "ingest.announcements.received",
                help="Announcements offered to the ingest plane.",
            ).inc()
        else:
            log.push(index, timestamp, values)
        if timestamp > self._max_seen:
            self._max_seen = timestamp
        return True

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> float:
        """Largest timestamp a drain may emit: newest seen − ``lateness_s``."""
        return self._max_seen - self.lateness_s

    @property
    def frontier(self) -> float:
        """Largest timestamp already emitted (−inf before the first drain)."""
        return self._frontier

    @property
    def buffered(self) -> int:
        """Announcements currently buffered, across all nodes."""
        return len(self._log)

    @property
    def node_names(self) -> tuple[str, ...]:
        """Known nodes in registration order (``DrainBatch.node_ids`` indexes this)."""
        return self._names

    def occupancy(self) -> dict[str, float]:
        """Per-node fill fraction of the capacity (the occupancy gauge values)."""
        return {node: held / self.capacity for node, held in zip(self._names, self._log.held)}

    def stats(self) -> IngestStats:
        """Snapshot of the plane's lifetime accounting."""
        return IngestStats(
            received=self._received,
            filtered=self._filtered,
            late_accepted=self._late_accepted,
            late_dropped=self._late_dropped,
            duplicates=self._duplicates,
            overflowed=self._log.overflowed,
            drains=self._drains,
            drained_rows=self._drained_rows,
            buffered=len(self._log),
        )

    def drain(self, max_rows: int | None = None, *, flush: bool = False) -> DrainBatch:
        """Gather and merge every drainable announcement into one batch.

        Emits all buffered rows with ``timestamp <= watermark`` (all
        buffered rows when *flush* is true — the shutdown path that
        ignores the lateness hold-back), chronologically merged across
        nodes with stable node-order tie-breaks.  With *max_rows*, the
        merged timeline is cut after the first *max_rows* rows; the
        remainder stays buffered for the next drain.

        Returns a :class:`DrainBatch` of views into reused buffers —
        valid until the next drain.
        """
        if max_rows is not None and max_rows < 1:
            raise ValueError("max_rows must be positive")
        timed = obs_enabled()
        t0 = time.perf_counter() if timed else 0.0
        watermark = np.inf if flush else self.watermark
        total = self._log.drain(watermark, max_rows)
        node_ids, timestamps, values, trace_ids, enqueued_s = (
            col[:total] for col in self._log.drained
        )
        drained_s = 0.0
        if total:
            self._frontier = max(self._frontier, float(timestamps[-1]))
            self._drains += 1
            self._drained_rows += total
            if timed:
                drained_s = obs_get_registry().clock()
        if timed:
            self._observe_drain(total, t0)
        return DrainBatch(
            nodes=self._names,
            node_ids=node_ids,
            timestamps=timestamps,
            values=values,
            watermark=float(watermark),
            trace_ids=trace_ids,
            enqueued_s=enqueued_s,
            drained_s=drained_s,
        )

    def _observe_drain(self, rows: int, t0: float) -> None:
        """Record drain telemetry (only called while obs is enabled)."""
        obs_histogram(
            "ingest.drain.rows",
            help="Announcements gathered per drain.",
            buckets=DRAIN_ROWS_BUCKETS,
        ).observe(float(rows))
        obs_histogram(
            "ingest.drain.seconds",
            help="Drain sort+gather latency.",
        ).observe(time.perf_counter() - t0)
        for node, held in zip(self._names, self._log.held):
            obs_gauge(
                "ingest.ring.occupancy",
                help="Per-node fill fraction of the capacity.",
                node=node,
            ).set(held / self.capacity)


def _count_dropped(reason: str) -> None:
    """Count one discarded announcement (only called while obs is enabled)."""
    obs_counter(
        "ingest.announcements.dropped",
        help="Announcements the ingest plane discarded.",
        reason=reason,
    ).inc()


def ingest_slo_rules() -> tuple[SloRule, ...]:
    """Monitor pack for the ingest plane.

    * ``ingest-overflow-rate`` — announcements lost to ring overflow per
      second (the consumer has fallen a full ring behind);
    * ``ingest-late-rate`` — late-but-accepted announcements per second
      (the lateness budget is too tight for the observed reordering);
    * ``ingest-ring-occupancy`` — worst per-node ring fill fraction
      (capacity-relative, so the thresholds hold for any ring size);
    * ``ingest-drain-p99-seconds`` — drain gather+merge p99 latency;
    * ``ingest-drain-to-classify-p99`` — p99 latency from a batch's
      drain to its batch compute (the request-trace attribution
      histogram covering the ingest→serve hand-off).
    """
    return (
        SloRule(
            name="ingest-overflow-rate",
            kind="counter_rate",
            metric="ingest.announcements.dropped",
            labels=(("reason", "overflow"),),
            warn=1.0,
            page=10.0,
        ),
        SloRule(
            name="ingest-late-rate",
            kind="counter_rate",
            metric="ingest.announcements.late",
            warn=1.0,
            page=10.0,
        ),
        SloRule(
            name="ingest-ring-occupancy",
            kind="gauge_threshold",
            metric="ingest.ring.occupancy",
            warn=0.75,
            page=0.95,
        ),
        SloRule(
            name="ingest-drain-p99-seconds",
            kind="histogram_quantile",
            metric="ingest.drain.seconds",
            warn=0.05,
            page=0.5,
            quantile=0.99,
        ),
        SloRule(
            name="ingest-drain-to-classify-p99",
            kind="histogram_quantile",
            metric="ingest.drain_to_classify.seconds",
            warn=0.1,
            page=1.0,
            quantile=0.99,
        ),
    )
