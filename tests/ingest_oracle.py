"""Reference implementations the ingest plane is checked against.

- :func:`iter_merged` — the k-way heap merge over per-node sorted
  timestamp segments with a ``(timestamp, segment_index)`` key: the
  semantic definition of the merged announcement timeline.
- :class:`RingPlane` — the ingest plane as one fixed-capacity ring
  buffer per node: drop-oldest overwrites a ring's head slot, each ring
  re-sorts lazily when a drain reads it, and a drain merges the rings'
  drainable prefixes.  Same push/drain/stats surface as
  ``repro.ingest.IngestPlane`` without a channel or telemetry, so a
  seeded differential test can compare the two drain for drain.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

import numpy as np

from repro.ingest import DrainBatch, IngestStats
from repro.metrics.catalog import NUM_METRICS


def iter_merged(segments: Sequence[np.ndarray]) -> Iterator[tuple[float, int, int]]:
    """Yield ``(timestamp, segment_index, element_index)`` in merge order.

    *segments* are per-node non-decreasing timestamp arrays in node
    order; timestamp ties between nodes emit the lower-indexed node
    first, and entries of one node emit in their stored order.
    """
    heap = [(float(seg[0]), i, 0) for i, seg in enumerate(segments) if len(seg)]
    heapq.heapify(heap)
    while heap:
        timestamp, seg_idx, elem_idx = heapq.heappop(heap)
        yield timestamp, seg_idx, elem_idx
        nxt = elem_idx + 1
        if nxt < len(segments[seg_idx]):
            heapq.heappush(heap, (float(segments[seg_idx][nxt]), seg_idx, nxt))


class Ring:
    """One node's fixed-capacity ring: timestamps, values and a row tag."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.timestamps = np.empty(capacity)
        self.values = np.empty((capacity, NUM_METRICS))
        self.start = 0
        self.count = 0
        self.pushed = 0
        self.overflowed = 0
        self.newest = -np.inf
        self.ordered = True

    def slots(self) -> np.ndarray:
        """Physical slot of each buffered entry, oldest first."""
        return (self.start + np.arange(self.count)) % self.capacity

    def push(self, timestamp: float, values: np.ndarray) -> bool:
        dropped = self.count == self.capacity
        if dropped:
            slot = self.start
            self.start = (self.start + 1) % self.capacity
            self.count -= 1
            self.overflowed += 1
        else:
            slot = (self.start + self.count) % self.capacity
        self.timestamps[slot] = timestamp
        self.values[slot] = values
        self.count += 1
        self.pushed += 1
        if timestamp < self.newest:
            self.ordered = False
        else:
            self.newest = timestamp
        return not dropped

    def pending_until(self, watermark: float) -> int:
        """Restore chronological order (stable), then count entries ``<= watermark``."""
        if not self.ordered:
            idx = self.slots()
            order = idx[np.argsort(self.timestamps[idx], kind="stable")]
            self.timestamps[: self.count] = self.timestamps[order]
            self.values[: self.count] = self.values[order]
            self.start = 0
            self.ordered = True
        return int(np.searchsorted(self.timestamps[self.slots()], watermark, side="right"))

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Consume the oldest *n* entries."""
        idx = self.slots()[:n]
        out = self.timestamps[idx].copy(), self.values[idx].copy()
        self.start = (self.start + n) % self.capacity
        self.count -= n
        return out


class RingPlane:
    """The ingest plane built from one :class:`Ring` per node."""

    def __init__(self, *, capacity: int = 1024, lateness_s: float = 0.0,
                 late_policy: str = "accept", nodes=None) -> None:
        self.capacity = capacity
        self.lateness_s = lateness_s
        self.late_policy = late_policy
        self.allow = set(nodes) if nodes is not None else None
        self.names: list[str] = []
        self.rings: dict[str, Ring] = {}
        for node in nodes or ():
            self.register(node)
        self.max_seen = -np.inf
        self.frontier = -np.inf
        self.received = self.filtered = self.late_accepted = self.late_dropped = 0
        self.duplicates = self.drains = self.drained_rows = 0

    def register(self, node: str) -> Ring:
        self.names.append(node)
        ring = self.rings[node] = Ring(self.capacity)
        return ring

    def push(self, node: str, timestamp: float, values: np.ndarray) -> bool:
        self.received += 1
        if self.allow is not None and node not in self.allow:
            self.filtered += 1
            return False
        ring = self.rings.get(node) or self.register(node)
        if ring.pushed and timestamp == ring.newest:
            self.duplicates += 1
            return False
        if timestamp <= self.frontier:
            if self.late_policy == "drop":
                self.late_dropped += 1
                return False
            self.late_accepted += 1
        ring.push(timestamp, values)
        self.max_seen = max(self.max_seen, timestamp)
        return True

    def drain(self, max_rows: int | None = None, *, flush: bool = False) -> DrainBatch:
        watermark = np.inf if flush else self.max_seen - self.lateness_s
        rings = [self.rings[name] for name in self.names]
        counts = [ring.pending_until(watermark) for ring in rings]
        if max_rows is not None and sum(counts) > max_rows:
            peek = np.concatenate([ring.timestamps[ring.slots()[:n]] for ring, n in zip(rings, counts)])
            owner = np.repeat(np.arange(len(rings)), counts)
            order = np.argsort(peek, kind="stable")[:max_rows]
            counts = np.bincount(owner[order], minlength=len(rings)).tolist()
        parts = [ring.take(n) for ring, n in zip(rings, counts)]
        ts = np.concatenate([p[0] for p in parts]) if parts else np.empty(0)
        vals = np.concatenate([p[1] for p in parts]) if parts else np.empty((0, NUM_METRICS))
        node_ids = np.repeat(np.arange(len(rings)), counts).astype(np.intp)
        order = np.argsort(ts, kind="stable")
        if order.size:
            self.frontier = max(self.frontier, float(ts[order[-1]]))
            self.drains += 1
            self.drained_rows += order.size
        return DrainBatch(
            nodes=tuple(self.names),
            node_ids=node_ids[order],
            timestamps=ts[order],
            values=vals[order],
            watermark=float(watermark),
            trace_ids=np.zeros(order.size, dtype=np.int64),
            enqueued_s=np.zeros(order.size),
        )

    def stats(self) -> IngestStats:
        return IngestStats(
            received=self.received,
            filtered=self.filtered,
            late_accepted=self.late_accepted,
            late_dropped=self.late_dropped,
            duplicates=self.duplicates,
            overflowed=sum(ring.overflowed for ring in self.rings.values()),
            drains=self.drains,
            drained_rows=self.drained_rows,
            buffered=sum(ring.count for ring in self.rings.values()),
        )
