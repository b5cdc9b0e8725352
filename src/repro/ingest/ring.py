"""The plane-wide columnar announcement log (zero-object).

One :class:`AnnouncementRing` holds every buffered-but-undrained
announcement of an :class:`~repro.ingest.plane.IngestPlane`, whatever
node sent it, one row per announcement in parallel NumPy columns: node
index, timestamp, the 33 metric values, trace id and enqueue clock
reading.  The ingest hot path writes one row and three per-node scalars
(newest timestamp, pushed count, held count); it never creates a Python
object per announcement.

Rows are kept in **log order**: the rows a drain left behind, in
``(timestamp, node)`` order, followed by later pushes in arrival order.
Restricted to one node, log order is the order a per-node ring buffer
keeps, so the merge, the watermark cut and drop-oldest all follow from
it:

- :meth:`AnnouncementRing.drain` is one stable sort of the live rows on
  ``(timestamp, node index)`` (:func:`~repro.ingest.timeline.stable_merge_order`),
  a cut at the watermark and at ``max_rows``, a gather of the emitted
  prefix into reused output columns, and a compaction of the rest back
  to the front of the log in sorted order.  Every drain sorts, also one
  that emits nothing, so overflow after it drops the row a ring would.
- Overflow is drop-oldest per node: a push beyond a node's capacity is
  counted in :attr:`AnnouncementRing.overflowed` and the node's oldest
  row in log order is cut — deferred until the next drain, or until the
  log runs out of rows, whichever comes first.  The freshest telemetry
  is worth more than the stalest.
"""

from __future__ import annotations

import numpy as np

from ..metrics.catalog import NUM_METRICS
from .timeline import stable_merge_order

#: Default per-node capacity.  At the paper's 5-second heartbeat this
#: buffers well over an hour of one node's announcements.
DEFAULT_RING_CAPACITY: int = 1024

#: Rows the log starts with; it doubles as it fills (see ``_make_room``).
_MIN_ROWS = 64

__all__ = ["AnnouncementRing", "DEFAULT_RING_CAPACITY"]


class AnnouncementRing:
    """Columnar log of a whole fleet's buffered announcements.

    dtype: float64

    Raw announcements are float64 (the wire format of
    :class:`~repro.monitoring.multicast.MetricAnnouncement`); any
    compute-dtype cast happens downstream of the drain gather.

    The columns (``node_ids``, ``timestamps``, ``values``,
    ``trace_ids``, ``enqueued_s``) hold :attr:`rows` rows in log order,
    overflowed rows awaiting their cut included; ``len()`` counts the
    live ones.  Live rows never exceed ``nodes × capacity``, and the
    storage never exceeds ``max(64, 2 × nodes × capacity)`` rows.

    Parameters
    ----------
    capacity:
        Per-node bound on buffered announcements; a push beyond it drops
        that node's oldest row (counted in :attr:`overflowed`).
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity = int(capacity)
        #: Per node: newest timestamp ever pushed (−inf before the first).
        self.newest: list[float] = []
        #: Per node: lifetime rows pushed into the log.
        self.pushed: list[int] = []
        #: Per node: live rows buffered (at most ``capacity``).
        self.held: list[int] = []
        #: Lifetime rows lost to overflow, across all nodes.
        self.overflowed = 0
        #: Log rows in use, overflowed rows not yet cut included.
        self.rows = 0
        self._uncut = 0
        self._log: tuple[np.ndarray, ...] = (
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.float64),
            np.empty((0, NUM_METRICS), dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        self._allocate(_MIN_ROWS)

    def _allocate(self, size: int) -> None:
        """(Re)size the log and output columns to *size* rows, keeping the log."""
        log = tuple(np.empty((size,) + col.shape[1:], dtype=col.dtype) for col in self._log)
        for new, cur in zip(log, self._log):
            new[: self.rows] = cur[: self.rows]
        self._log = log
        self.node_ids, self.timestamps, self.values, self.trace_ids, self.enqueued_s = log
        #: Drain output columns, in the log's column order; the emitted
        #: prefix lands here and the buffers are reused across drains.
        self.drained: tuple[np.ndarray, ...] = tuple(np.empty_like(col) for col in log)

    def add_node(self) -> int:
        """Register one more node; returns its index."""
        self.newest.append(-np.inf)
        self.pushed.append(0)
        self.held.append(0)
        return len(self.held) - 1

    def __len__(self) -> int:
        """Live announcements buffered (pushed, not yet drained or dropped)."""
        return self.rows - self._uncut

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def push(
        self,
        node: int,
        timestamp: float,
        values: np.ndarray,
        trace_id: int = 0,
        enqueued_s: float = 0.0,
    ) -> bool:
        """Append one announcement of *node*; returns False when one was dropped.

        *values* must be the full length-33 metric vector (any other
        length fails the row assignment).  Out-of-order timestamps are
        accepted: the next drain sorts.  *trace_id*/*enqueued_s* ride
        along in their own columns so a request trace survives the log.
        """
        row = self.rows
        if row == self.node_ids.shape[0]:
            self._make_room()
            row = self.rows
        self.node_ids[row] = node
        self.timestamps[row] = timestamp
        self.values[row] = values
        self.trace_ids[row] = trace_id
        self.enqueued_s[row] = enqueued_s
        self.rows = row + 1
        self.pushed[node] += 1
        if timestamp > self.newest[node]:
            self.newest[node] = timestamp
        if self.held[node] == self.capacity:
            self.overflowed += 1
            self._uncut += 1
            return False
        self.held[node] += 1
        return True

    def _make_room(self) -> None:
        """Cut overflowed rows if that frees half the log, else grow it.

        While at most half the rows await their cut, more than half are
        live; live rows are bounded by ``nodes × capacity``, so the log
        only grows below twice that, and every cut frees at least half
        of it (amortized O(1) per push, also under sustained overflow).
        """
        size = self.node_ids.shape[0]
        if 2 * self._uncut >= size:
            self._cut_overflow()
        else:
            self._allocate(min(2 * size, 2 * len(self.held) * self.capacity))

    def _cut_overflow(self) -> None:
        """Drop every node's overflowed rows: the oldest ones in log order."""
        n = self.rows
        nodes = self.node_ids[:n]
        by_node = np.argsort(nodes, kind="stable")
        counts = np.bincount(nodes, minlength=len(self.held))
        starts = np.cumsum(counts) - counts
        rank = np.empty(n, dtype=np.intp)
        rank[by_node] = np.arange(n) - np.repeat(starts, counts)
        keep = rank >= (counts - np.asarray(self.held))[nodes]
        kept = int(np.count_nonzero(keep))
        for col in self._log:
            col[:kept] = col[:n][keep]
        self.rows = kept
        self._uncut = 0

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def drain(self, watermark: float, max_rows: int | None = None) -> int:
        """Move the drainable prefix into :attr:`drained`; returns its length.

        The live rows are stably sorted on ``(timestamp, node index)``;
        the prefix with ``timestamp <= watermark``, cut after *max_rows*
        rows, is gathered in that order into the first *k* rows of each
        :attr:`drained` column, and the rest stay buffered at the front
        of the log, still sorted.
        """
        if self._uncut:
            self._cut_overflow()
        n = self.rows
        if n == 0:
            return 0
        order = stable_merge_order(self.timestamps[:n], self.node_ids[:n])
        for col, out in zip(self._log, self.drained):
            np.take(col[:n], order, axis=0, out=out[:n])
        k = int(np.searchsorted(self.drained[1][:n], watermark, side="right"))
        if max_rows is not None:
            k = min(k, max_rows)
        left = n - k
        for col, out in zip(self._log, self.drained):
            col[:left] = out[k:n]
        self.rows = left
        self.held = np.bincount(self.node_ids[:left], minlength=len(self.held)).tolist()
        return k
