"""The columnar announcement log: storage reuse, overflow, ordering, cuts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ingest import AnnouncementRing, DEFAULT_RING_CAPACITY, IngestPlane
from repro.metrics.catalog import NUM_METRICS


def row(fill: float) -> np.ndarray:
    return np.full(NUM_METRICS, fill, dtype=np.float64)


def log_of(nodes: int = 1, capacity: int = 8) -> AnnouncementRing:
    log = AnnouncementRing(capacity)
    for _ in range(nodes):
        log.add_node()
    return log


def drain(log: AnnouncementRing, watermark: float = np.inf, max_rows: int | None = None):
    """Drain and copy out ``(node_ids, timestamps, values)``."""
    k = log.drain(watermark, max_rows)
    node_ids, timestamps, values = (col[:k].copy() for col in log.drained[:3])
    return node_ids, timestamps, values


class TestBasics:
    def test_starts_empty_with_preallocated_storage(self):
        log = AnnouncementRing()
        assert len(log) == 0
        assert log.rows == 0
        assert log.capacity == DEFAULT_RING_CAPACITY
        rows = log.timestamps.shape[0]
        assert rows > 0
        assert log.values.shape == (rows, NUM_METRICS)
        assert log.node_ids.shape == log.trace_ids.shape == log.enqueued_s.shape == (rows,)
        assert [col.shape for col in log.drained] == [
            col.shape for col in (log.node_ids, log.timestamps, log.values, log.trace_ids, log.enqueued_s)
        ]

    def test_push_and_drain_round_trip(self):
        log = log_of(capacity=8)
        for i in range(5):
            assert log.push(0, float(i), row(i), trace_id=i + 100, enqueued_s=i / 10) is True
        assert len(log) == 5
        assert log.held == [5]
        k = log.drain(np.inf)
        node_ids, ts, vals, tids, enq = (col[:k] for col in log.drained)
        assert ts.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert vals[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert node_ids.tolist() == [0] * 5
        assert tids.tolist() == [100, 101, 102, 103, 104], "trace columns ride along"
        assert enq.tolist() == [0.0, 0.1, 0.2, 0.3, 0.4]
        assert len(log) == 0
        assert log.held == [0]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            AnnouncementRing(capacity=0)


class TestWraparound:
    """After a drain the rows left behind move to the front of the log
    and later pushes reuse the storage behind them (a ring's wraparound,
    in columnar form)."""

    def test_drain_after_wraparound_preserves_order(self):
        log = log_of(capacity=4)
        for i in range(4):
            log.push(0, float(i), row(i))
        _, ts, _ = drain(log, max_rows=2)
        assert ts.tolist() == [0.0, 1.0]
        assert log.rows == 2, "the remainder sits at the front of the log"
        log.push(0, 4.0, row(4))
        log.push(0, 5.0, row(5))
        _, ts, vals = drain(log)
        assert ts.tolist() == [2.0, 3.0, 4.0, 5.0]
        assert vals[:, -1].tolist() == [2.0, 3.0, 4.0, 5.0]
        assert log.overflowed == 0

    def test_many_wraparound_cycles(self):
        log = log_of(capacity=3)
        storage = log.timestamps
        t = 0.0
        for _ in range(200):
            log.push(0, t, row(t))
            t += 1.0
            log.push(0, t, row(t))
            t += 1.0
            _, ts, _ = drain(log)
            assert ts.tolist() == [t - 2.0, t - 1.0]
        assert log.pushed == [400]
        assert log.overflowed == 0
        assert log.timestamps is storage, "steady push/drain cycles never regrow the log"


class TestOverflow:
    def test_overflow_drops_oldest_and_counts(self):
        log = log_of(capacity=3)
        assert log.push(0, 0.0, row(0)) is True
        assert log.push(0, 1.0, row(1)) is True
        assert log.push(0, 2.0, row(2)) is True
        assert log.push(0, 3.0, row(3)) is False
        assert log.push(0, 4.0, row(4)) is False
        assert log.overflowed == 2
        assert log.pushed == [5]
        assert len(log) == 3
        _, ts, _ = drain(log)
        assert ts.tolist() == [2.0, 3.0, 4.0], "the freshest entries survive"

    def test_accounting_balances(self):
        log = log_of(capacity=4)
        for i in range(11):
            log.push(0, float(i), row(i))
        assert log.pushed[0] - log.overflowed == len(log)  # nothing drained yet
        _, ts, _ = drain(log)
        assert ts.shape[0] == 4

    def test_overflow_is_per_node(self):
        log = log_of(nodes=2, capacity=2)
        for t in (1.0, 2.0, 3.0):
            log.push(0, t, row(t))
        log.push(1, 1.5, row(15))
        assert log.overflowed == 1
        node_ids, ts, _ = drain(log)
        assert ts.tolist() == [1.5, 2.0, 3.0]
        assert node_ids.tolist() == [1, 0, 0]

    def test_oldest_is_arrival_order_until_a_drain_sorts(self):
        log = log_of(capacity=3)
        for t in (3.0, 1.0, 2.0):
            log.push(0, t, row(t))
        log.push(0, 4.0, row(4))  # drops 3.0: the oldest arrival, not the smallest timestamp
        _, ts, _ = drain(log)
        assert ts.tolist() == [1.0, 2.0, 4.0]

    def test_an_empty_drain_still_sorts(self):
        log = log_of(capacity=3)
        for t in (3.0, 1.0, 2.0):
            log.push(0, t, row(t))
        assert log.drain(0.5) == 0
        log.push(0, 4.0, row(4))  # the drain sorted: now 1.0 is the oldest
        _, ts, _ = drain(log)
        assert ts.tolist() == [2.0, 3.0, 4.0]

    def test_sustained_overflow_stays_within_bounds(self):
        """One node pushing ten capacities with no drain in between."""
        nodes, capacity = 3, 4
        plane = IngestPlane(capacity=capacity, nodes=[f"n{i}" for i in range(nodes)])
        plane.push("n1", 0.5, row(-1))
        for i in range(10 * capacity):
            plane.push("n0", float(i + 1), row(i))
            assert plane.buffered <= nodes * capacity
        assert plane.stats().overflowed == 9 * capacity
        assert plane.buffered == capacity + 1
        batch = plane.drain(flush=True)
        survivors = batch.values[batch.node_ids == 0, 0]
        assert survivors.tolist() == [36.0, 37.0, 38.0, 39.0], "the newest capacity rows survive"
        assert batch.values[batch.node_ids == 1, 0].tolist() == [-1.0]

    def test_storage_stays_bounded_under_sustained_overflow(self):
        nodes, capacity = 40, 4
        log = log_of(nodes=nodes, capacity=capacity)
        for i in range(100 * capacity):
            log.push(0, float(i), row(i))
            assert len(log) <= capacity
            assert log.rows <= log.timestamps.shape[0] <= max(64, 2 * nodes * capacity)
        for i in range(20 * nodes * capacity):
            log.push(i % nodes, float(i), row(i))
            assert len(log) <= nodes * capacity
            assert log.timestamps.shape[0] <= 2 * nodes * capacity
        assert log.overflowed == 100 * capacity - capacity + 20 * nodes * capacity - (nodes - 1) * capacity


class TestOutOfOrder:
    def test_out_of_order_push_restored_at_drain(self):
        log = log_of(capacity=8)
        for t in (1.0, 3.0, 2.0, 5.0, 4.0):
            log.push(0, t, row(t))
        _, ts, vals = drain(log)
        assert ts.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert vals[:, 3].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0], "rows move with timestamps"

    def test_equal_timestamps_keep_arrival_order(self):
        log = log_of(capacity=8)
        log.push(0, 2.0, row(10))
        log.push(0, 1.0, row(20))
        log.push(0, 1.0, row(21))
        _, ts, vals = drain(log)
        assert ts.tolist() == [1.0, 1.0, 2.0]
        assert vals[:, 0].tolist() == [20.0, 21.0, 10.0], "stable sort keeps arrival order"

    def test_restore_order_after_wraparound(self):
        log = log_of(capacity=4)
        for t in (0.0, 1.0, 2.0, 3.0):
            log.push(0, t, row(t))
        drain(log, max_rows=3)
        log.push(0, 5.0, row(5))
        log.push(0, 4.0, row(4))  # out of order, behind the drained remainder
        _, ts, _ = drain(log)
        assert ts.tolist() == [3.0, 4.0, 5.0]

    def test_ties_across_nodes_break_in_node_order(self):
        log = log_of(nodes=3)
        log.push(2, 1.0, row(2))
        log.push(0, 1.0, row(0))
        log.push(1, 1.0, row(1))
        node_ids, _, _ = drain(log)
        assert node_ids.tolist() == [0, 1, 2]


class TestWatermark:
    def test_drain_cuts_at_watermark(self):
        log = log_of(capacity=8)
        for t in (4.0, 2.0, 1.0, 3.0):
            log.push(0, t, row(t))
        assert drain(log, 0.5)[1].tolist() == []
        assert drain(log, 2.0)[1].tolist() == [1.0, 2.0], "watermark is inclusive"
        assert drain(log, 3.5)[1].tolist() == [3.0]
        assert drain(log, np.inf)[1].tolist() == [4.0]
        assert len(log) == 0

    def test_watermark_and_max_rows_cut_together(self):
        log = log_of(nodes=2, capacity=8)
        for t in (1.0, 3.0, 5.0):
            log.push(0, t, row(t))
            log.push(1, t + 1.0, row(t + 1.0))
        assert drain(log, 4.5, max_rows=3)[1].tolist() == [1.0, 2.0, 3.0]
        assert drain(log, 4.5, max_rows=3)[1].tolist() == [4.0]
        assert log.held == [1, 1]

    def test_empty_drain_consumes_nothing(self):
        log = log_of(capacity=4)
        for t in (1.0, 2.0, 3.0):
            log.push(0, t, row(t))
        assert log.drain(0.0) == 0
        assert len(log) == 3
        assert log.held == [3]


class TestTraceColumns:
    def test_untraced_rows_read_zero_after_traced_rows_left(self):
        log = log_of(nodes=2, capacity=2)
        log.push(0, 1.0, row(1), trace_id=7, enqueued_s=0.5)
        log.push(0, 2.0, row(2), trace_id=8, enqueued_s=0.6)
        log.push(0, 3.0, row(3), trace_id=9, enqueued_s=0.7)  # overflow drops trace 7
        log.push(1, 2.5, row(4))
        k = log.drain(2.5)
        assert log.drained[3][:k].tolist() == [8, 0]
        assert log.drained[4][:k].tolist() == [0.6, 0.0]
        for t in (4.0, 5.0):
            log.push(1, t, row(t))
        k = log.drain(np.inf)
        assert log.drained[1][:k].tolist() == [3.0, 4.0, 5.0]
        assert log.drained[3][:k].tolist() == [9, 0, 0]
        assert log.drained[4][:k].tolist() == [0.7, 0.0, 0.0]
