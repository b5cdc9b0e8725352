"""The ingest plane: watermarks, late/duplicate policy, merged drains."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ingest import IngestPlane, MetricAnnouncement, MulticastChannel, ingest_slo_rules
from repro.metrics.catalog import NUM_METRICS


def ann(node: str, ts: float, fill: float = 1.0) -> MetricAnnouncement:
    return MetricAnnouncement(node=node, timestamp=ts, values=np.full(NUM_METRICS, fill))


class TestConstruction:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="capacity"):
            IngestPlane(capacity=0)
        with pytest.raises(ValueError, match="lateness"):
            IngestPlane(lateness_s=-1.0)
        with pytest.raises(ValueError, match="late_policy"):
            IngestPlane(late_policy="reorder")

    def test_attach_requires_channel(self):
        plane = IngestPlane()
        with pytest.raises(RuntimeError, match="no channel"):
            plane.attach()

    def test_attach_detach_idempotent(self):
        channel = MulticastChannel()
        plane = IngestPlane(channel)
        assert plane.attached
        plane.attach()
        plane.detach()
        plane.detach()
        assert not plane.attached
        channel.announce(ann("a", 1.0))
        assert plane.buffered == 0, "detached planes ignore the channel"

    def test_preregistered_nodes_fix_node_ids(self):
        plane = IngestPlane(nodes=["a", "b"])
        assert plane.node_names == ("a", "b")
        plane.push("c", 1.0, np.ones(NUM_METRICS))
        assert plane.stats().filtered == 1
        assert plane.node_names == ("a", "b")


class TestDrainMerge:
    def test_merges_across_nodes_chronologically(self):
        plane = IngestPlane()
        plane.push("b", 2.0, np.full(NUM_METRICS, 20.0))
        plane.push("a", 1.0, np.full(NUM_METRICS, 10.0))
        plane.push("a", 3.0, np.full(NUM_METRICS, 30.0))
        batch = plane.drain()
        assert batch.timestamps.tolist() == [1.0, 2.0, 3.0]
        assert [batch.nodes[i] for i in batch.node_ids] == ["a", "b", "a"]
        assert batch.values[:, 0].tolist() == [10.0, 20.0, 30.0]

    def test_ties_break_in_node_registration_order(self):
        plane = IngestPlane(nodes=["a", "b"])
        plane.push("b", 1.0, np.full(NUM_METRICS, 2.0))
        plane.push("a", 1.0, np.full(NUM_METRICS, 1.0))
        batch = plane.drain()
        assert [batch.nodes[i] for i in batch.node_ids] == ["a", "b"]

    def test_empty_drain(self):
        plane = IngestPlane()
        batch = plane.drain()
        assert len(batch) == 0
        assert batch.timestamps.shape == (0,)
        assert batch.values.shape == (0, NUM_METRICS)
        assert plane.stats().drains == 0, "empty drains do not count as drains"

    def test_single_node(self):
        plane = IngestPlane()
        for t in (1.0, 2.0, 3.0):
            plane.push("only", t, np.full(NUM_METRICS, t))
        batch = plane.drain()
        assert len(batch) == 3
        assert batch.nodes == ("only",)
        assert batch.node_ids.tolist() == [0, 0, 0]

    def test_drain_consumes(self):
        plane = IngestPlane()
        plane.push("a", 1.0, np.ones(NUM_METRICS))
        assert len(plane.drain()) == 1
        assert len(plane.drain()) == 0


class TestMaxRows:
    def test_truncation_keeps_remainder_buffered(self):
        plane = IngestPlane()
        for t in (1.0, 3.0, 5.0):
            plane.push("a", t, np.full(NUM_METRICS, t))
        for t in (2.0, 4.0, 6.0):
            plane.push("b", t, np.full(NUM_METRICS, t))
        first = plane.drain(4)
        assert first.timestamps.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert plane.buffered == 2
        second = plane.drain(4)
        assert second.timestamps.tolist() == [5.0, 6.0]
        assert plane.buffered == 0

    def test_truncated_sequence_equals_one_big_drain(self):
        rng = np.random.default_rng(3)

        def fill(plane):
            for node in ("a", "b", "c"):
                t = 0.0
                for _ in range(20):
                    t += float(rng.uniform(0.1, 2.0))
                    plane.push(node, t, np.full(NUM_METRICS, t))

        rng = np.random.default_rng(3)
        whole = IngestPlane()
        fill(whole)
        expected = whole.drain().timestamps.copy()

        rng = np.random.default_rng(3)
        chunked = IngestPlane()
        fill(chunked)
        got = []
        while True:
            batch = chunked.drain(7)
            if len(batch) == 0:
                break
            got.extend(batch.timestamps.tolist())
        assert got == expected.tolist()

    def test_invalid_max_rows(self):
        with pytest.raises(ValueError, match="max_rows"):
            IngestPlane().drain(0)


class TestWatermarkAndLateness:
    def test_lateness_holds_back_recent_rows(self):
        plane = IngestPlane(lateness_s=2.0)
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            plane.push("a", t, np.full(NUM_METRICS, t))
        assert plane.watermark == 3.0
        batch = plane.drain()
        assert batch.timestamps.tolist() == [1.0, 2.0, 3.0], "rows behind the watermark only"
        assert plane.buffered == 2

    def test_held_back_row_lands_in_correct_merged_position(self):
        plane = IngestPlane(lateness_s=2.0)
        plane.push("a", 1.0, np.ones(NUM_METRICS))
        plane.push("a", 5.0, np.ones(NUM_METRICS))
        assert plane.drain().timestamps.tolist() == [1.0]
        # Out-of-order arrival within the lateness budget: ts=4 arrives
        # after ts=5 was seen but before the watermark passes it.
        plane.push("b", 4.0, np.ones(NUM_METRICS))
        plane.push("a", 7.0, np.ones(NUM_METRICS))
        batch = plane.drain()
        assert batch.timestamps.tolist() == [4.0, 5.0]
        assert plane.stats().late_accepted == 0, "within-budget reordering is not late"

    def test_flush_ignores_lateness(self):
        plane = IngestPlane(lateness_s=100.0)
        for t in (1.0, 2.0, 3.0):
            plane.push("a", t, np.full(NUM_METRICS, t))
        assert len(plane.drain()) == 0
        batch = plane.drain(flush=True)
        assert batch.timestamps.tolist() == [1.0, 2.0, 3.0]
        assert batch.watermark == np.inf

    def test_late_accept_emits_in_next_drain(self):
        plane = IngestPlane()
        plane.push("a", 5.0, np.ones(NUM_METRICS))
        assert plane.drain().timestamps.tolist() == [5.0]
        assert plane.frontier == 5.0
        accepted = plane.push("a", 3.0, np.full(NUM_METRICS, 3.0))
        assert accepted is True
        stats = plane.stats()
        assert stats.late_accepted == 1
        assert stats.late_dropped == 0
        batch = plane.drain()
        assert batch.timestamps.tolist() == [3.0], "late row surfaces in a later drain"

    def test_late_drop_discards(self):
        plane = IngestPlane(late_policy="drop")
        plane.push("a", 5.0, np.ones(NUM_METRICS))
        plane.drain()
        accepted = plane.push("a", 3.0, np.ones(NUM_METRICS))
        assert accepted is False
        stats = plane.stats()
        assert stats.late_dropped == 1
        assert plane.buffered == 0
        assert len(plane.drain()) == 0


class TestDropAccounting:
    def test_duplicate_timestamp_dropped(self):
        plane = IngestPlane()
        assert plane.push("a", 1.0, np.ones(NUM_METRICS)) is True
        assert plane.push("a", 1.0, np.ones(NUM_METRICS)) is False
        assert plane.stats().duplicates == 1
        assert plane.buffered == 1

    def test_filtered_node_dropped(self):
        plane = IngestPlane(nodes=["a"])
        assert plane.push("z", 1.0, np.ones(NUM_METRICS)) is False
        assert plane.stats().filtered == 1
        assert plane.buffered == 0

    def test_overflow_counted_in_stats(self):
        plane = IngestPlane(capacity=2)
        for t in (1.0, 2.0, 3.0, 4.0):
            plane.push("a", t, np.full(NUM_METRICS, t))
        stats = plane.stats()
        assert stats.overflowed == 2
        assert stats.received == 4
        assert plane.drain().timestamps.tolist() == [3.0, 4.0]

    def test_stats_snapshot_is_consistent(self):
        plane = IngestPlane(nodes=["a"])
        plane.push("a", 1.0, np.ones(NUM_METRICS))
        plane.push("a", 1.0, np.ones(NUM_METRICS))  # duplicate
        plane.push("z", 2.0, np.ones(NUM_METRICS))  # filtered
        plane.drain()
        plane.push("a", 0.5, np.ones(NUM_METRICS))  # late
        stats = plane.stats()
        assert stats.received == 4
        assert stats.duplicates == 1
        assert stats.filtered == 1
        assert stats.late_accepted == 1
        assert stats.drains == 1
        assert stats.drained_rows == 1
        assert stats.buffered == 1


class TestBufferReuse:
    def test_drain_views_are_invalidated_by_next_drain(self):
        plane = IngestPlane()
        plane.push("a", 1.0, np.full(NUM_METRICS, 10.0))
        first = plane.drain()
        kept = first.timestamps.copy()
        plane.push("a", 2.0, np.full(NUM_METRICS, 20.0))
        second = plane.drain()
        # Same reused storage underneath both batches.
        assert first.timestamps.base is second.timestamps.base
        assert first.timestamps[0] == second.timestamps[0] == 2.0
        assert kept[0] == 1.0

    def test_new_node_regrows_buffers(self):
        plane = IngestPlane(capacity=4)
        plane.push("a", 1.0, np.ones(NUM_METRICS))
        plane.drain()
        plane.push("b", 2.0, np.ones(NUM_METRICS))
        plane.push("a", 3.0, np.ones(NUM_METRICS))
        batch = plane.drain()
        assert batch.timestamps.tolist() == [2.0, 3.0]
        assert batch.nodes == ("a", "b")


class TestChannelIntegration:
    def test_announcements_land_via_channel(self):
        channel = MulticastChannel()
        plane = IngestPlane(channel)
        channel.announce(ann("a", 1.0, 11.0))
        channel.announce(ann("b", 2.0, 22.0))
        batch = plane.drain()
        assert len(batch) == 2
        assert [batch.nodes[i] for i in batch.node_ids] == ["a", "b"]


def test_slo_rules_cover_the_ingest_instruments():
    rules = ingest_slo_rules()
    names = {r.name for r in rules}
    assert names == {
        "ingest-overflow-rate",
        "ingest-late-rate",
        "ingest-ring-occupancy",
        "ingest-drain-p99-seconds",
        "ingest-drain-to-classify-p99",
    }
    metrics = {r.metric for r in rules}
    assert "ingest.announcements.dropped" in metrics
    assert "ingest.ring.occupancy" in metrics
    assert "ingest.drain_to_classify.seconds" in metrics


class TestPushHotPath:
    @pytest.mark.parametrize("enabled", [False, True])
    def test_push_reads_the_obs_switch_once(self, monkeypatch, enabled):
        from repro import obs
        from repro.ingest import plane as plane_module

        reads = []

        def counting_enabled():
            reads.append(None)
            return enabled

        monkeypatch.setattr(plane_module, "obs_enabled", counting_enabled)
        if enabled:
            obs.enable()
        try:
            plane = IngestPlane(capacity=1, late_policy="drop", nodes=["a"])
            pushes = [
                ("a", 1.0),  # accepted
                ("a", 1.0),  # duplicate
                ("z", 2.0),  # filtered
                ("a", 2.0),  # overflow
            ]
            for node, ts in pushes:
                plane.push(node, ts, np.ones(NUM_METRICS))
            assert len(reads) == len(pushes)
            plane.drain()
            del reads[:]
            plane.push("a", 0.5, np.ones(NUM_METRICS))  # late, dropped
            plane.push("a", 3.0, np.ones(NUM_METRICS))
            assert len(reads) == 2
        finally:
            obs.disable()
        stats = plane.stats()
        assert (stats.duplicates, stats.filtered, stats.overflowed, stats.late_dropped) == (1, 1, 1, 1)
