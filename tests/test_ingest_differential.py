"""The columnar-log plane against the per-node ring plane, drain for drain.

Seeded random push/drain sequences over small capacities and fleets,
both late policies, several lateness budgets, ``max_rows`` cuts,
flushes and empty drains.  Every row carries a unique tag in its
values, so a drop-oldest that picks another row, or a drain that emits
rows in another order, shows up as an array difference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ingest import IngestPlane
from repro.metrics.catalog import NUM_METRICS

from tests.ingest_oracle import RingPlane

SEQUENCES = 2000
SHARDS = 4
BATCH_FIELDS = ("nodes", "node_ids", "timestamps", "values", "watermark", "trace_ids", "enqueued_s")


def run_sequence(seed: int) -> dict[str, int]:
    """Drive both planes through one random sequence; returns what it covered."""
    rng = np.random.default_rng(seed)
    config = dict(
        capacity=int(rng.integers(1, 9)),
        lateness_s=float(rng.choice([0.0, 1.0, 3.0])),
        late_policy=str(rng.choice(["accept", "drop"])),
    )
    names = [f"n{i}" for i in range(int(rng.integers(1, 8)))]
    if rng.random() < 0.2:
        config["nodes"] = names[: max(1, len(names) - 1)]
    plane = IngestPlane(**config)
    oracle = RingPlane(**config)
    covered = dict(drains=0, empty=0, cut=0, flush=0, overflow=0)
    clock = 0.0
    tag = 0
    for _ in range(int(rng.integers(5, 60))):
        if rng.random() < 0.7:
            clock += float(rng.integers(0, 3))
            # Integer timestamps around the clock: ties, duplicates,
            # reordering and late arrivals all happen often.
            timestamp = clock - float(rng.integers(0, 5))
            node = names[int(rng.integers(0, len(names)))]
            tag += 1
            values = np.full(NUM_METRICS, float(tag))
            assert plane.push(node, timestamp, values) == oracle.push(node, timestamp, values), seed
        else:
            max_rows = int(rng.integers(1, 6)) if rng.random() < 0.4 else None
            flush = bool(rng.random() < 0.1)
            got = plane.drain(max_rows, flush=flush)
            want = oracle.drain(max_rows, flush=flush)
            for field in BATCH_FIELDS:
                assert np.array_equal(getattr(got, field), getattr(want, field)), (seed, field)
            covered["drains"] += 1
            covered["empty"] += len(want) == 0
            covered["cut"] += max_rows is not None and len(want) == max_rows
            covered["flush"] += flush
        assert plane.stats() == oracle.stats(), seed
        assert plane.buffered <= len(plane.node_names) * config["capacity"]
    covered["overflow"] = plane.stats().overflowed
    final = plane.drain(flush=True)
    expected = oracle.drain(flush=True)
    for field in BATCH_FIELDS:
        assert np.array_equal(getattr(final, field), getattr(expected, field)), (seed, field)
    assert plane.stats() == oracle.stats(), seed
    return covered


@pytest.mark.parametrize("shard", range(SHARDS))
def test_log_plane_matches_ring_plane(shard):
    covered = dict(drains=0, empty=0, cut=0, flush=0, overflow=0)
    for seed in range(shard, SEQUENCES, SHARDS):
        for key, count in run_sequence(seed).items():
            covered[key] += count
    # The sequences reach every path the comparison is meant to cover.
    assert all(count > 0 for count in covered.values()), covered
