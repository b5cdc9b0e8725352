"""Merged announcement timeline: the heap reference vs the one stable sort."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ingest import stable_merge_order

from tests.ingest_oracle import iter_merged


def merge_via_heap(segments):
    """Flatten segments through the k-way heap reference, keeping labels."""
    return [(ts, seg, elem) for ts, seg, elem in iter_merged(segments)]


def merge_via_argsort(segments):
    """Flatten segments through the vectorized merge, keeping labels."""
    lengths = [len(s) for s in segments]
    flat = np.concatenate([np.asarray(s, dtype=np.float64) for s in segments])
    seg_of = np.repeat(np.arange(len(segments)), lengths)
    elem_of = np.concatenate([np.arange(n) for n in lengths])
    order = stable_merge_order(flat, seg_of)
    return [(float(flat[i]), int(seg_of[i]), int(elem_of[i])) for i in order]


class TestEquivalence:
    def test_simple_interleave(self):
        segments = [[1.0, 4.0, 7.0], [2.0, 3.0, 8.0], [0.5, 6.0]]
        assert merge_via_heap(segments) == merge_via_argsort(segments)

    def test_ties_break_in_segment_order(self):
        segments = [[1.0, 2.0], [1.0, 2.0], [1.0]]
        merged = merge_via_heap(segments)
        assert merged == [
            (1.0, 0, 0),
            (1.0, 1, 0),
            (1.0, 2, 0),
            (2.0, 0, 1),
            (2.0, 1, 1),
        ]
        assert merged == merge_via_argsort(segments)

    def test_empty_segments_are_skipped(self):
        segments = [[], [3.0], [], [1.0, 2.0]]
        merged = merge_via_heap(segments)
        assert [ts for ts, _, _ in merged] == [1.0, 2.0, 3.0]
        assert merged == merge_via_argsort(segments)

    def test_all_empty(self):
        assert merge_via_heap([[], []]) == []
        assert stable_merge_order(np.empty(0), np.empty(0, dtype=np.intp)).shape == (0,)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_with_heavy_ties(self, seed):
        rng = np.random.default_rng(seed)
        segments = []
        for _ in range(rng.integers(2, 7)):
            n = int(rng.integers(0, 40))
            # Coarse quantization forces many cross-segment ties.
            segments.append(sorted(np.round(rng.uniform(0, 10, n) * 2) / 2))
        assert merge_via_heap(segments) == merge_via_argsort(segments)


class TestContract:
    def test_output_is_globally_sorted(self):
        rng = np.random.default_rng(7)
        segments = [sorted(rng.uniform(0, 100, 25)) for _ in range(4)]
        ts = [t for t, _, _ in merge_via_heap(segments)]
        assert ts == sorted(ts)

    def test_within_segment_order_is_preserved(self):
        segments = [[5.0, 5.0, 5.0], [5.0, 5.0]]
        merged = merge_via_heap(segments)
        for seg in (0, 1):
            elems = [e for _, s, e in merged if s == seg]
            assert elems == sorted(elems)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_arrival_order_does_not_matter(seed):
    """Rows in any order merge to the heap's (timestamp, node) sequence."""
    rng = np.random.default_rng(seed)
    segments = [sorted(np.round(rng.uniform(0, 10, int(rng.integers(0, 30))) * 2) / 2) for _ in range(5)]
    flat = np.concatenate([np.asarray(s, dtype=np.float64) for s in segments])
    seg_of = np.repeat(np.arange(len(segments)), [len(s) for s in segments])
    shuffle = rng.permutation(flat.shape[0])
    ts, seg = flat[shuffle], seg_of[shuffle]
    order = stable_merge_order(ts, seg)
    merged = [(float(t), int(s)) for t, s in zip(ts[order], seg[order])]
    assert merged == [(t, s) for t, s, _ in iter_merged(segments)]
