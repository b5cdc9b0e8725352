"""The merged announcement timeline: one stable sort on (timestamp, node).

The global tick timeline orders announcements by timestamp; equal
timestamps from different nodes break in **node order** (registration
index), and equal timestamps from one node keep their buffered order.
That is the k-way heap merge over per-node sorted segments with a
``(timestamp, segment_index)`` key, and it is what one stable
lexicographic sort of the buffered rows on ``(timestamp, node index)``
produces in a single NumPy call, whatever order the rows arrive in.
``tests/test_ingest_timeline.py`` pins the equivalence against a heap
merge reference.

dtype: float64
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_merge_order"]


def stable_merge_order(timestamps: np.ndarray, node_ids: np.ndarray) -> np.ndarray:
    """Merge permutation of buffered rows: by timestamp, then node, then position.

    *timestamps* and *node_ids* have shape ``(n,)``.  Returns an
    ``(n,)`` index array such that ``timestamps[order]`` is the merged
    timeline: ties between nodes go to the lower node index, and rows
    of one node with equal timestamps keep their input order (the sort
    is stable).
    """
    return np.lexsort((node_ids, timestamps))
