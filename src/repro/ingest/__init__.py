"""repro.ingest — the streaming tick-level ingest plane.

The paper's online path (§4) classifies one gmond announcement at a
time; the batched serve layer classifies whole fleets per call.  This
package is the bridge: one plane-wide columnar announcement log with a
per-node capacity and no per-announcement Python objects
(:mod:`repro.ingest.ring`), the merged global timeline as one stable
sort on ``(timestamp, node)`` (:mod:`repro.ingest.timeline`), and an
:class:`IngestPlane` that applies watermark/lateness semantics and
drains merged, chronologically sorted batches into reused buffers
(:mod:`repro.ingest.plane`) — which ``OnlineClassifier.pump`` then
classifies through the same row-independent kernel as the
per-announcement path, bit-identically per compute dtype.

Layering: ingest sits between monitoring and serve (monitoring →
ingest → serve).  It re-exports the monitoring wire types so serve-side
consumers can build a full pipeline without importing
``repro.monitoring`` directly (which the layering DAG forbids).
"""

from ..monitoring.multicast import MetricAnnouncement, MulticastChannel
from .plane import (
    DrainBatch,
    IngestPlane,
    IngestStats,
    LATE_POLICIES,
    ingest_slo_rules,
)
from .ring import AnnouncementRing, DEFAULT_RING_CAPACITY
from .synth import synthetic_fleet
from .timeline import stable_merge_order

__all__ = [
    "AnnouncementRing",
    "DEFAULT_RING_CAPACITY",
    "DrainBatch",
    "IngestPlane",
    "IngestStats",
    "LATE_POLICIES",
    "MetricAnnouncement",
    "MulticastChannel",
    "ingest_slo_rules",
    "stable_merge_order",
    "synthetic_fleet",
]
