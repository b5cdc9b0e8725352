"""Per-tick execution traces for debugging and analysis.

A :class:`TraceRecorder` subscribes to an engine (as a tick listener) and
records, each tick, the progress fraction of every instance.  It is not
part of the classification data path — the classifier only sees what the
monitoring substrate publishes — but tests and ablation studies use it to
verify the contention model directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import SimulationEngine


@dataclass
class InstanceTrace:
    """Progress-fraction time series of one instance."""

    instance_key: int
    workload_name: str
    vm_name: str
    times: list[float] = field(default_factory=list)
    fractions: list[float] = field(default_factory=list)

    def mean_fraction(self) -> float:
        """Average achieved speed while the instance was active."""
        if not self.fractions:
            return 0.0
        return float(np.mean(self.fractions))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (times, fractions) as numpy arrays."""
        return np.asarray(self.times), np.asarray(self.fractions)


class TraceRecorder:
    """Record instance progress by polling the engine every tick.

    The recorder infers each instance's achieved fraction from the change
    in :meth:`~repro.workloads.base.WorkloadInstance.total_jobs` between
    ticks (progress is expressed in solo-seconds of work, so the fraction
    is ``Δwork / dt``).
    """

    def __init__(self, engine: SimulationEngine, keys: list[int] | None = None) -> None:
        self.engine = engine
        self._keys = keys
        self._last_work: dict[int, float] = {}
        self.traces: dict[int, InstanceTrace] = {}
        engine.add_tick_listener(self._on_tick)

    def _tracked_keys(self) -> list[int]:
        if self._keys is not None:
            return self._keys
        return list(self.engine._instances.keys())

    def _on_tick(self, now: float) -> None:
        for key in self._tracked_keys():
            inst = self.engine.instance(key)
            total_work = inst.total_jobs() * inst.workload.solo_duration
            last = self._last_work.get(key)
            self._last_work[key] = total_work
            if last is None:
                continue
            trace = self.traces.get(key)
            if trace is None:
                trace = InstanceTrace(
                    instance_key=key,
                    workload_name=inst.workload.name,
                    vm_name=inst.vm_name,
                )
                self.traces[key] = trace
            if inst.has_started(now - self.engine.dt) or total_work > last:
                trace.times.append(now)
                trace.fractions.append(max(total_work - last, 0.0) / self.engine.dt)

    def trace(self, key: int) -> InstanceTrace:
        """Return the trace of instance *key*.

        Raises
        ------
        KeyError
            If the instance produced no trace yet.
        """
        return self.traces[key]
