"""Kernel-style cumulative counters for a (virtual) machine.

Real monitoring systems derive rate metrics from cumulative counters
exposed by the kernel (``/proc/stat``, ``/proc/vmstat``, interface byte
counts).  The simulator maintains the same abstraction: the execution
engine advances :class:`NodeCounters` every tick from granted resources,
and the monitoring substrate (:mod:`repro.monitoring`) computes rates from
counter *deltas* over each sampling window — exactly how Ganglia and
vmstat do it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache


@lru_cache(maxsize=16)
def load_decay(dt: float) -> tuple[float, float, float]:
    """Per-step damping ``1 - exp(-dt/tau)`` of the 1/5/15-minute load averages."""
    return tuple(1.0 - math.exp(-dt / tau) for tau in (60.0, 300.0, 900.0))


@dataclass
class LoadAverages:
    """Unix-style exponentially damped run-queue length averages."""

    one: float = 0.0
    five: float = 0.0
    fifteen: float = 0.0

    def update(self, runnable: float, dt: float) -> None:
        """Advance the 1/5/15-minute averages by *dt* seconds.

        Uses the kernel's first-order exponential damping
        ``load += (runnable - load) * (1 - exp(-dt/tau))``.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        one, five, fifteen = load_decay(dt)
        self.one += (runnable - self.one) * one
        self.five += (runnable - self.five) * five
        self.fifteen += (runnable - self.fifteen) * fifteen


@dataclass
class NodeCounters:
    """Cumulative activity counters plus instantaneous gauges for one node.

    Cumulative fields only ever increase; the monitoring layer is entitled
    to rely on monotonicity (and tests assert it).
    """

    # --- cumulative CPU seconds (summed over all cores) ---------------
    cpu_user_s: float = 0.0
    cpu_system_s: float = 0.0
    cpu_idle_s: float = 0.0
    cpu_wio_s: float = 0.0
    cpu_nice_s: float = 0.0

    # --- cumulative I/O, swap, and network counters -------------------
    io_blocks_in: float = 0.0
    io_blocks_out: float = 0.0
    swap_kb_in: float = 0.0
    swap_kb_out: float = 0.0
    net_bytes_in: float = 0.0
    net_bytes_out: float = 0.0
    net_pkts_in: float = 0.0
    net_pkts_out: float = 0.0

    # --- gauges --------------------------------------------------------
    mem_used_kb: float = 0.0
    mem_buffers_kb: float = 0.0
    mem_cached_kb: float = 0.0
    mem_shared_kb: float = 0.0
    swap_used_kb: float = 0.0
    proc_run: int = 0
    proc_total: int = 60  # typical daemon population of an idle Linux VM
    disk_used_gb: float = 4.0
    load: LoadAverages = field(default_factory=LoadAverages)

    # --- wall clock ------------------------------------------------------
    uptime_s: float = 0.0

    def advance_time(self, dt: float, runnable: float) -> None:
        """Advance uptime and load averages by *dt* with *runnable* tasks."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.uptime_s += dt
        self.load.update(runnable, dt)

    def account_cpu(self, user_s: float, system_s: float, wio_s: float, nice_s: float, idle_s: float) -> None:
        """Add one tick's CPU time split (in core-seconds).

        Raises
        ------
        ValueError
            If any component is negative.
        """
        if user_s < 0 or system_s < 0 or wio_s < 0 or nice_s < 0 or idle_s < 0:
            for v, name in (
                (user_s, "user_s"),
                (system_s, "system_s"),
                (wio_s, "wio_s"),
                (nice_s, "nice_s"),
                (idle_s, "idle_s"),
            ):
                if v < 0:
                    raise ValueError(f"negative CPU accounting: {name}={v}")
        self.cpu_user_s += user_s
        self.cpu_system_s += system_s
        self.cpu_wio_s += wio_s
        self.cpu_nice_s += nice_s
        self.cpu_idle_s += idle_s

    def account_io(self, blocks_in: float, blocks_out: float) -> None:
        """Add block-device traffic for one tick."""
        if blocks_in < 0 or blocks_out < 0:
            raise ValueError("I/O block counts must be non-negative")
        self.io_blocks_in += blocks_in
        self.io_blocks_out += blocks_out

    def account_swap(self, kb_in: float, kb_out: float) -> None:
        """Add paging traffic for one tick."""
        if kb_in < 0 or kb_out < 0:
            raise ValueError("swap traffic must be non-negative")
        self.swap_kb_in += kb_in
        self.swap_kb_out += kb_out

    def account_net(self, bytes_in: float, bytes_out: float, mtu: float = 1500.0) -> None:
        """Add network traffic for one tick; packet counts follow the MTU."""
        if bytes_in < 0 or bytes_out < 0:
            raise ValueError("network byte counts must be non-negative")
        self.net_bytes_in += bytes_in
        self.net_bytes_out += bytes_out
        self.net_pkts_in += bytes_in / mtu
        self.net_pkts_out += bytes_out / mtu

    def total_cpu_s(self) -> float:
        """Total accounted CPU core-seconds."""
        return (
            self.cpu_user_s
            + self.cpu_system_s
            + self.cpu_idle_s
            + self.cpu_wio_s
            + self.cpu_nice_s
        )

    def copy(self) -> "NodeCounters":
        """Return a deep copy (used by monitors to remember the last sample)."""
        import copy as _copy

        return _copy.deepcopy(self)
