"""Discrete-time execution engine.

Advances a :class:`~repro.vm.cluster.Cluster` in 1-second ticks.  Each
tick it:

1. looks up the tick's :class:`TickPlan`: the full-speed demands of all
   active workload instances, passed through their VM's memory model
   (paging injection) and resolved via :mod:`repro.sim.contention` into
   progress fractions and per-VM grants;
2. advances each instance's progress by its planned fraction (the
   granted share times the memory-pressure efficiency);
3. updates every VM's kernel-style counters from the plan's grants, plus
   background daemon noise (so idle machines look like real idle
   machines);
4. fires tick listeners — the monitoring substrate hooks in here to take
   its 5-second Ganglia heartbeats.

The engine is fully deterministic for a given seed.

Plan cache.  Step 1 is a pure function of its inputs, and in steady
state the same inputs repeat tick after tick: a profiled run holds one
phase for hundreds of ticks, and a looping schedule revisits a few
hundred allocations.  Plans are cached under a key made of

* each active instance's engine key, current phase (by identity; the
  plan keeps the phase alive) and VM name, in engine order;
* the tick's paging burst multiplier, only when some VM pages under the
  plan (otherwise the memory model ignores it);

and the cache is emptied whenever any VM's memory size, vCPU count,
host or host capacity differs from the previous tick, or when it holds
:data:`MAX_PLANS` plans.  ``allocate`` runs only on a miss.

Bit-identity contract.  For a given cluster, seed and sequence of calls,
every simulated value (counters, progress, completions, and so every
gmond announcement) is bit-for-bit what computing each tick from scratch
gives: a cached plan holds exactly the floats
:meth:`SimulationEngine.compute_plan` returns for the tick, the per-grant
counter terms are added to the tick's noise in the same order, and each
VM's daemon noise is read in blocks (:class:`BlockReader`) whose values
equal the generator's own ``uniform``/``random`` draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs import counter as obs_counter, gauge as obs_gauge
from ..vm.cluster import Cluster
from ..vm.machine import VirtualMachine, paging_burst_multiplier
from ..vm.resources import BLOCKS_PER_SWAP_KB, ResourceGrant
from ..workloads.base import Phase, WorkloadInstance
from .contention import InstanceDemand, allocate

#: Hard cap on simulation length, to catch runaway loops in tests.
DEFAULT_MAX_TICKS: int = 500_000

#: System-time cost charged to a VM running the server side of one
#: network stream, per unit of client progress fraction (cores).
SERVER_CPU_SYSTEM_PER_STREAM: float = 0.08

#: Raw doubles a :class:`BlockReader` takes from its generator at a time.
NOISE_BLOCK: int = 1024

#: Plans an engine caches before it empties its cache and starts over.
MAX_PLANS: int = 4096


class BlockReader:
    """A generator's ``uniform``/``random`` draws, read in blocks of raw doubles.

    ``Generator.random()`` returns the next raw double ``u`` of the
    stream and ``Generator.uniform(lo, hi)`` returns ``lo + (hi - lo) * u``;
    ``Generator.random(n)`` returns the next *n* raw doubles in order.  So
    every value returned here is bit-identical to the same call on the
    generator itself, in any interleaving.  Only the generator's own state
    runs ahead, by up to one block: the reader must be its sole consumer.
    """

    __slots__ = ("_rng", "_block", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, block: int = NOISE_BLOCK) -> None:
        if block < 1:
            raise ValueError("block must be positive")
        self._rng = rng
        self._block = block
        self._buf: list[float] = []
        self._pos = 0

    def random(self) -> float:
        """The next double in [0, 1), as ``Generator.random()``."""
        pos = self._pos
        if pos == len(self._buf):
            self._buf = self._rng.random(self._block).tolist()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def uniform(self, low: float, high: float) -> float:
        """A draw from [low, high), as ``Generator.uniform(low, high)``."""
        return low + (high - low) * self.random()


@dataclass
class DaemonNoiseModel:
    """Background daemon activity injected into every VM each tick.

    Idle machines are not silent: cron, syslog, gmond itself, and kernel
    threads produce small CPU blips, occasional disk flushes, and a
    trickle of network chatter.  The IDLE training class is learned from
    exactly this residual activity.
    """

    cpu_user_range: tuple[float, float] = (0.001, 0.015)
    cpu_system_range: tuple[float, float] = (0.001, 0.010)
    io_burst_probability: float = 1.0 / 30.0
    io_burst_blocks: tuple[float, float] = (8.0, 50.0)
    net_bytes_range: tuple[float, float] = (200.0, 2500.0)

    def sample(self, rng: np.random.Generator | BlockReader) -> tuple[float, float, float, float]:
        """Return (cpu_user, cpu_system, io_blocks, net_bytes) for one tick.

        *rng* is a generator or a :class:`BlockReader` over one; both
        give the same values for the same stream.
        """
        cpu_u = rng.uniform(*self.cpu_user_range)
        cpu_s = rng.uniform(*self.cpu_system_range)
        io = rng.uniform(*self.io_burst_blocks) if rng.random() < self.io_burst_probability else 0.0
        net = rng.uniform(*self.net_bytes_range)
        return cpu_u, cpu_s, io, net


@dataclass
class CompletionEvent:
    """Records one finished workload pass."""

    time: float
    instance_key: int
    workload_name: str
    vm_name: str
    elapsed: float


@dataclass
class MigrationEvent:
    """Records one live migration of an instance between VMs."""

    time: float
    instance_key: int
    workload_name: str
    from_vm: str
    to_vm: str
    downtime_s: float


#: Default checkpoint/restart downtime for a migration (seconds).  Condor
#: -style checkpointing transfers the process image over the network; a
#: few seconds models a modest image on Gigabit Ethernet.
DEFAULT_MIGRATION_DOWNTIME_S: float = 5.0


TickListener = Callable[[float], None]

#: One active instance as a plan sees it: (engine key, phase, VM name).
PlanEntry = tuple[int, Phase, str]


@dataclass(frozen=True)
class VmPlan:
    """One VM's part of a tick plan: its counter inputs other than noise.

    The tuples hold per-grant terms, already multiplied by ``dt``, that
    the tick adds in order to its noise draw (grants in engine order,
    then the server side of network streams ending at this VM).  The
    scalars are sums that involve no noise.
    """

    name: str
    user: tuple[float, ...]
    system: tuple[float, ...]
    io_in: float
    io_out: tuple[float, ...]
    swap_in: float
    swap_out: float
    net_in: tuple[float, ...]
    net_out: tuple[float, ...]
    runnable: float
    proc_total: int
    working_set_mb: float


@dataclass(frozen=True)
class TickPlan:
    """The deterministic part of one tick.

    ``entries`` are its inputs, one per active instance in engine order;
    ``progress`` is each one's granted fraction of full speed, in the
    same order; ``vms`` has one :class:`VmPlan` per cluster VM, in
    cluster order; ``paging`` is True when some VM pages, which makes the
    plan depend on the tick's paging burst multiplier.
    """

    entries: tuple[PlanEntry, ...]
    progress: tuple[float, ...]
    vms: tuple[VmPlan, ...]
    paging: bool


class SimulationEngine:
    """Drives workload instances over a cluster.

    Parameters
    ----------
    cluster:
        Topology to simulate.
    seed:
        Seed for the daemon-noise RNG (per-VM streams derived from it).
    dt:
        Tick length in seconds (1.0 reproduces the paper's setup; the
        monitoring interval of 5 s must be a multiple).
    """

    def __init__(self, cluster: Cluster, seed: int = 0, dt: float = 1.0) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.cluster = cluster
        self.dt = float(dt)
        self.now = 0.0
        self.tick_index = 0
        self.noise = DaemonNoiseModel()
        self._instances: dict[int, WorkloadInstance] = {}
        self._next_key = 0
        self._listeners: list[TickListener] = []
        self.completions: list[CompletionEvent] = []
        self.migrations: list[MigrationEvent] = []
        self._completed_keys: set[int] = set()
        self._killed_keys: set[int] = set()
        root = np.random.default_rng(seed)
        self._vm_noise: dict[str, BlockReader] = {
            vm.name: BlockReader(np.random.default_rng(root.integers(0, 2**63 - 1)))
            for vm in cluster.iter_vms()
        }
        self._hardware: tuple = ()
        self._vms: tuple[VirtualMachine, ...] = ()
        self._plans: dict[tuple, TickPlan] = {}
        self._burst_dependent: set[tuple] = set()
        #: The plan the last tick used (None before the first tick).
        self.last_plan: TickPlan | None = None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def add_instance(self, instance: WorkloadInstance) -> int:
        """Register a workload instance; returns its engine key.

        Raises
        ------
        KeyError
            If the instance's VM is not in the cluster.
        """
        self.cluster.vm(instance.vm_name)  # raises KeyError if missing
        key = self._next_key
        self._next_key += 1
        self._instances[key] = instance
        return key

    def add_tick_listener(self, listener: TickListener) -> None:
        """Register a callable invoked with the new time after every tick."""
        self._listeners.append(listener)

    def instance(self, key: int) -> WorkloadInstance:
        """Return the instance registered under *key*."""
        return self._instances[key]

    def migrate(
        self,
        key: int,
        target_vm: str,
        downtime_s: float = DEFAULT_MIGRATION_DOWNTIME_S,
    ) -> MigrationEvent:
        """Live-migrate an instance to another VM (paper §1's motivation).

        The instance checkpoints, pauses for *downtime_s* (image transfer
        and restart), and resumes on the target VM from exactly where it
        left off — progress is preserved, as with Condor-style process
        checkpointing.

        Raises
        ------
        KeyError
            If the instance or the target VM is unknown.
        RuntimeError
            If the instance already completed.
        ValueError
            For a negative downtime or a self-migration.
        """
        inst = self._instances[key]
        if inst.done:
            raise RuntimeError("cannot migrate a completed instance")
        if downtime_s < 0:
            raise ValueError("downtime must be non-negative")
        self.cluster.vm(target_vm)  # KeyError if missing
        if target_vm == inst.vm_name:
            raise ValueError(f"instance already runs on {target_vm!r}")
        event = MigrationEvent(
            time=self.now,
            instance_key=key,
            workload_name=inst.workload.name,
            from_vm=inst.vm_name,
            to_vm=target_vm,
            downtime_s=downtime_s,
        )
        inst.vm_name = target_vm
        inst.paused_until = self.now + downtime_s
        self.migrations.append(event)
        obs_counter("sim.migrations", help="Live migrations performed.").inc()
        return event

    def kill_instance(self, key: int) -> None:
        """Fault injection: terminate an instance immediately.

        The instance is removed from the run — no completion event is
        ever emitted for it, and its VM's counters simply stop advancing
        from its work (daemon noise continues).

        Raises
        ------
        KeyError
            If the instance is unknown.
        RuntimeError
            If it already completed (nothing left to kill).
        """
        inst = self._instances[key]
        if inst.done:
            raise RuntimeError("instance already completed")
        del self._instances[key]
        self._killed_keys.add(key)

    def was_killed(self, key: int) -> bool:
        """True if *key* was removed by :meth:`kill_instance`."""
        return key in self._killed_keys

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def all_done(self) -> bool:
        """True when every non-looping instance has finished."""
        return all(inst.done or inst.loop for inst in self._instances.values())

    def run(self, until: float | None = None, max_ticks: int = DEFAULT_MAX_TICKS) -> None:
        """Advance the simulation.

        With *until* given, runs to that time; otherwise runs until every
        non-looping instance completes.

        Raises
        ------
        RuntimeError
            If *max_ticks* elapse first (runaway guard), or if no end
            condition exists (all instances loop and no *until*).
        """
        if until is None and all(inst.loop for inst in self._instances.values()) and self._instances:
            raise RuntimeError("all instances loop forever; pass an explicit 'until' time")
        ticks = 0
        while True:
            if until is not None and self.now >= until - 1e-9:
                return
            if until is None and self.all_done():
                return
            self.step()
            ticks += 1
            if ticks > max_ticks:
                raise RuntimeError(f"simulation exceeded {max_ticks} ticks")

    def step(self) -> None:
        """Advance the simulation by one tick."""
        t = self.now
        dt = self.dt
        active: list[tuple[int, WorkloadInstance]] = [
            (key, inst) for key, inst in self._instances.items() if inst.has_started(t)
        ]
        plan = self._tick_plan(active)
        self.last_plan = plan

        # -- progress ------------------------------------------------------
        for (_key, inst), fraction in zip(active, plan.progress):
            inst.advance(granted_fraction=fraction, dt=dt, now=t)

        # -- counters ------------------------------------------------------
        for vm, vm_plan in zip(self._vms, plan.vms):
            self._account(vm, vm_plan)

        # -- completions & time ----------------------------------------
        self.now = t + dt
        self.tick_index += 1
        for key, inst in active:
            if inst.done and key not in self._completed_keys:
                self._completed_keys.add(key)
                elapsed = inst.elapsed()
                assert elapsed is not None
                self.completions.append(
                    CompletionEvent(
                        time=self.now,
                        instance_key=key,
                        workload_name=inst.workload.name,
                        vm_name=inst.vm_name,
                        elapsed=elapsed,
                    )
                )
                obs_counter("sim.completions", help="Workload passes completed.").inc()
        for listener in self._listeners:
            listener(self.now)
        obs_counter("sim.ticks", help="Simulation ticks advanced.").inc()
        obs_gauge("sim.active_instances", help="Instances active in the last tick.").set(
            float(len(active))
        )

    # ------------------------------------------------------------------
    # tick plans
    # ------------------------------------------------------------------
    def _tick_plan(self, active: list[tuple[int, WorkloadInstance]]) -> TickPlan:
        """The plan for this tick: from the cache, or computed on a miss."""
        hardware = tuple(
            (vm, vm.mem_mb, vm.vcpus, vm.host, None if vm.host is None else vm.host.capacity)
            for vm in self.cluster.iter_vms()
        )
        if hardware != self._hardware:
            self._hardware = hardware
            self._vms = tuple(vm for vm, *_ in hardware)
            self._plans.clear()
            self._burst_dependent.clear()
        base = tuple([(key, id(inst.current_phase()), inst.vm_name) for key, inst in active])
        key: tuple = base
        if base in self._burst_dependent:
            key = (base, paging_burst_multiplier(self.tick_index))
        plan = self._plans.get(key)
        if plan is None:
            entries = tuple((k, inst.current_phase(), inst.vm_name) for k, inst in active)
            plan = self.compute_plan(entries, self.tick_index)
            if len(self._plans) >= MAX_PLANS:
                self._plans.clear()
                self._burst_dependent.clear()
            if plan.paging:
                self._burst_dependent.add(base)
                key = (base, paging_burst_multiplier(self.tick_index))
            self._plans[key] = plan
        return plan

    def compute_plan(self, entries: tuple[PlanEntry, ...], tick: int) -> TickPlan:
        """Resolve one tick's demands into a plan, from scratch.

        *entries* lists ``(engine key, phase, VM name)`` for every active
        instance in engine order; *tick* is the tick index, which sets
        the paging burst.  This is what the plan cache stores; each call
        runs ``allocate`` once.

        Raises
        ------
        ValueError
            If a network phase's server VM has no host.
        """
        vms = list(self.cluster.iter_vms())
        # Co-located instances share their VM's RAM: memory pressure is
        # evaluated on the *sum* of working sets in each VM.
        working_sets: dict[str, float] = {vm.name: 0.0 for vm in vms}
        for _key, phase, vm_name in entries:
            working_sets[vm_name] += phase.demand.mem_mb

        demands: list[InstanceDemand] = []
        efficiencies: list[float] = []
        paging = False
        remote_streams: dict[str, list[tuple[int, float, float]]] = {}
        for key, phase, vm_name in entries:
            vm = self.cluster.vm(vm_name)
            vm_ws = working_sets[vm_name]
            effective = vm.effective_demand(phase.demand, tick=tick, vm_working_set_mb=vm_ws)
            pressure = vm.memory_pressure(vm_ws)
            efficiencies.append(pressure.efficiency)
            paging = paging or pressure.is_paging
            remote_host = None
            if phase.remote_vm is not None:
                remote_vm = self.cluster.vm(phase.remote_vm)
                if remote_vm.host is None:
                    raise ValueError(f"server VM {phase.remote_vm!r} has no host")
                remote_host = remote_vm.host
                remote_streams.setdefault(phase.remote_vm, []).append(
                    (key, effective.net_out, effective.net_in)
                )
            demands.append(InstanceDemand(key=key, vm=vm, demand=effective, remote_host=remote_host))

        report = allocate(demands)

        progress = tuple(
            min(report.fractions[key] * efficiency, 1.0)
            for (key, _phase, _vm), efficiency in zip(entries, efficiencies)
        )
        grants: dict[str, list[ResourceGrant]] = {}
        for key, _phase, vm_name in entries:
            grants.setdefault(vm_name, []).append(report.grants[key])
        vm_plans = tuple(
            self._vm_plan(
                vm,
                grants=grants.get(vm.name, []),
                working_set_mb=working_sets[vm.name],
                server_streams=[
                    (report.fractions[k], out_rate, in_rate)
                    for (k, out_rate, in_rate) in remote_streams.get(vm.name, [])
                ],
            )
            for vm in vms
        )
        return TickPlan(entries=entries, progress=progress, vms=vm_plans, paging=paging)

    def _vm_plan(
        self,
        vm: VirtualMachine,
        grants: list[ResourceGrant],
        working_set_mb: float,
        server_streams: list[tuple[float, float, float]],
    ) -> VmPlan:
        dt = self.dt
        user: list[float] = []
        system: list[float] = []
        io_out: list[float] = []
        net_in: list[float] = []
        net_out: list[float] = []
        io_in = 0.0
        swap_in = 0.0
        swap_out = 0.0
        runnable = 0.0
        for g in grants:
            user.append(g.cpu_user * dt)
            system.append(g.cpu_system * dt)
            io_in += (g.io_bi + g.swap_in * BLOCKS_PER_SWAP_KB) * dt
            io_out.append((g.io_bo + g.swap_out * BLOCKS_PER_SWAP_KB) * dt)
            swap_in += g.swap_in * dt
            swap_out += g.swap_out * dt
            net_in.append(g.net_in * dt)
            net_out.append(g.net_out * dt)
            runnable += min(1.0, g.cpu_user + g.cpu_system + (1.0 if g.io_bi + g.io_bo > 0 else 0.0) * 0.2)

        # Server side of network streams terminating at this VM.
        for fraction, client_out, client_in in server_streams:
            net_in.append(client_out * fraction * dt)
            net_out.append(client_in * fraction * dt)
            system.append(SERVER_CPU_SYSTEM_PER_STREAM * fraction * dt)
            runnable += 0.3 * fraction

        return VmPlan(
            name=vm.name,
            user=tuple(user),
            system=tuple(system),
            io_in=io_in,
            io_out=tuple(io_out),
            swap_in=swap_in,
            swap_out=swap_out,
            net_in=tuple(net_in),
            net_out=tuple(net_out),
            runnable=runnable,
            proc_total=60 + 3 * len(grants),
            working_set_mb=working_set_mb,
        )

    # ------------------------------------------------------------------
    # counter plumbing
    # ------------------------------------------------------------------
    def _account(self, vm: VirtualMachine, plan: VmPlan) -> None:
        """Advance *vm*'s counters by one tick: its plan plus fresh daemon noise."""
        dt = self.dt
        noise = self._vm_noise[vm.name]
        noise_cpu_u, noise_cpu_s, noise_io, noise_net = self.noise.sample(noise)

        user = noise_cpu_u * dt
        for term in plan.user:
            user += term
        system = noise_cpu_s * dt
        for term in plan.system:
            system += term
        io_in = plan.io_in
        io_out = noise_io * dt
        for term in plan.io_out:
            io_out += term
        net_i = noise_net * dt
        for term in plan.net_in:
            net_i += term
        net_o = noise_net * 0.6 * dt
        for term in plan.net_out:
            net_o += term

        capacity_s = vm.vcpus * dt
        busy = user + system
        if busy > capacity_s:
            scale = capacity_s / busy
            user *= scale
            system *= scale
            busy = capacity_s
        # I/O-wait grows with this VM's share of host disk bandwidth.
        host = vm.host
        wio = 0.0
        if host is not None and (io_in + io_out) > 0:
            disk_frac = min((io_in + io_out) / dt / host.capacity.disk_blocks_per_s, 1.0)
            wio = min(capacity_s - busy, 0.5 * disk_frac * dt)
        idle = max(capacity_s - busy - wio, 0.0)

        c = vm.counters
        c.account_cpu(user_s=user, system_s=system, wio_s=wio, nice_s=0.0, idle_s=idle)
        c.account_io(blocks_in=io_in, blocks_out=io_out)
        c.account_swap(kb_in=plan.swap_in, kb_out=plan.swap_out)
        c.account_net(bytes_in=net_i, bytes_out=net_o)
        c.proc_run = int(round(plan.runnable)) + (1 if noise.random() < 0.1 else 0)
        c.proc_total = plan.proc_total
        c.advance_time(dt, plan.runnable + 0.05)
        vm.update_memory_gauges(plan.working_set_mb)
