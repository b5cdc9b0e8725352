"""Multi-resource max-min fair contention model.

Each simulation tick, every running instance demands resources at its
phase's full-speed rates.  The allocator resolves those demands against
hardware capacities and returns, per instance, the *fraction* of full
speed it achieves this tick:

* Every rate resource is allocated **max-min fairly** (water-filling):
  instances demanding less than the fair share are fully satisfied, and
  the leftover capacity is split among the heavy demanders.  A CPU job
  writing 25 blocks/s is not punished for sharing a disk with PostMark.
* **CPU** is allocated hierarchically — max-min among instances within a
  VM's vCPUs, then max-min among VM aggregates within the host's cores.
* **Disk** bandwidth is a host-level resource (paging traffic included).
* **Network** bandwidth is constrained per host NIC *and direction*; a
  network phase with a remote endpoint is additionally constrained by the
  mirrored traffic on the remote host's NIC (the slower end governs, as
  TCP flow control would).
* **Virtualization interference**: co-runners impose an efficiency
  penalty even without saturating any resource (context switches, cache
  pollution, hypervisor overhead).  Calibrated against paper Table 4
  (CH3D stretched 488 s → 613 s next to PostMark).

The instance's progress fraction is the product of its *bottleneck*
resource share and the interference efficiency.  Granted consumption
scales every demanded rate by that fraction — a job running at 40% speed
performs 40% of its I/O, CPU, and network per second.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..vm.machine import PhysicalHost, VirtualMachine
from ..vm.resources import ResourceDemand, ResourceGrant

#: Interference coefficient per active co-runner in the *same VM*.
KAPPA_VM: float = 0.22

#: Interference coefficient per active co-runner in other VMs on the host.
KAPPA_HOST: float = 0.06


@dataclass
class InstanceDemand:
    """One instance's effective demand, tagged with its placement."""

    key: int
    vm: VirtualMachine
    demand: ResourceDemand
    remote_host: PhysicalHost | None = None


@dataclass
class AllocationReport:
    """Diagnostic output of one allocation round (consumed by traces/tests)."""

    fractions: dict[int, float] = field(default_factory=dict)
    grants: dict[int, ResourceGrant] = field(default_factory=dict)
    cpu_factor: dict[int, float] = field(default_factory=dict)
    disk_factor: dict[int, float] = field(default_factory=dict)
    net_factor: dict[int, float] = field(default_factory=dict)


def max_min_factors(demands: list[float], capacity: float) -> list[float]:
    """Max-min fair allocation factors for scalar *demands* under *capacity*.

    Returns, per demand, the fraction of it that is granted.  Demands of
    zero get factor 1 (they are unconstrained).  Water-filling: demands
    below the fair share are fully satisfied; the rest split the
    remainder equally (capped at their own demand).

    Raises
    ------
    ValueError
        For negative demands or non-positive capacity.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    n = len(demands)
    factors = [1.0] * n
    active = [i for i, d in enumerate(demands) if d > 0]
    for i, d in enumerate(demands):
        if d < 0:
            raise ValueError(f"demand {i} is negative: {d}")
    total = sum(demands[i] for i in active)
    if total <= capacity:
        return factors
    remaining = capacity
    unsatisfied = sorted(active, key=lambda i: demands[i])
    while unsatisfied:
        share = remaining / len(unsatisfied)
        fully = [i for i in unsatisfied if demands[i] <= share + 1e-12]
        if not fully:
            for i in unsatisfied:
                factors[i] = share / demands[i]
            break
        for i in fully:
            remaining -= demands[i]
        satisfied = set(fully)
        unsatisfied = [i for i in unsatisfied if i not in satisfied]
    return factors


def interference_efficiency(active_in_vm: int, active_on_host: int) -> float:
    """Efficiency factor for an instance given co-runner counts.

    Parameters
    ----------
    active_in_vm:
        Number of active (non-idle) instances in the instance's own VM,
        including itself.
    active_on_host:
        Number of active instances on the whole host, including itself.

    Returns
    -------
    float
        ``1 / (1 + κ_vm·(n_vm−1) + κ_host·(n_host−n_vm))``.
    """
    if active_in_vm < 1 or active_on_host < active_in_vm:
        raise ValueError("co-runner counts are inconsistent")
    same_vm = active_in_vm - 1
    other_vms = active_on_host - active_in_vm
    return 1.0 / (1.0 + KAPPA_VM * same_vm + KAPPA_HOST * other_vms)


def _cpu_factors(active: list[InstanceDemand]) -> dict[int, float]:
    """Hierarchical max-min CPU shares: instances→vCPUs, then VMs→cores."""
    by_vm: dict[str, list[InstanceDemand]] = {}
    for d in active:
        by_vm.setdefault(d.vm.name, []).append(d)

    # Level 1: within each VM against its vCPUs.
    vm_level: dict[str, list[float]] = {}
    vm_capped_total: dict[str, float] = {}
    for vm_name, members in by_vm.items():
        vm = members[0].vm
        factors = max_min_factors([m.demand.cpu for m in members], float(vm.vcpus))
        vm_level[vm_name] = factors
        vm_capped_total[vm_name] = sum(
            m.demand.cpu * f for m, f in zip(members, factors)
        )

    # Level 2: VM aggregates against host cores.
    by_host: dict[str, list[str]] = {}
    host_obj: dict[str, PhysicalHost] = {}
    for vm_name, members in by_vm.items():
        host = _require_host(members[0].vm)
        by_host.setdefault(host.name, []).append(vm_name)
        host_obj[host.name] = host
    vm_host_factor: dict[str, float] = {}
    for host_name, vm_names in by_host.items():
        cores = host_obj[host_name].capacity.reference_cores
        factors = max_min_factors([vm_capped_total[v] for v in vm_names], cores)
        for v, f in zip(vm_names, factors):
            vm_host_factor[v] = f

    out: dict[int, float] = {}
    for vm_name, members in by_vm.items():
        for m, f in zip(members, vm_level[vm_name]):
            out[m.key] = f * vm_host_factor[vm_name]
    return out


def _disk_factors(active: list[InstanceDemand]) -> dict[int, float]:
    """Host-level max-min disk-bandwidth shares."""
    by_host: dict[str, list[InstanceDemand]] = {}
    host_obj: dict[str, PhysicalHost] = {}
    for d in active:
        host = _require_host(d.vm)
        by_host.setdefault(host.name, []).append(d)
        host_obj[host.name] = host
    out: dict[int, float] = {}
    for host_name, members in by_host.items():
        cap = host_obj[host_name].capacity.disk_blocks_per_s
        factors = max_min_factors([m.demand.disk for m in members], cap)
        for m, f in zip(members, factors):
            out[m.key] = f
    return out


def _net_factors(active: list[InstanceDemand]) -> dict[int, float]:
    """Per-NIC per-direction max-min shares, mirrored for remote endpoints.

    Each instance contributes up to four flows: local-in, local-out, and
    (for cross-host phases) remote-in (= local-out mirrored) and
    remote-out.  The instance's network factor is the minimum over its
    flows' factors — the slower end governs.
    """
    flows: dict[tuple[str, str], list[tuple[int, float]]] = {}
    host_obj: dict[str, PhysicalHost] = {}

    def add_flow(host: PhysicalHost, direction: str, key: int, rate: float) -> None:
        if rate <= 0:
            return
        host_obj[host.name] = host
        flows.setdefault((host.name, direction), []).append((key, rate))

    for d in active:
        host = _require_host(d.vm)
        add_flow(host, "in", d.key, d.demand.net_in)
        add_flow(host, "out", d.key, d.demand.net_out)
        if d.remote_host is not None and d.remote_host.name != host.name:
            add_flow(d.remote_host, "in", d.key, d.demand.net_out)
            add_flow(d.remote_host, "out", d.key, d.demand.net_in)

    out: dict[int, float] = {}
    for (host_name, _direction), members in flows.items():
        cap = host_obj[host_name].capacity.net_bytes_per_s
        factors = max_min_factors([rate for _, rate in members], cap)
        for (key, _rate), f in zip(members, factors):
            out[key] = min(out.get(key, 1.0), f)
    return out


def allocate(demands: list[InstanceDemand]) -> AllocationReport:
    """Resolve one tick's demands into per-instance grants.

    Instances demanding nothing (idle/think phases) receive the idle grant
    with fraction 1 and do not count as co-runners for interference.
    """
    report = AllocationReport()
    if not demands:
        return report

    active = [d for d in demands if not d.demand.is_idle()]
    cpu_f = _cpu_factors(active)
    disk_f = _disk_factors(active)
    net_f = _net_factors(active)

    active_in_vm: dict[str, int] = {}
    active_on_host: dict[str, int] = {}
    for d in active:
        active_in_vm[d.vm.name] = active_in_vm.get(d.vm.name, 0) + 1
        hname = _require_host(d.vm).name
        active_on_host[hname] = active_on_host.get(hname, 0) + 1

    for d in demands:
        if d.demand.is_idle():
            report.fractions[d.key] = 1.0
            report.grants[d.key] = ResourceGrant.idle()
            continue
        host = _require_host(d.vm)
        factors = [1.0]
        if d.demand.cpu > 0:
            factors.append(cpu_f[d.key])
            report.cpu_factor[d.key] = cpu_f[d.key]
        if d.demand.disk > 0:
            factors.append(disk_f[d.key])
            report.disk_factor[d.key] = disk_f[d.key]
        if d.demand.net_in > 0 or d.demand.net_out > 0:
            factors.append(net_f.get(d.key, 1.0))
            report.net_factor[d.key] = net_f.get(d.key, 1.0)
        bottleneck = min(factors)
        eff = interference_efficiency(active_in_vm[d.vm.name], active_on_host[host.name])
        fraction = bottleneck * eff
        report.fractions[d.key] = fraction
        report.grants[d.key] = ResourceGrant.from_demand(d.demand, fraction)
    return report


def _require_host(vm: VirtualMachine) -> PhysicalHost:
    if vm.host is None:
        raise ValueError(f"VM {vm.name!r} is not attached to a host")
    return vm.host
