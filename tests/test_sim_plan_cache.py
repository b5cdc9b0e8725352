"""The simulator's fast tick reproduces the from-scratch tick exactly.

Three pieces make a tick cheap without changing any simulated value:
cached tick plans, daemon noise read in blocks, and gmond noise drawn in
one call.  Each is checked here against the computation it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_module
import repro.sim.execution as execution
from repro.experiments.fleet import profile_fleet
from repro.monitoring.gmond import CPU_NOISE_STD, RATE_NOISE_STD, Gmond
from repro.monitoring.multicast import MulticastChannel
from repro.scheduler.schedules import enumerate_schedules
from repro.scheduler.throughput import evaluate_schedule
from repro.sim.engine import BlockReader, DaemonNoiseModel, SimulationEngine
from repro.sim.execution import profiled_run
from repro.metrics.catalog import NUM_METRICS, metric_index
from repro.vm.cluster import paper_testbed
from repro.vm.machine import VirtualMachine
from repro.vm.resources import ResourceDemand
from repro.workloads import catalog
from repro.workloads.base import WorkloadInstance, constant_workload, scaled_workload


# ----------------------------------------------------------------------
# block-read daemon noise
# ----------------------------------------------------------------------
_draw = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(
        st.just("uniform"),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(0.0, 1e6, allow_nan=False),
    ),
)


@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 9),
    draws=st.lists(_draw, min_size=1, max_size=60),
)
@settings(max_examples=200, deadline=None)
def test_block_reader_reproduces_generator_draws(seed, block, draws):
    rng = np.random.default_rng(seed)
    reader = BlockReader(np.random.default_rng(seed), block=block)
    for draw in draws:
        if draw[0] == "random":
            expected, got = rng.random(), reader.random()
        else:
            _, low, width = draw
            expected, got = rng.uniform(low, low + width), reader.uniform(low, low + width)
        assert float(got).hex() == float(expected).hex()


def test_daemon_noise_is_the_same_from_a_generator_or_a_block_reader():
    model = DaemonNoiseModel()
    rng = np.random.default_rng(11)
    reader = BlockReader(np.random.default_rng(11), block=7)
    for _ in range(500):
        # The engine interleaves one proc_run draw after each sample.
        assert model.sample(reader) == model.sample(rng)
        assert reader.random() == rng.random()


def test_block_reader_rejects_an_empty_block():
    with pytest.raises(ValueError):
        BlockReader(np.random.default_rng(0), block=0)


# ----------------------------------------------------------------------
# one gmond noise draw
# ----------------------------------------------------------------------
def _scalar_noise(values: np.ndarray, rng: np.random.Generator) -> None:
    """Per-metric scalar noise, one ``normal`` call per metric."""
    for name in ("bytes_in", "bytes_out", "pkts_in", "pkts_out", "io_bi", "io_bo", "swap_in", "swap_out"):
        i = metric_index(name)
        values[i] = max(values[i] * (1.0 + rng.normal(0.0, RATE_NOISE_STD)), 0.0)
    for name in ("cpu_user", "cpu_system", "cpu_idle", "cpu_nice", "cpu_wio"):
        i = metric_index(name)
        values[i] = float(np.clip(values[i] + rng.normal(0.0, CPU_NOISE_STD), 0.0, 100.0))


@pytest.mark.parametrize("seed", [0, 1, 7, 1234])
def test_gmond_noise_matches_the_per_metric_scalar_loop(seed):
    source = np.random.default_rng(seed + 100)
    gmond = Gmond(VirtualMachine("v"), MulticastChannel(), rng=np.random.default_rng(seed))
    reference = np.random.default_rng(seed)
    for _ in range(50):
        values = source.uniform(0.0, 5000.0, NUM_METRICS)
        # CPU percentages at and near both clip bounds.
        for name, v in (("cpu_user", 0.0), ("cpu_system", 0.1), ("cpu_idle", 100.0), ("cpu_nice", 99.9)):
            values[metric_index(name)] = v
        values[metric_index("swap_in")] = 0.0
        expected = values.copy()
        _scalar_noise(expected, reference)
        gmond._apply_noise(values)
        assert values.tobytes() == expected.tobytes()
    assert gmond.rng.bit_generator.state == reference.bit_generator.state


# ----------------------------------------------------------------------
# cached tick plans
# ----------------------------------------------------------------------
class CheckedEngine(SimulationEngine):
    """An engine whose tick listener recomputes each tick's plan from scratch.

    ``step`` notes the tick's active set before it runs; the listener
    then asserts that the plan the tick used, cached or not, equals a
    fresh plan for that active set.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ticks = 0
        self.paging_ticks = 0
        self.plans: dict[int, object] = {}
        self.add_tick_listener(self._check)

    def step(self) -> None:
        self._inputs = self.tick_index, tuple(
            (key, inst.current_phase(), inst.vm_name)
            for key, inst in self._instances.items()
            if inst.has_started(self.now)
        )
        super().step()

    def _check(self, now: float) -> None:
        tick, entries = self._inputs
        assert self.last_plan == self.compute_plan(entries, tick)
        self.ticks += 1
        self.paging_ticks += self.last_plan.paging
        self.plans[id(self.last_plan)] = self.last_plan

    @property
    def paging(self) -> bool:
        """Some tick paged, and paging plans were reused across ticks."""
        paging_plans = sum(plan.paging for plan in self.plans.values())
        return 0 < paging_plans < self.paging_ticks / 2


@pytest.fixture()
def checkers(monkeypatch):
    """Every engine that `profiled_run` and `run_throughput_schedule` build is a CheckedEngine."""
    made: list[CheckedEngine] = []

    class Recorded(CheckedEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(execution, "SimulationEngine", Recorded)
    return made


def _assert_cached(engine: CheckedEngine) -> None:
    assert engine.ticks > 0
    assert len(engine.plans) < engine.ticks


def test_plan_cache_on_a_fleet_run(checkers):
    profile_fleet(3, seed=5, base_duration_s=60.0)
    assert len(checkers) == 3
    for checker in checkers:
        _assert_cached(checker)
        assert len(checker.plans) == 1


def test_plan_cache_on_a_fig4_schedule(checkers):
    spn = enumerate_schedules()[-1]
    evaluate_schedule(spn, horizon=400.0, seed=1)
    (checker,) = checkers
    _assert_cached(checker)
    # NetPIPE streams to the server VM, which is in the plan too.
    assert any(plan.vms[-1].net_in for plan in checker.plans.values())


def test_plan_cache_on_specseis96_paging_in_a_32mb_vm(checkers):
    workload = scaled_workload(catalog.entry("specseis96-B").build(), 600.0)
    profiled_run(workload, vm_mem_mb=32.0, seed=3)
    (checker,) = checkers
    _assert_cached(checker)
    assert checker.paging


def test_plan_cache_on_postmark_over_nfs(checkers):
    profiled_run(scaled_workload(catalog.entry("postmark-nfs").build(), 300.0), seed=4)
    (checker,) = checkers
    _assert_cached(checker)


def _testbed_engine():
    engine = CheckedEngine(paper_testbed(vm1_mem_mb=32.0), seed=9)
    keys = [
        engine.add_instance(WorkloadInstance(catalog.entry(k).build(), vm_name=vm, loop=True))
        for k, vm in (("specseis96-B", "VM1"), ("postmark", "VM2"), ("netpipe", "VM3"), ("ch3d", "VM2"))
    ]
    return engine, keys


def test_plan_cache_across_a_migration():
    engine, keys = _testbed_engine()
    engine.run(until=120.0)
    engine.migrate(keys[1], "VM3", downtime_s=4.0)
    engine.run(until=240.0)
    engine.migrate(keys[0], "VM2")
    engine.run(until=400.0)
    _assert_cached(engine)
    assert engine.paging
    assert engine.instance(keys[1]).vm_name == "VM3"


def test_plan_cache_across_a_kill():
    engine, keys = _testbed_engine()
    engine.run(until=150.0)
    engine.kill_instance(keys[3])
    engine.run(until=300.0)
    _assert_cached(engine)
    assert keys[3] not in [key for key, _, _ in engine.last_plan.entries]


def test_constant_demand_profiled_run_allocates_at_most_twice(monkeypatch):
    calls = []
    allocate = engine_module.allocate

    def counting(demands):
        calls.append(len(demands))
        return allocate(demands)

    monkeypatch.setattr(engine_module, "allocate", counting)
    workload = constant_workload("steady", ResourceDemand(cpu_user=0.9, cpu_system=0.05, mem_mb=20.0), 480.0)
    run = profiled_run(workload, seed=2)
    assert run.num_samples >= 90
    assert 1 <= len(calls) <= 2


def test_a_hardware_change_replans():
    engine = CheckedEngine(paper_testbed(), seed=1)
    steady = constant_workload("steady", ResourceDemand(cpu_user=0.5, mem_mb=60.0), 10_000.0)
    engine.add_instance(WorkloadInstance(steady, vm_name="VM1"))
    engine.run(until=50.0)
    assert not engine.last_plan.paging
    engine.cluster.vm("VM1").mem_mb = 32.0
    engine.run(until=100.0)
    assert engine.last_plan.paging
    assert len(engine.plans) >= 3  # before, and both burst levels after


def test_server_vm_counts_every_stream_it_serves():
    engine = CheckedEngine(paper_testbed(), seed=2)
    for vm in ("VM1", "VM2", "VM3"):
        engine.add_instance(WorkloadInstance(catalog.entry("netpipe").build(), vm_name=vm, loop=True))
    engine.run(until=200.0)
    clients = [engine.cluster.vm(vm).counters for vm in ("VM1", "VM2", "VM3")]
    server = engine.cluster.vm("VM4").counters
    assert len(engine.last_plan.vms[-1].net_in) == 3
    assert server.net_bytes_in == pytest.approx(sum(c.net_bytes_out for c in clients), rel=0.01)
    assert server.net_bytes_out == pytest.approx(sum(c.net_bytes_in for c in clients), rel=0.01)
