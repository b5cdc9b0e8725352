"""Tests for kernel-style node counters."""

import math

import pytest

from repro.vm.counters import LoadAverages, NodeCounters


class TestLoadAverages:
    def test_converges_to_runnable(self):
        load = LoadAverages()
        for _ in range(3600):
            load.update(runnable=2.0, dt=1.0)
        assert load.one == pytest.approx(2.0, abs=1e-6)
        assert load.five == pytest.approx(2.0, abs=1e-3)
        assert load.fifteen == pytest.approx(2.0, abs=0.05)

    def test_one_minute_reacts_fastest(self):
        load = LoadAverages()
        for _ in range(60):
            load.update(runnable=1.0, dt=1.0)
        assert load.one > load.five > load.fifteen > 0.0

    def test_exponential_form_single_step(self):
        load = LoadAverages()
        load.update(runnable=1.0, dt=60.0)
        assert load.one == pytest.approx(1.0 - math.exp(-1.0))

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError):
            LoadAverages().update(1.0, 0.0)

    @pytest.mark.parametrize("dt", [0.5, 1.0, 5.0, 60.0])
    def test_matches_the_damping_formula_exactly(self, dt):
        load = LoadAverages()
        expected = {"one": 0.0, "five": 0.0, "fifteen": 0.0}
        for step in range(200):
            runnable = (step % 7) * 0.3
            load.update(runnable, dt)
            for attr, tau in (("one", 60.0), ("five", 300.0), ("fifteen", 900.0)):
                prev = expected[attr]
                expected[attr] = prev + (runnable - prev) * (1.0 - math.exp(-dt / tau))
        assert (load.one, load.five, load.fifteen) == (expected["one"], expected["five"], expected["fifteen"])


class TestNodeCounters:
    def test_cpu_accounting_accumulates(self):
        c = NodeCounters()
        c.account_cpu(user_s=1.0, system_s=0.5, wio_s=0.1, nice_s=0.0, idle_s=0.4)
        c.account_cpu(user_s=1.0, system_s=0.5, wio_s=0.1, nice_s=0.0, idle_s=0.4)
        assert c.cpu_user_s == 2.0
        assert c.total_cpu_s() == pytest.approx(4.0)

    def test_cpu_accounting_rejects_negative(self):
        with pytest.raises(ValueError):
            NodeCounters().account_cpu(user_s=-1.0, system_s=0, wio_s=0, nice_s=0, idle_s=0)

    @pytest.mark.parametrize("name", ["user_s", "system_s", "wio_s", "nice_s", "idle_s"])
    def test_cpu_accounting_names_the_negative_component(self, name):
        c = NodeCounters()
        split = dict(user_s=0.2, system_s=0.1, wio_s=0.0, nice_s=0.0, idle_s=0.7)
        split[name] = -0.25
        with pytest.raises(ValueError, match=f"^negative CPU accounting: {name}=-0.25$"):
            c.account_cpu(**split)
        assert c.total_cpu_s() == 0.0

    def test_io_and_swap_accounting(self):
        c = NodeCounters()
        c.account_io(blocks_in=100.0, blocks_out=50.0)
        c.account_swap(kb_in=10.0, kb_out=5.0)
        assert c.io_blocks_in == 100.0
        assert c.swap_kb_out == 5.0
        with pytest.raises(ValueError):
            c.account_io(-1.0, 0.0)
        with pytest.raises(ValueError):
            c.account_swap(-1.0, 0.0)

    def test_net_accounting_with_packets(self):
        c = NodeCounters()
        c.account_net(bytes_in=15000.0, bytes_out=3000.0)
        assert c.net_bytes_in == 15000.0
        assert c.net_pkts_in == pytest.approx(10.0)
        assert c.net_pkts_out == pytest.approx(2.0)
        with pytest.raises(ValueError):
            c.account_net(-1.0, 0.0)

    def test_advance_time(self):
        c = NodeCounters()
        c.advance_time(dt=5.0, runnable=1.5)
        assert c.uptime_s == 5.0
        assert c.load.one > 0.0
        with pytest.raises(ValueError):
            c.advance_time(0.0, 1.0)

    def test_copy_is_independent(self):
        c = NodeCounters()
        c.account_io(10.0, 0.0)
        d = c.copy()
        c.account_io(10.0, 0.0)
        assert d.io_blocks_in == 10.0
        assert c.io_blocks_in == 20.0

    def test_counters_monotonic_under_accounting(self):
        """Cumulative fields never decrease — monitors rely on this."""
        c = NodeCounters()
        history = []
        for i in range(10):
            c.account_cpu(0.5, 0.1, 0.0, 0.0, 0.4)
            c.account_io(float(i), float(i) / 2)
            c.account_swap(1.0, 1.0)
            c.account_net(100.0, 100.0)
            history.append(
                (c.cpu_user_s, c.io_blocks_in, c.swap_kb_in, c.net_bytes_in)
            )
        for a, b in zip(history, history[1:]):
            assert all(x2 >= x1 for x1, x2 in zip(a, b))
