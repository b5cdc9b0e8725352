"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, and
that each workload prints exactly the metrics BENCHMARK.json names.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib
import json
import threading
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layers import LAYERS, LayerTracer, SpanLedger
from perfbench.workloads import WORKLOADS

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


#: Wrapped only by schedule_sweep, to probe the machine's speed per schedule.
SWEEP_PROBE = ("repro.scheduler.throughput", None, "evaluate_schedule")


def _entry_points() -> dict[tuple, object]:
    """The raw attribute behind every wrapped entry point, by location."""
    out = {}
    for points in [*LAYERS.values(), (SWEEP_PROBE,)]:
        for module_name, owner_name, attr in points:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            out[(module_name, owner_name, attr)] = vars(owner).get(attr)
    return out


def test_self_time_subtracts_nested_children():
    ledger = SpanLedger()
    ledger.enter("outer", 0.0)
    ledger.enter("mid", 1.0)
    ledger.enter("inner", 2.0)
    ledger.exit(3.5)  # inner: 1.5
    ledger.enter("inner", 4.0)
    ledger.exit(4.5)  # inner: 0.5
    ledger.exit(6.0)  # mid: 5.0 - 2.0 = 3.0
    ledger.exit(10.0)  # outer: 10.0 - 5.0 = 5.0
    assert dict(ledger.calls) == {"outer": 1, "mid": 1, "inner": 2}
    assert ledger.self_s["inner"] == pytest.approx(2.0)
    assert ledger.self_s["mid"] == pytest.approx(3.0)
    assert ledger.self_s["outer"] == pytest.approx(5.0)
    assert ledger.open_spans() == 0


def test_self_time_of_a_recursive_layer_counts_each_level_once():
    ledger = SpanLedger()
    ledger.enter("a", 0.0)
    ledger.enter("a", 1.0)
    ledger.exit(2.0)
    ledger.exit(4.0)
    assert ledger.calls["a"] == 2
    assert ledger.self_s["a"] == pytest.approx(4.0)


def test_spans_on_another_thread_are_not_children():
    ledger = SpanLedger()
    ledger.enter("submit", 0.0)
    inside = threading.Event()

    def worker() -> None:
        # Overlaps the submitting thread's open span in time.
        ledger.enter("batch", 1.0)
        ledger.enter("vote", 2.0)
        ledger.exit(3.0)
        ledger.exit(5.0)
        inside.set()

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive() and inside.is_set()
    ledger.exit(6.0)
    assert ledger.self_s["submit"] == pytest.approx(6.0)
    assert ledger.self_s["batch"] == pytest.approx(3.0)
    assert ledger.self_s["vote"] == pytest.approx(1.0)


def test_tracer_restores_every_entry_point_even_after_an_error():
    before = _entry_points()
    tracer = LayerTracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert _entry_points() != before
            1 / 0
    assert _entry_points() == before


def test_tracer_refuses_a_missing_entry_point_and_leaves_nothing_behind():
    before = _entry_points()
    broken = dict(LAYERS, bogus=(("repro.sim.engine", "SimulationEngine", "no_such_method"),))
    with pytest.raises(AttributeError):
        LayerTracer(broken).install()
    assert _entry_points() == before


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so one run takes seconds, not minutes.

    schedule_sweep keeps the paper horizon, because its output check
    (SPN > 15% above the weighted average) holds only at that horizon.
    """
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(WORKLOADS["fleet_profile"], "RUNS", 3)
    monkeypatch.setattr(WORKLOADS["fleet_profile"], "BASE_DURATION_S", 60.0)
    for name in ("ingest_replay", "serve_windows"):
        monkeypatch.setattr(WORKLOADS[name], "CORPUS_RUNS", 3)
        monkeypatch.setattr(WORKLOADS[name], "CORPUS_BASE_DURATION_S", 120.0)
    monkeypatch.setattr(WORKLOADS["ingest_replay"], "NODES", 16)


def _run(capsys, workload: str, trace: int) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_exactly_the_declared_metrics(tiny, capsys, workload):
    before = _entry_points()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = _run(capsys, workload, trace)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())
        assert _entry_points() == before


def test_a_failed_output_check_exits_nonzero(tiny, capsys, monkeypatch):
    from perfbench import workloads

    monkeypatch.setattr(workloads, "FLEET_ROTATION", tuple(reversed(workloads.FLEET_ROTATION)))
    code, result = _run(capsys, "fleet_profile", 0)
    assert code == 1
    assert result["correct"] is False
