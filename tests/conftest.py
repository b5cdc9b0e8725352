"""Shared fixtures.

The trained classifier is expensive (~2 s: five profiled training runs),
so it is built once per session, and so is the ``repro.qa`` analysis of
the live source tree (~6 s).  Tests that need short profiled runs use
the fast workload helpers below instead of the full paper durations.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro.experiments.training import TrainingOutcome, build_trained_classifier
from repro.qa import Analyzer, Baseline, ProjectIndex, all_rules
from repro.qa.cache import ResultCache, rules_signature
from repro.qa.engine import Report
from repro.sim.execution import RunResult, profiled_run
from repro.vm.resources import ResourceDemand
from repro.workloads.base import Workload, constant_workload


@pytest.fixture(scope="session")
def training_outcome() -> TrainingOutcome:
    """The paper-configured classifier, trained once per test session."""
    return build_trained_classifier(seed=0)


@pytest.fixture(scope="session")
def classifier(training_outcome):
    return training_outcome.classifier


class LiveQA(NamedTuple):
    """One ``repro.qa`` analysis of ``src/`` under the committed baseline."""

    baseline: Baseline
    #: Every registered rule's findings: new ones in ``report.findings``,
    #: baselined ones in ``report.grandfathered``.
    report: Report
    #: The project index the index rules ran over (lock guards, call graph).
    index: ProjectIndex


@pytest.fixture(scope="session")
def live_qa(tmp_path_factory) -> LiveQA:
    """The live-tree ``repro.qa`` analysis, run once per session.

    Shared by the lint, concurrency and numerics live-tree tests, each
    of which filters the findings it owns.  The index is rebuilt from
    the per-file facts the run left in a throwaway result cache, so no
    file is parsed twice.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    rules = list(all_rules())
    baseline = Baseline.load(src.parent / "qa-baseline.txt")
    cache = ResultCache(tmp_path_factory.mktemp("qa") / "cache.json", rules_signature(rules))
    analyzer = Analyzer(rules, baseline=baseline, cache=cache)
    report = analyzer.run([src])
    return LiveQA(baseline=baseline, report=report, index=analyzer.build_index([src]))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def short_cpu_workload(duration: float = 60.0) -> Workload:
    """A fast CPU-bound job for engine tests."""
    return constant_workload(
        "mini-cpu",
        ResourceDemand(cpu_user=0.9, cpu_system=0.05, mem_mb=20.0),
        duration,
        expected_class="CPU",
    )


def short_io_workload(duration: float = 60.0) -> Workload:
    """A fast I/O-bound job for engine tests."""
    return constant_workload(
        "mini-io",
        ResourceDemand(cpu_user=0.1, cpu_system=0.1, io_bi=500.0, io_bo=500.0, mem_mb=20.0),
        duration,
        expected_class="IO",
    )


def short_net_workload(duration: float = 60.0, server_vm: str = "VM4") -> Workload:
    """A fast network-bound job for engine tests."""
    return constant_workload(
        "mini-net",
        ResourceDemand(cpu_system=0.2, net_out=40_000_000.0, net_in=1_000_000.0, mem_mb=20.0),
        duration,
        expected_class="NET",
        remote_vm=server_vm,
    )


@pytest.fixture(scope="session")
def short_cpu_run() -> RunResult:
    """A profiled 60 s CPU run (shared, read-only)."""
    return profiled_run(short_cpu_workload(), seed=3)


@pytest.fixture(scope="session")
def short_io_run() -> RunResult:
    """A profiled 60 s IO run (shared, read-only)."""
    return profiled_run(short_io_workload(), seed=4)
