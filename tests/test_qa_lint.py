"""Tier-1 gate: the repro source tree must be clean under repro-qa.

Runs the full rule set over ``src/`` with the committed baseline and
fails on any non-grandfathered finding — warnings included, matching
``python -m repro.qa check src/ --strict`` in CI.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.qa import Analyzer, Baseline

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def baseline():
    return Baseline.load(REPO / "qa-baseline.txt")


@pytest.fixture(scope="module")
def report(baseline):
    """One full analysis of ``src/`` under the committed baseline, computed
    once per module and shared by both tests."""
    return Analyzer(baseline=baseline).run([REPO / "src"])


def test_source_tree_is_qa_clean(report):
    assert report.num_files > 50, "QA run should cover the whole src tree"
    rendered = "\n".join(f.render() for f in report.findings)
    assert not report.findings, f"repro-qa findings in src/:\n{rendered}"


def test_baseline_entries_all_still_fire(baseline, report):
    """Every grandfathered fingerprint must match a live finding.

    A baseline entry whose finding was since fixed is stale and must be
    deleted, otherwise it could mask a future regression at the same
    location.
    """
    live = {f.fingerprint() for f in report.grandfathered}
    stale = baseline.fingerprints - live
    assert not stale, f"stale baseline entries (fixed but not removed): {sorted(stale)}"
