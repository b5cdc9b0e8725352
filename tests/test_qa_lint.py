"""Tier-1 gate: the repro source tree must be clean under repro-qa.

Reads the session's one full-rule-set analysis of ``src/`` under the
committed baseline (the ``live_qa`` fixture) and fails on any
non-grandfathered finding — warnings included, matching
``python -m repro.qa check src/ --strict`` in CI.
"""

from __future__ import annotations


def test_source_tree_is_qa_clean(live_qa):
    report = live_qa.report
    assert report.num_files > 50, "QA run should cover the whole src tree"
    rendered = "\n".join(f.render() for f in report.findings)
    assert not report.findings, f"repro-qa findings in src/:\n{rendered}"


def test_baseline_entries_all_still_fire(live_qa):
    """Every grandfathered fingerprint must match a live finding.

    A baseline entry whose finding was since fixed is stale and must be
    deleted, otherwise it could mask a future regression at the same
    location.
    """
    live = {f.fingerprint() for f in live_qa.report.grandfathered}
    stale = live_qa.baseline.fingerprints - live
    assert not stale, f"stale baseline entries (fixed but not removed): {sorted(stale)}"
