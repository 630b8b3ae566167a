"""Experiment R3 -- streaming million-demand reliability audit.

Scenario ``r3`` designs an internet-scale instance, then audits it with the
memory-bounded Monte-Carlo fold along a trial ladder, asserting the memory
contract (peak working set flat in the trial count and under the configured
budget) and a diurnal trace replay producing per-window loss and rebuffering
metrics.  The fold's exactness is pinned by the tier-1 oracle differential
(``tests/test_montecarlo.py``).  Smoke runs 50k sinks; the full (nightly)
leg runs 1M sinks x 1k trials.
"""

from __future__ import annotations

from conftest import run_and_record


def test_r3_streaming_audit():
    record = run_and_record("r3")
    assert record.rows, "r3 produced no ladder rungs"
    budgets = {row["rss_budget"] for row in record.rows}
    assert all(row["peak_rss_bytes"] <= max(budgets) for row in record.rows)
    assert all(row["demands"] >= row["sinks"] for row in record.rows)
