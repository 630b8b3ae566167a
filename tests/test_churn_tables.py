"""The churn adapters read the problem's link table once per call.

``sample_sink_churn`` and ``delta_from_failure_schedule`` group the delivery
specs and the demands by sink once (:class:`repro.incremental.delta.SinkRows`)
and attach every leaving sink from its own rows.  They used to rebuild the
whole table for each leaving sink, and to rescan every link for each hit
reflector.  The deltas must not change: the digests below were taken from
the adapters as they were before the grouping.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro.core.problem import OverlayDesignProblem
from repro.incremental import (
    SinkChurnConfig,
    delta_to_dict,
    flash_crowd_delta,
    outage_delta,
    sample_sink_churn,
)
from repro.incremental.churn import delta_from_failure_schedule
from repro.simulation.failures import FailureEvent, FailureSchedule
from repro.workloads import InternetScaleConfig, generate_internet_scale_problem

EXPECTED = {
    "failure-schedule-0": "c318b11dea86bfb1",
    "failure-schedule-1": "75b3c8926e0e76c9",
    "flash-crowd-0": "392a0852d791e780",
    "flash-crowd-1": "326d2c3b30fe8eda",
    "isp-outage-0": "336e11347cbcff28",
    "isp-outage-1": "3bb42e7ca7660884",
    "regional-outage-0": "34e5220801ab65bb",
    "regional-outage-1": "bf8dc441d87c7f0e",
    "sink-churn-0": "95584784403844a9",
    "sink-churn-1": "a876907b218e1260",
}


def _digest(delta) -> str:
    text = json.dumps(delta_to_dict(delta), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _problem(seed: int) -> OverlayDesignProblem:
    return generate_internet_scale_problem(InternetScaleConfig(num_sinks=300), rng=seed)[0]


def _schedule(problem: OverlayDesignProblem) -> FailureSchedule:
    """Congestion on a sink and a reflector, two sinks and two reflectors down."""
    sinks, reflectors = problem.sinks, problem.reflectors
    return FailureSchedule(
        [
            FailureEvent("link_congestion", sinks[3], 0, 10, 0.3),
            FailureEvent("link_congestion", reflectors[1], 0, 10, 0.2),
            FailureEvent("link_congestion", sinks[3], 5, 10, 0.1),
            FailureEvent("node_outage", sinks[7], 0, 10, 1.0),
            FailureEvent("node_outage", sinks[11], 0, 10, 1.0),
            FailureEvent("reflector_crash", reflectors[2], 0, 10, 1.0),
            FailureEvent("node_outage", reflectors[4], 0, 10, 1.0),
        ]
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_adapter_deltas_are_unchanged(seed):
    problem = _problem(seed)
    deltas = {
        "sink-churn": sample_sink_churn(problem, SinkChurnConfig(fraction=0.05), seed),
        "flash-crowd": flash_crowd_delta(problem, seed),
        "regional-outage": outage_delta(problem, seed, kind="regional"),
        "isp-outage": outage_delta(problem, seed, kind="isp"),
        "failure-schedule": delta_from_failure_schedule(problem, _schedule(problem)),
    }
    for name, delta in deltas.items():
        assert _digest(delta) == EXPECTED[f"{name}-{seed}"], name


@pytest.fixture
def table_scans(monkeypatch):
    """Full link-table reads per problem object."""
    scans: Counter = Counter()
    for method in ("delivery_link_data", "delivery_links"):
        read = getattr(OverlayDesignProblem, method)

        def counting(problem, read=read):
            scans[id(problem)] += 1
            return read(problem)

        monkeypatch.setattr(OverlayDesignProblem, method, counting)
    return scans


def test_sink_churn_reads_the_table_once_however_many_sinks_leave(table_scans):
    problem = _problem(0)
    counts = []
    for fraction in (0.02, 0.3):
        table_scans.clear()
        delta = sample_sink_churn(problem, SinkChurnConfig(fraction=fraction, metros=4), 3)
        counts.append((len(delta.sinks_removed), table_scans[id(problem)]))
    (few, few_scans), (many, many_scans) = counts
    assert many >= 10 * max(few, 1)
    # One grouping pass; the feasibility guard's apply_delta reads only the
    # links the delta names.
    assert few_scans == many_scans == 1


def test_failure_schedules_read_the_table_once(table_scans):
    problem = _problem(1)
    delta = delta_from_failure_schedule(problem, _schedule(problem))
    assert len(delta.sinks_removed) == 2
    assert table_scans[id(problem)] == 1
