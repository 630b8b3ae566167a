"""The churn adapters read only the rows a delta names.

``sample_sink_churn`` and ``delta_from_failure_schedule`` attach every
joining template and leaving sink from its own rows
(:func:`repro.incremental.delta.sink_attachment`: the sink's links in
``_sink_reflectors`` order, and one demand lookup per stream), so sink churn
and flash crowds read no whole link table; a failure schedule groups the
links by reflector, in one table read, only when an event hits a reflector.
They used to rebuild the whole table for each leaving sink, and later to
group every link by sink once per call.  The deltas must not change: the
digests below were taken from the adapters as they were before either
change.  A joining sink's loss jitter is drawn over its template's links in
table order, which is not name order, so that order is pinned here too.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro.core.problem import OverlayDesignProblem
from repro.core.serialization import problem_from_dict, problem_to_dict
from repro.incremental import (
    SinkChurnConfig,
    apply_delta,
    delta_to_dict,
    flash_crowd_delta,
    outage_delta,
    sample_sink_churn,
)
from repro.incremental.churn import delta_from_failure_schedule
from repro.scale.partition import build_partition, extract_shard_problem
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


def test_sink_churn_reads_no_link_table_however_many_sinks_leave(table_scans):
    problem = _problem(0)
    counts = []
    for fraction in (0.02, 0.3):
        table_scans.clear()
        delta = sample_sink_churn(problem, SinkChurnConfig(fraction=fraction, metros=4), 3)
        counts.append((len(delta.sinks_removed), len(delta.sinks_added), table_scans[id(problem)]))
    (few, _, few_scans), (many, joins, many_scans) = counts
    assert many >= 10 * max(few, 1) and joins >= 10
    # Every attachment reads its own sink's rows; the feasibility guard's
    # apply_delta reads only the links the delta names.
    assert few_scans == many_scans == 0


def test_failure_schedules_read_the_table_once(table_scans):
    problem = _problem(1)
    delta = delta_from_failure_schedule(problem, _schedule(problem))
    assert len(delta.sinks_removed) == 2
    assert table_scans[id(problem)] == 1


def test_a_failure_schedule_with_no_reflector_target_reads_no_table(table_scans):
    problem = _problem(1)
    sinks = problem.sinks
    schedule = FailureSchedule(
        [
            FailureEvent("link_congestion", sinks[3], 0, 10, 0.3),
            FailureEvent("link_congestion", sinks[5], 5, 10, 0.1),
            FailureEvent("node_outage", sinks[7], 0, 10, 1.0),
        ]
    )
    delta = delta_from_failure_schedule(problem, schedule)
    assert len(delta.sinks_removed) == 1 and delta.delivery_changed
    assert {sink for _reflector, sink in delta.delivery_changed} == {sinks[3], sinks[5]}
    assert table_scans[id(problem)] == 0
    # Flash crowds congest hot sinks only.
    table_scans.clear()
    assert not flash_crowd_delta(problem, 4).is_empty
    assert table_scans[id(problem)] == 0


def _link_order(problem: OverlayDesignProblem) -> dict[str, list[str]]:
    """Each sink's reflectors in the order its links appear in ``_delivery_links``."""
    order: dict[str, list[str]] = {}
    for reflector, sink in problem._delivery_links:
        order.setdefault(sink, []).append(reflector)
    return order


def test_each_sinks_reflectors_are_listed_in_link_table_order():
    generated = _problem(0)
    decoded = problem_from_dict(problem_to_dict(generated))
    patched = apply_delta(generated, sample_sink_churn(generated, SinkChurnConfig(0.1), 5))
    shards = [
        extract_shard_problem(generated, shard.sinks, name=shard.shard_id)
        for shard in build_partition(generated, "metro", 4).shards
    ]
    # The generator's link order is not name order, so the order is a real constraint.
    assert sum(links != sorted(links) for links in _link_order(generated).values()) > 100
    for problem in (generated, decoded, patched, *shards):
        assert problem._sink_reflectors == _link_order(problem), problem.name
