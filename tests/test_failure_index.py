"""The failure-event index against the per-link event scan it replaced.

:func:`~repro.simulation.montecarlo.compile_path_table` looks each link's
events up in a :class:`~repro.simulation.failures.LinkEventIndex` and
computes every distinct event tuple's profile once.  The oracle
(``tests/sim_oracle.py``) scans every event for every link.  The two must
agree bit for bit: same rows, same packed hard-outage bytes, same congestion
segments.
"""

from __future__ import annotations

import numpy as np
import pytest
from sim_oracle import link_loss_profile, scanned_profiles

from repro.api import DesignRequest, get_designer
from repro.simulation import FailureEvent, FailureSchedule, compile_path_table
from repro.simulation.failures import KINDS, OUTAGE_KINDS
from repro.simulation.montecarlo import link_profiles
from repro.simulation.scenarios import (
    failure_scenario_names,
    realize_scenario,
    scenario_stream_key,
)
from repro.workloads import (
    AkamaiLikeConfig,
    AsGeoConfig,
    generate_akamai_like_topology,
    generate_as_geo_problem,
)

NUM_PACKETS = 600


def _akamai():
    topology, _registry = generate_akamai_like_topology(AkamaiLikeConfig(), rng=0)
    problem = topology.to_problem()
    node_isp = {r: problem.color(r) for r in problem.reflectors}
    return problem, node_isp


def _as_geo():
    problem, _registry = generate_as_geo_problem(AsGeoConfig(num_sinks=120), rng=3)
    # Home every other sink in its first candidate's carrier, so ISP outages
    # also reach links through their head.
    node_isp = {r: problem.color(r) for r in problem.reflectors}
    for demand in problem.demands[::2]:
        node_isp[demand.sink] = problem.color(problem.reflectors[0])
    return problem, node_isp


@pytest.fixture(scope="module", params=[_akamai, _as_geo], ids=["akamai", "as_geo"])
def instance(request):
    problem, node_isp = request.param()
    solution = get_designer("greedy").design(DesignRequest(problem=problem)).solution
    return problem, solution, node_isp


def _same_profiles(indexed, scanned) -> bool:
    if len(indexed) != len(scanned):
        return False
    for (row, hard, segments), (row_o, hard_o, segments_o) in zip(indexed, scanned):
        if row != row_o or segments != segments_o:
            return False
        if (hard is None) != (hard_o is None):
            return False
        if hard is not None and (hard.dtype != hard_o.dtype or hard.tobytes() != hard_o.tobytes()):
            return False
    return True


@pytest.mark.parametrize("seed", [0, 7])
def test_catalogue_profiles_match_the_event_scan(instance, seed):
    problem, solution, node_isp = instance
    counts = {"profiles": 0, "hard": 0, "segments": 0}
    for name in failure_scenario_names():
        realization = realize_scenario(
            name,
            problem,
            NUM_PACKETS,
            np.random.default_rng([seed, scenario_stream_key(name), 0]),
            node_isp=node_isp,
            solution=solution,
        )
        failures = realization.failures
        table = compile_path_table(problem, solution, failures, NUM_PACKETS, node_isp)
        for links, indexed in (
            (table.first_hop_links, table.first_hop_profiles),
            (table.path_links, table.path_profiles),
        ):
            scanned = scanned_profiles(links, failures, NUM_PACKETS, node_isp)
            assert _same_profiles(indexed, scanned), name
            counts["profiles"] += len(indexed)
            counts["hard"] += sum(hard is not None for _, hard, _ in indexed)
            counts["segments"] += sum(bool(segments) for _, _, segments in indexed)
    # Not vacuous: outages and congestion both reach the tables.
    assert counts["hard"] > 0 and counts["segments"] > 0, counts


@pytest.mark.parametrize("seed", range(6))
def test_random_schedules_match_the_event_scan(seed):
    """Self-links, shared ISPs, unmapped nodes and overlapping windows."""
    rng = np.random.default_rng(seed)
    nodes = [f"n{i}" for i in range(7)]
    isps = ["ispA", "ispB", "ispC"]
    node_isp = {node: (isps[i % 3] if i % 4 else None) for i, node in enumerate(nodes[:-1])}
    schedule = FailureSchedule()
    for _ in range(int(rng.integers(0, 14))):
        kind = KINDS[int(rng.integers(len(KINDS)))]
        target = str(rng.choice(isps)) if kind == "isp_outage" else str(rng.choice(nodes))
        start = int(rng.integers(0, 40))
        end = start + int(rng.integers(0, 30))
        severity = 1.0 if kind in OUTAGE_KINDS else float(rng.uniform(0.05, 0.95))
        schedule.add(FailureEvent(kind, target, start, end, severity))
    index = schedule.link_index(node_isp)
    for tail in nodes:
        for head in nodes:
            indexed = index.loss_profile(index.link_events(tail, head), 50)
            scanned = link_loss_profile(schedule, tail, head, 50, node_isp)
            if scanned is None:
                assert indexed is None
            else:
                assert indexed.tobytes() == scanned.tobytes()


def test_links_sharing_events_share_one_profile():
    schedule = FailureSchedule(
        [
            FailureEvent("reflector_crash", "r1", 0, 10),
            FailureEvent("link_congestion", "d2", 5, 20, severity=0.4),
        ]
    )
    links = [("r1", "d1"), ("r1", "d3"), ("r1", "d2"), ("r2", "d1")]
    profiles = link_profiles(links, schedule.link_index(), 30)
    assert [row for row, _, _ in profiles] == [0, 1, 2]
    assert profiles[0][1] is profiles[1][1]
    assert profiles[2][2] == [(10, 20, 0.4)]
