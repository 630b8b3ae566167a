"""Differential oracle for the problem index (:mod:`repro.core.index`).

The scalar code the index-backed consumers replaced: the audit, the
``OverlaySolution`` weight and fanout accessors and its ``summary``, the
repair pass, the
stitch's weight passes (per-shard statistics, fanout rebalance, repair),
the feasibility report, and the partition's ISP grouping and shard
extraction.  Each reads ``problem.edge_weight``,
``demand_weight`` and ``candidate_reflectors`` one key at a time, as the
program did before every layer shared one index.
``tests/test_index_differential.py`` holds the program to these with ``==``.

One difference is deliberate: the old repair summed a demand's weight over
``set(assignments[key])``, whose order follows ``PYTHONHASHSEED``; the
program now sums in list order.  :func:`repair_decision_ties` names every
demand whose repair decision could depend on that order.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from typing import Mapping, Sequence

from repro.analysis.audit import SolutionAudit
from repro.core.problem import Demand, FeasibilityIssue, OverlayDesignProblem
from repro.core.solution import OverlaySolution
from repro.scale.partition import PartitionPlan
from repro.scale.stitch import StitchReport

# ---------------------------------------------------------------------------
# OverlaySolution accessors
# ---------------------------------------------------------------------------


def delivered_weight(solution: OverlaySolution, demand: Demand) -> float:
    return sum(
        solution.problem.edge_weight(demand, reflector)
        for reflector in solution.reflectors_serving(demand)
    )


def weight_satisfaction(solution: OverlaySolution, demand: Demand) -> float:
    required = solution.problem.demand_weight(demand)
    if required <= 0:
        return 1.0
    return delivered_weight(solution, demand) / required


def fanout_used(solution: OverlaySolution, reflector: str) -> int:
    return sum(
        1 for reflectors in solution.assignments.values() for r in reflectors if r == reflector
    )


def fanout_factor(solution: OverlaySolution, reflector: str) -> float:
    return fanout_used(solution, reflector) / solution.problem.fanout(reflector)


def max_fanout_factor(solution: OverlaySolution) -> float:
    used = {r for reflectors in solution.assignments.values() for r in reflectors}
    if not used:
        return 0.0
    return max(fanout_factor(solution, reflector) for reflector in used)


def color_violations(solution: OverlaySolution) -> list[tuple[Demand, object, int]]:
    violations: list[tuple[Demand, object, int]] = []
    for demand in solution.problem.demands:
        per_color: dict[object, int] = {}
        for reflector in solution.reflectors_serving(demand):
            color = solution.problem.color(reflector)
            if color is None:
                continue
            per_color[color] = per_color.get(color, 0) + 1
        for color, copies in per_color.items():
            if copies > 1:
                violations.append((demand, color, copies))
    return violations


def summary(solution: OverlaySolution) -> dict:
    """``OverlaySolution.summary`` as it priced every demand through the scalar accessors."""
    demands = solution.problem.demands
    satisfactions = [solution.weight_satisfaction(d) for d in demands]
    successes = [solution.success_probability(d) for d in demands]
    return {
        "total_cost": solution.total_cost(),
        "reflectors_built": len(solution.built_reflectors),
        "assignments": sum(len(v) for v in solution.assignments.values()),
        "unserved_demands": len(solution.unserved_demands()),
        "min_weight_satisfaction": min(satisfactions) if satisfactions else 1.0,
        "mean_weight_satisfaction": (
            sum(satisfactions) / len(satisfactions) if satisfactions else 1.0
        ),
        "min_success_probability": min(successes) if successes else 1.0,
        "max_fanout_factor": solution.max_fanout_factor(),
        "demands_below_threshold": len(solution.demands_below_threshold()),
    }


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------


def audit_solution(problem: OverlayDesignProblem, solution: OverlaySolution) -> SolutionAudit:
    audit = SolutionAudit()
    for demand in problem.demands:
        audit.weight_fraction[demand.key] = weight_satisfaction(solution, demand)
    audit.unserved_demands = sum(
        1 for demand in solution.problem.demands if not solution.reflectors_serving(demand)
    )
    used_reflectors = {
        reflector for reflectors in solution.assignments.values() for reflector in reflectors
    }
    for reflector in used_reflectors:
        audit.fanout_factor[reflector] = fanout_factor(solution, reflector)
    audit.color_violations = len(color_violations(solution))
    for reflector, sink in problem.delivery_links():
        capacity = problem.arc_capacity(reflector, sink)
        if capacity is None:
            continue
        used = sum(
            1
            for (demand_sink, _stream), reflectors in solution.assignments.items()
            if demand_sink == sink and reflector in reflectors
        )
        audit.arc_capacity_factor[(reflector, sink)] = used / capacity
    return audit


# ---------------------------------------------------------------------------
# Repair
# ---------------------------------------------------------------------------


def repair_weight_shortfalls(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    fanout_slack: float = 4.0,
) -> OverlaySolution:
    assignments = {key: list(reflectors) for key, reflectors in solution.assignments.items()}
    load: dict[str, int] = {}
    for reflectors in assignments.values():
        for reflector in reflectors:
            load[reflector] = load.get(reflector, 0) + 1

    def capacity_left(reflector: str) -> float:
        return fanout_slack * problem.fanout(reflector) - load.get(reflector, 0)

    for demand in problem.demands:
        key = demand.key
        required = problem.demand_weight(demand)
        current = set(assignments.get(key, []))
        delivered = sum(problem.edge_weight(demand, r) for r in current)
        if delivered >= required - 1e-12:
            continue
        candidates = [
            reflector
            for reflector in problem.candidate_reflectors(demand)
            if reflector not in current and capacity_left(reflector) >= 1.0
        ]
        candidates.sort(
            key=lambda r: (
                problem.assignment_cost(demand, r) / max(problem.edge_weight(demand, r), 1e-12)
            )
        )
        for reflector in candidates:
            if delivered >= required - 1e-12:
                break
            assignments.setdefault(key, []).append(reflector)
            current.add(reflector)
            load[reflector] = load.get(reflector, 0) + 1
            delivered += problem.edge_weight(demand, reflector)

    repaired = OverlaySolution.from_assignments(
        problem, assignments, metadata=dict(solution.metadata)
    )
    repaired.metadata["repaired"] = True
    return repaired


def repair_decision_ties(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    fanout_slack: float = 4.0,
) -> list[tuple[str, str]]:
    """Demands whose repair could change with the order their weights are summed in.

    Replays :func:`repair_weight_shortfalls` on exact sums (``math.fsum``).
    A sum of ``n`` weights in any order lies within ``(n - 1) * eps *
    sum(|w|)`` of the exact sum, so a decision ``sum >= required - 1e-12``
    is order-free unless the exact sum lies within twice that of the
    threshold; every demand with such a decision is returned.
    """
    assignments = {key: list(reflectors) for key, reflectors in solution.assignments.items()}
    load: dict[str, int] = {}
    for reflectors in assignments.values():
        for reflector in reflectors:
            load[reflector] = load.get(reflector, 0) + 1
    ties: list[tuple[str, str]] = []

    def met(weights: list[float], threshold: float, key: tuple[str, str]) -> bool:
        exact = math.fsum(weights)
        bound = max(len(weights) - 1, 0) * sys.float_info.epsilon * math.fsum(map(abs, weights))
        if abs(exact - threshold) <= 2 * bound and key not in ties:
            ties.append(key)
        return exact >= threshold

    for demand in problem.demands:
        key = demand.key
        threshold = problem.demand_weight(demand) - 1e-12
        current = list(dict.fromkeys(assignments.get(key, [])))
        weights = [problem.edge_weight(demand, r) for r in current]
        if met(weights, threshold, key):
            continue
        candidates = [
            reflector
            for reflector in problem.candidate_reflectors(demand)
            if reflector not in current
            and fanout_slack * problem.fanout(reflector) - load.get(reflector, 0) >= 1.0
        ]
        candidates.sort(
            key=lambda r: (
                problem.assignment_cost(demand, r) / max(problem.edge_weight(demand, r), 1e-12)
            )
        )
        for reflector in candidates:
            if met(weights, threshold, key):
                break
            assignments.setdefault(key, []).append(reflector)
            load[reflector] = load.get(reflector, 0) + 1
            weights.append(problem.edge_weight(demand, reflector))
    return ties


# ---------------------------------------------------------------------------
# Stitch
# ---------------------------------------------------------------------------


def _load_counts(assignments: dict[tuple[str, str], list[str]]) -> dict[str, int]:
    load: dict[str, int] = {}
    for reflectors in assignments.values():
        for reflector in reflectors:
            load[reflector] = load.get(reflector, 0) + 1
    return load


def rebalance_fanout(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    max_shard_load: dict[str, int],
    report: StitchReport,
) -> OverlaySolution:
    assignments = {key: list(reflectors) for key, reflectors in solution.assignments.items()}
    load = _load_counts(assignments)
    serving_keys: dict[str, list[tuple[str, str]]] = {}
    for key, reflectors in assignments.items():
        for reflector in reflectors:
            serving_keys.setdefault(reflector, []).append(key)

    demands_by_key = {demand.key: demand for demand in problem.demands}
    delivered: dict[tuple[str, str], float] = {}

    def delivered_weight(key: tuple[str, str]) -> float:
        if key not in delivered:
            demand = demands_by_key[key]
            delivered[key] = sum(problem.edge_weight(demand, r) for r in assignments.get(key, []))
        return delivered[key]

    def allowed(reflector: str) -> int:
        return max(problem.fanout(reflector), max_shard_load.get(reflector, 0))

    overloaded = sorted(r for r, used in load.items() if used > allowed(r))
    report.overloaded_reflectors = len(overloaded)
    for reflector in overloaded:
        serving = sorted(serving_keys[reflector])
        for key in serving:
            if load[reflector] <= allowed(reflector):
                break
            demand = demands_by_key[key]
            weight_here = problem.edge_weight(demand, reflector)
            required = problem.demand_weight(demand)
            current = delivered_weight(key)
            if current - weight_here >= required - 1e-12:
                assignments[key].remove(reflector)
                load[reflector] -= 1
                delivered[key] = current - weight_here
                report.assignments_dropped += 1
                continue
            floor = min(required, current) - 1e-12
            alternatives = [
                candidate
                for candidate in problem.candidate_reflectors(demand)
                if candidate != reflector
                and candidate not in assignments[key]
                and load.get(candidate, 0) < allowed(candidate)
                and current - weight_here + problem.edge_weight(demand, candidate) >= floor
            ]
            if not alternatives:
                continue
            alternatives.sort(
                key=lambda r: (
                    problem.assignment_cost(demand, r) / max(problem.edge_weight(demand, r), 1e-12),
                    r,
                )
            )
            target = alternatives[0]
            assignments[key].remove(reflector)
            assignments[key] = sorted([*assignments[key], target])
            load[reflector] -= 1
            load[target] = load.get(target, 0) + 1
            serving_keys.setdefault(target, []).append(key)
            delivered[key] = current - weight_here + problem.edge_weight(demand, target)
            report.assignments_moved += 1
        if load[reflector] > allowed(reflector):
            report.unresolved_overloads += 1

    return OverlaySolution.from_assignments(problem, assignments, metadata=dict(solution.metadata))


def stitch_assignments(
    problem: OverlayDesignProblem,
    plan: PartitionPlan,
    shard_assignments: Sequence[dict[tuple[str, str], list[str]]],
    fanout_slack: float = 4.0,
) -> tuple[OverlaySolution, StitchReport]:
    if len(shard_assignments) != plan.num_shards:
        raise ValueError(
            f"got {len(shard_assignments)} shard assignment maps for {plan.num_shards} shards"
        )
    demands_by_key = {demand.key: demand for demand in problem.demands}
    report = StitchReport(num_shards=plan.num_shards)
    max_shard_load: dict[str, int] = {}
    for shard, assignments in zip(plan.shards, shard_assignments):
        for reflector, used in _load_counts(assignments).items():
            report.shard_max_fanout_factor = max(
                report.shard_max_fanout_factor, used / problem.fanout(reflector)
            )
            max_shard_load[reflector] = max(max_shard_load.get(reflector, 0), used)
        for key in shard.demand_keys:
            demand = demands_by_key[key]
            required = problem.demand_weight(demand)
            if required <= 0:
                fraction = 1.0
            else:
                delivered = sum(
                    problem.edge_weight(demand, reflector)
                    for reflector in assignments.get(key, [])
                )
                fraction = delivered / required
            report.shard_min_weight_fraction = min(report.shard_min_weight_fraction, fraction)

    merged_assignments: dict[tuple[str, str], list[str]] = {}
    for assignments in shard_assignments:
        for key, reflectors in assignments.items():
            if key in merged_assignments:
                raise ValueError(f"demand {key} appears in more than one shard solution")
            merged_assignments[key] = sorted(reflectors)
    merged = OverlaySolution.from_assignments(
        problem, merged_assignments, metadata={"algorithm": "sharded-merge"}
    )

    merged = rebalance_fanout(problem, merged, max_shard_load, report)
    before = {
        demand.key
        for demand in problem.demands
        if weight_satisfaction(merged, demand) < 1.0 - 1e-12
    }
    if before:
        merged = repair_weight_shortfalls(problem, merged, fanout_slack)
        report.demands_repaired = sum(
            1
            for demand in problem.demands
            if demand.key in before and weight_satisfaction(merged, demand) >= 1.0 - 1e-12
        )
    merged.metadata["algorithm"] = "sharded-stitch"
    return merged, report


# ---------------------------------------------------------------------------
# Feasibility report
# ---------------------------------------------------------------------------


def feasibility_report(problem: OverlayDesignProblem) -> list[FeasibilityIssue]:
    issues: list[FeasibilityIssue] = []
    for demand in problem.demands:
        required = problem.demand_weight(demand)
        candidates = problem.candidate_reflectors(demand)
        available = sum(problem.edge_weight(demand, reflector) for reflector in candidates)
        if available + 1e-12 < required:
            issues.append(
                FeasibilityIssue(
                    demand=demand,
                    required_weight=required,
                    available_weight=available,
                    reachable_reflectors=len(candidates),
                )
            )
    return issues


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------


def isp_groups(problem: OverlayDesignProblem) -> dict[str, list[str]]:
    candidate_colors: dict[str, Counter] = {}
    for demand in problem.demands:
        counter = candidate_colors.setdefault(demand.sink, Counter())
        for reflector in problem.candidate_reflectors(demand):
            color = problem.color(reflector)
            if color is not None:
                counter[str(color)] += 1
    groups: dict[str, list[str]] = {}
    for sink in problem.sinks:
        counter = candidate_colors.get(sink)
        if counter:
            label = min(counter, key=lambda c: (-counter[c], c))
        else:
            label = "uncolored"
        groups.setdefault(label, []).append(sink)
    return groups


def extract_shard_problem(
    problem: OverlayDesignProblem,
    sinks: list[str],
    name: str,
    demand_keys: set[tuple[str, str]] | None = None,
    fanout_overrides: Mapping[str, int] | None = None,
    reflector_cost_overrides: Mapping[str, float] | None = None,
    stream_edge_cost_overrides: Mapping[tuple[str, str], float] | None = None,
) -> OverlayDesignProblem:
    sink_set = set(sinks)
    demands = [d for d in problem.demands if d.sink in sink_set]
    if demand_keys is not None:
        demands = [d for d in demands if d.key in demand_keys]
    delivery_by_sink: dict[str, list[tuple[str, float, float]]] = {}
    for reflector, sink, loss, base_cost in problem.delivery_link_data():
        delivery_by_sink.setdefault(sink, []).append((reflector, loss, base_cost))

    seen_reflectors: set[str] = set()
    seen_streams: set[str] = set()
    for demand in demands:
        seen_streams.add(demand.stream)
        seen_reflectors.update(problem.candidate_reflectors(demand))

    shard = OverlayDesignProblem(name=name)
    for stream in problem.streams:
        if stream in seen_streams:
            shard.add_stream(stream, bandwidth=problem.stream_bandwidth(stream))
    for reflector in problem.reflectors:
        if reflector not in seen_reflectors:
            continue
        info = problem.reflector_info(reflector)
        fanout = info.fanout
        if fanout_overrides is not None:
            fanout = fanout_overrides.get(reflector, fanout)
        cost = info.cost
        if reflector_cost_overrides is not None:
            cost = reflector_cost_overrides.get(reflector, cost)
        shard.add_reflector(
            reflector, cost=cost, fanout=fanout, color=info.color, capacity=info.capacity
        )
    for sink in problem.sinks:
        if sink in sink_set:
            shard.add_sink(sink)
    for edge in problem.stream_edges():
        if edge.stream in seen_streams and edge.reflector in seen_reflectors:
            edge_cost = edge.cost
            if stream_edge_cost_overrides is not None:
                edge_cost = stream_edge_cost_overrides.get((edge.stream, edge.reflector), edge_cost)
            shard.add_stream_edge(edge.stream, edge.reflector, edge.loss_probability, edge_cost)
    overrides = problem.delivery_stream_cost_overrides()
    for sink in sinks:
        for reflector, loss, base_cost in delivery_by_sink.get(sink, []):
            if reflector not in seen_reflectors:
                continue
            stream_costs = overrides.get((reflector, sink))
            if stream_costs is not None:
                stream_costs = {
                    stream: cost for stream, cost in stream_costs.items() if stream in seen_streams
                }
            shard.add_delivery_edge(
                reflector,
                sink,
                loss_probability=loss,
                cost=base_cost,
                stream_costs=stream_costs or None,
                capacity=problem.arc_capacity(reflector, sink),
            )
    for demand in demands:
        shard.add_demand(demand.sink, demand.stream, demand.success_threshold)
    return shard
