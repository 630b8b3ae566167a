"""Differential oracle for :func:`repro.scale.stitch.stitch_assignments`.

This is the solution-level stitch the sharded pipeline ran before it shared
the incremental engine's shard loop: every shard result arrives as an
:class:`OverlaySolution` over its own extracted subproblem, the per-shard
statistics come from those solutions (``weight_satisfaction`` over the shard
subproblem's demands), and the merge and the worst single-shard loads are
computed from the solution objects.  Only the reconciliation steps that both
stitches share -- :func:`repro.scale.stitch.rebalance_fanout` and
:func:`repro.core.algorithm.repair_weight_shortfalls` -- come from ``src/``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.algorithm import repair_weight_shortfalls
from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution
from repro.scale.partition import PartitionPlan
from repro.scale.stitch import StitchReport, rebalance_fanout


def _loads(solution: OverlaySolution) -> dict[str, int]:
    load: dict[str, int] = {}
    for reflectors in solution.assignments.values():
        for reflector in reflectors:
            load[reflector] = load.get(reflector, 0) + 1
    return load


def merge_shard_solutions(
    problem: OverlayDesignProblem, solutions: Sequence[OverlaySolution]
) -> OverlaySolution:
    """Union the shard designs into one solution over the full problem."""
    assignments: dict[tuple[str, str], list[str]] = {}
    for solution in solutions:
        for key, reflectors in solution.assignments.items():
            if key in assignments:
                raise ValueError(f"demand {key} appears in more than one shard solution")
            assignments[key] = sorted(reflectors)
    return OverlaySolution.from_assignments(
        problem, assignments, metadata={"algorithm": "sharded-merge"}
    )


def max_shard_load(solutions: Sequence[OverlaySolution]) -> dict[str, int]:
    """Per reflector, the largest load any single shard put on it."""
    worst: dict[str, int] = {}
    for solution in solutions:
        for reflector, value in _loads(solution).items():
            worst[reflector] = max(worst.get(reflector, 0), value)
    return worst


def stitch_solutions(
    problem: OverlayDesignProblem,
    plan: PartitionPlan,
    solutions: Sequence[OverlaySolution],
    fanout_slack: float = 4.0,
) -> tuple[OverlaySolution, StitchReport]:
    """Merge -> fanout rebalance -> global repair, from shard solutions."""
    if len(solutions) != plan.num_shards:
        raise ValueError(f"got {len(solutions)} shard solutions for {plan.num_shards} shards")
    report = StitchReport(num_shards=plan.num_shards)
    for shard, solution in zip(plan.shards, solutions):
        for reflector, used in _loads(solution).items():
            report.shard_max_fanout_factor = max(
                report.shard_max_fanout_factor, used / problem.fanout(reflector)
            )
        for demand in shard.problem.demands:
            report.shard_min_weight_fraction = min(
                report.shard_min_weight_fraction,
                solution.weight_satisfaction(demand),
            )

    merged = merge_shard_solutions(problem, solutions)
    merged = rebalance_fanout(merged.problem, merged, max_shard_load(solutions), report)
    before = {
        demand.key
        for demand in problem.demands
        if merged.weight_satisfaction(demand) < 1.0 - 1e-12
    }
    if before:
        merged = repair_weight_shortfalls(problem, merged, fanout_slack)
        report.demands_repaired = sum(
            1
            for demand in problem.demands
            if demand.key in before and merged.weight_satisfaction(demand) >= 1.0 - 1e-12
        )
    merged.metadata["algorithm"] = "sharded-stitch"
    return merged, report
