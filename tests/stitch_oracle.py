"""Differential oracles for :func:`repro.scale.stitch.stitch_assignments`.

:func:`stitch_solutions` is the solution-level stitch the sharded pipeline
ran before it shared the incremental engine's shard loop: every shard result
arrives as an :class:`OverlaySolution` over its own extracted subproblem, the
per-shard statistics come from those solutions (``weight_satisfaction`` over
the shard subproblem's demands), and the merge and the worst single-shard
loads are computed from the solution objects.  Only the reconciliation steps
that both stitches share -- :func:`repro.scale.stitch.rebalance_fanout` and
:func:`repro.core.algorithm.repair_weight_shortfalls` -- come from ``src/``.

:func:`full_stitch` is the stitch that walked the whole problem on every
call -- per-shard ``Counter`` loads, one delivered-weight pass over every
demand, ``from_assignments`` over the merge and again after the repair --
before a stitch could carry the shards an update leaves clean from the
standing design's state.  :func:`carried_maps` gives it the maps such shards
would hold.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from repro.core.algorithm import repair_weight_shortfalls
from repro.core.index import problem_index
from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution
from repro.scale.partition import PartitionPlan
from repro.scale.stitch import ShardState, StitchReport, rebalance_fanout


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
    for solution in solutions:
        for reflector, used in _loads(solution).items():
            report.shard_max_fanout_factor = max(
                report.shard_max_fanout_factor, used / problem.fanout(reflector)
            )
        for demand in solution.problem.demands:
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


def carried_maps(
    plan: PartitionPlan,
    shard_assignments: Sequence[Mapping | None],
    standing: ShardState | None,
) -> list[Mapping]:
    """Every map, a shard that keeps the standing design holding its standing lists."""
    carried = standing.solution.assignments if standing is not None else {}
    return [
        {key: carried[key] for key in shard.demand_keys if carried.get(key)}
        if assignments is None
        else assignments
        for shard, assignments in zip(plan.shards, shard_assignments)
    ]


def full_stitch(
    problem: OverlayDesignProblem,
    plan: PartitionPlan,
    shard_assignments: Sequence[dict[tuple[str, str], list[str]]],
    fanout_slack: float = 4.0,
) -> tuple[OverlaySolution, StitchReport]:
    """Merge -> fanout rebalance -> global repair, each over the whole problem."""
    if len(shard_assignments) != plan.num_shards:
        raise ValueError(
            f"got {len(shard_assignments)} shard assignment maps "
            f"for {plan.num_shards} shards"
        )
    index = problem_index(problem)
    report = StitchReport(num_shards=plan.num_shards)
    max_shard_load: dict[str, int] = {}
    keys: list[tuple[str, str]] = []
    lists: list[list[str]] = []
    for shard, assignments in zip(plan.shards, shard_assignments):
        for reflector, used in Counter(chain.from_iterable(assignments.values())).items():
            report.shard_max_fanout_factor = max(
                report.shard_max_fanout_factor, used / problem.fanout(reflector)
            )
            max_shard_load[reflector] = max(max_shard_load.get(reflector, 0), used)
        keys.extend(shard.demand_keys)
        lists.extend(assignments.get(key, ()) for key in shard.demand_keys)
    if keys:
        # The worst shard's worst demand is the worst demand of all shards.
        fractions = index.weight_fractions(index.delivered(keys, lists), index.demand_codes(keys))
        report.shard_min_weight_fraction = min(
            report.shard_min_weight_fraction, float(fractions.min())
        )

    merged_assignments: dict[tuple[str, str], list[str]] = {}
    for assignments in shard_assignments:
        for key, reflectors in assignments.items():
            if key in merged_assignments:
                raise ValueError(f"demand {key} appears in more than one shard solution")
            merged_assignments[key] = reflectors
    merged = OverlaySolution.from_assignments(
        problem, merged_assignments, metadata={"algorithm": "sharded-merge"}
    )

    merged = rebalance_fanout(problem, merged, max_shard_load, report)
    short = np.flatnonzero(index.weight_satisfaction(merged.assignments) < 1.0 - 1e-12)
    if short.size:
        merged = repair_weight_shortfalls(problem, merged, fanout_slack)
        short_keys = [index.keys[demand] for demand in short.tolist()]
        lists = [merged.assignments.get(key, ()) for key in short_keys]
        delivered = index.delivered(short_keys, lists)
        met = index.weight_fractions(delivered, short) >= 1.0 - 1e-12
        report.demands_repaired = int(np.count_nonzero(met))
    merged.metadata["algorithm"] = "sharded-stitch"
    return merged, report
