"""Cross-shard stitching: merge, reconcile shared reflectors, repair.

:func:`stitch_assignments` is the one stitch.  Every sharded design and every
incremental update ends in it (see :func:`repro.scale.pipeline.run_shard_loop`):
it takes one assignment map per shard -- freshly solved, carried over from a
standing design, or both -- and returns one design over the full problem.
Per-shard designs are independent, so the only global invariants that can
break when merging are the ones spanning shards:

* **reflector builds** -- two shards may both pay for the same reflector; the
  merged solution pays once (merging can only *reduce* total cost relative to
  the sum of shard costs).
* **fanout** -- shards see the full fanout budget of shared reflectors, so the
  merged load of a reflector can exceed what any single shard used.
  :func:`rebalance_fanout` walks overloaded reflectors deterministically and
  sheds load -- dropping redundant copies (the demand stays at or above its
  required weight) or moving assignments to under-loaded candidates -- until
  each reflector is back to ``max(F_r, its worst single-shard load)``.
* **weight** -- per-demand delivered weight is untouched by the merge (edge
  weights are copied verbatim into shards), so a demand's weight fraction
  after merging equals its shard value; the repair pass then tops up
  remaining shortfalls using *global* candidates, i.e. exactly the demands
  whose useful sources span shards.

The whole stage is deterministic: iteration orders are sorted, no randomness
is drawn, so stitching the same shard assignments always yields the same
merged design (the ``jobs``-independence guarantee of the sharded pipeline
rests on this).  :class:`StitchReport` counts what it did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.algorithm import repair_weight_shortfalls
from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution
from repro.scale.partition import PartitionPlan


@dataclass
class StitchReport:
    """What the stitch stage did, for result metadata and diagnostics."""

    num_shards: int = 0
    overloaded_reflectors: int = 0
    assignments_dropped: int = 0
    assignments_moved: int = 0
    demands_repaired: int = 0
    unresolved_overloads: int = 0
    shard_max_fanout_factor: float = 0.0
    shard_min_weight_fraction: float = 1.0

    def as_metadata(self) -> dict:
        """JSON-scalar view for ``DesignResult.metadata``."""
        return {
            "num_shards": self.num_shards,
            "stitch_overloaded_reflectors": self.overloaded_reflectors,
            "stitch_assignments_dropped": self.assignments_dropped,
            "stitch_assignments_moved": self.assignments_moved,
            "stitch_demands_repaired": self.demands_repaired,
            "stitch_unresolved_overloads": self.unresolved_overloads,
            "shard_max_fanout_factor": self.shard_max_fanout_factor,
            "shard_min_weight_fraction": self.shard_min_weight_fraction,
        }


def _load_counts(assignments: dict[tuple[str, str], list[str]]) -> dict[str, int]:
    """Per-reflector assignment counts (the load the fanout bounds measure)."""
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
    """Shed cross-shard fanout overload without breaking demand weight.

    A reflector is *overloaded* when its merged load exceeds
    ``allowed(r) = max(F_r, max single-shard load of r)`` -- i.e. when merging
    made it worse than both its bound and its worst shard.  For each such
    reflector (sorted by name), assignments are visited in sorted demand-key
    order and either

    * **dropped**, when the demand's remaining weight still meets its
      requirement (redundant cross-shard copy), or
    * **moved** to the cheapest-per-weight alternative candidate with spare
      in-bound capacity that keeps the demand at or above the *minimum* of
      its requirement and its current delivered weight (so short demands are
      never made shorter).

    Whatever load cannot be shed this way is left in place (weight always
    wins over fanout, matching the paper's asymmetric guarantees) and counted
    in ``report.unresolved_overloads``.
    """
    assignments = {
        key: list(reflectors) for key, reflectors in solution.assignments.items()
    }
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
            delivered[key] = sum(
                problem.edge_weight(demand, r) for r in assignments.get(key, [])
            )
        return delivered[key]

    def allowed(reflector: str) -> int:
        return max(problem.fanout(reflector), max_shard_load.get(reflector, 0))

    overloaded = sorted(
        r for r, used in load.items() if used > allowed(r)
    )
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
            # Redundant copy: dropping it keeps the demand satisfied.
            if current - weight_here >= required - 1e-12:
                assignments[key].remove(reflector)
                load[reflector] -= 1
                delivered[key] = current - weight_here
                report.assignments_dropped += 1
                continue
            # Otherwise try to move the copy to a spare candidate.
            floor = min(required, current) - 1e-12
            alternatives = [
                candidate
                for candidate in problem.candidate_reflectors(demand)
                if candidate != reflector
                and candidate not in assignments[key]
                and load.get(candidate, 0) < allowed(candidate)
                and current
                - weight_here
                + problem.edge_weight(demand, candidate)
                >= floor
            ]
            if not alternatives:
                continue
            alternatives.sort(
                key=lambda r: (
                    problem.assignment_cost(demand, r)
                    / max(problem.edge_weight(demand, r), 1e-12),
                    r,
                )
            )
            target = alternatives[0]
            assignments[key].remove(reflector)
            assignments[key] = sorted([*assignments[key], target])
            load[reflector] -= 1
            load[target] = load.get(target, 0) + 1
            serving_keys.setdefault(target, []).append(key)
            delivered[key] = (
                current - weight_here + problem.edge_weight(demand, target)
            )
            report.assignments_moved += 1
        if load[reflector] > allowed(reflector):
            report.unresolved_overloads += 1

    return OverlaySolution.from_assignments(
        problem, assignments, metadata=dict(solution.metadata)
    )


def stitch_assignments(
    problem: OverlayDesignProblem,
    plan: PartitionPlan,
    shard_assignments: Sequence[dict[tuple[str, str], list[str]]],
    fanout_slack: float = 4.0,
) -> tuple[OverlaySolution, StitchReport]:
    """Merge per-shard assignment maps and reconcile the cross-shard constraints.

    ``shard_assignments[i]`` is shard ``i``'s map; demand keys must be
    disjoint across shards.  Stages: merge (dedup builds) -> fanout rebalance
    (shed overload on shared reflectors) -> global repair (top up demands
    whose useful candidates span shards, within ``fanout_slack`` x fanout).
    The report's per-shard statistics use the full problem's edge weights,
    which shard extraction copies verbatim, so they equal each shard's own
    view.  The caller re-audits the returned solution against the full
    problem.
    """
    if len(shard_assignments) != plan.num_shards:
        raise ValueError(
            f"got {len(shard_assignments)} shard assignment maps "
            f"for {plan.num_shards} shards"
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
            report.shard_min_weight_fraction = min(
                report.shard_min_weight_fraction, fraction
            )

    merged_assignments: dict[tuple[str, str], list[str]] = {}
    for assignments in shard_assignments:
        for key, reflectors in assignments.items():
            if key in merged_assignments:
                raise ValueError(
                    f"demand {key} appears in more than one shard solution"
                )
            merged_assignments[key] = sorted(reflectors)
    merged = OverlaySolution.from_assignments(
        problem, merged_assignments, metadata={"algorithm": "sharded-merge"}
    )

    merged = rebalance_fanout(problem, merged, max_shard_load, report)
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
            if demand.key in before
            and merged.weight_satisfaction(demand) >= 1.0 - 1e-12
        )
    merged.metadata["algorithm"] = "sharded-stitch"
    return merged, report


__all__ = [
    "StitchReport",
    "rebalance_fanout",
    "stitch_assignments",
]
