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

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from repro.core.algorithm import repair_weight_shortfalls
from repro.core.index import problem_index
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
    in ``report.unresolved_overloads``.  Weights and costs come from the
    problem's index.  When no reflector is overloaded, ``solution`` itself is
    returned.
    """
    load = solution.fanout_loads()

    def allowed(reflector: str) -> int:
        return max(problem.fanout(reflector), max_shard_load.get(reflector, 0))

    overloaded = sorted(r for r, used in load.items() if used > allowed(r))
    report.overloaded_reflectors = len(overloaded)
    if not overloaded:
        return solution
    index = problem_index(problem)
    rows = index.rows
    # Lists are copied when changed, never changed in place.
    assignments = dict(solution.assignments)
    # Only an overloaded reflector's serving keys are ever visited, and moves
    # never target one that is still waiting its turn (it has no spare load).
    serving_keys: dict[str, list[tuple[str, str]]] = {reflector: [] for reflector in overloaded}
    for key, reflectors in assignments.items():
        for reflector in reflectors:
            if reflector in serving_keys:
                serving_keys[reflector].append(key)
    delivered: dict[tuple[str, str], float] = {}

    for reflector in overloaded:
        for key in sorted(serving_keys[reflector]):
            if load[reflector] <= allowed(reflector):
                break
            demand = index.demand_code[key]
            weight_here = rows.weight[index.position(demand, reflector)]
            required = rows.required[demand]
            if key not in delivered:
                delivered[key] = sum(
                    rows.weight[index.position(demand, r)] for r in assignments[key]
                )
            current = delivered[key]
            # Redundant copy: dropping it keeps the demand satisfied.
            if current - weight_here >= required - 1e-12:
                kept = list(assignments[key])
                kept.remove(reflector)
                assignments[key] = kept
                load[reflector] -= 1
                delivered[key] = current - weight_here
                report.assignments_dropped += 1
                continue
            # Otherwise try to move the copy to a spare candidate.
            floor = min(required, current) - 1e-12
            first = rows.pointer[demand]
            alternatives = [
                (candidate, position)
                for position, candidate in enumerate(index.candidates(demand), first)
                if candidate != reflector
                and candidate not in assignments[key]
                and load[candidate] < allowed(candidate)
                and current - weight_here + rows.weight[position] >= floor
            ]
            if not alternatives:
                continue
            target, position = min(
                alternatives,
                key=lambda item: (
                    rows.cost[item[1]] / max(rows.weight[item[1]], 1e-12),
                    item[0],
                ),
            )
            kept = list(assignments[key])
            kept.remove(reflector)
            assignments[key] = sorted([*kept, target])
            load[reflector] -= 1
            load[target] += 1
            delivered[key] = current - weight_here + rows.weight[position]
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
                raise ValueError(
                    f"demand {key} appears in more than one shard solution"
                )
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


__all__ = [
    "StitchReport",
    "rebalance_fanout",
    "stitch_assignments",
]
