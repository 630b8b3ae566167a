"""Mapping a :class:`ProblemDelta` onto the shard partition: dirty shards.

The sharded pipeline (:mod:`repro.scale`) partitions demands by sink, so a
delta's blast radius is naturally expressed in demand keys: a shard is
*dirty* exactly when it contains at least one affected demand, and every
other shard's standing assignments remain valid verbatim (its demands'
candidate sets, edge weights and thresholds are untouched by the delta).

The affected-demand rule is deliberately conservative and **monotone**: each
delta entry contributes a set of demand keys that depends only on that entry
and the new problem, and the total is the union -- so a superset delta can
never mark fewer demands (or fewer shards) than a subset.  The property
suite pins this.

Per-entry contributions (all evaluated against the *new* problem):

* sink added -> every demand of that sink (they must be served from scratch);
* sink removed -> nothing (capacity is freed, no standing demand changes);
* delivery edge changed on ``(reflector, sink)`` -> every demand of that
  sink (its candidate weights/costs moved, or a candidate appeared or
  disappeared);
* stream edge changed on ``(stream, reflector)`` -> every demand of that
  stream whose sink has a delivery edge from that reflector;
* demand added / re-thresholded -> that demand; demand removed -> nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.index import problem_index
from repro.core.problem import OverlayDesignProblem
from repro.incremental.delta import DemandKey, ProblemDelta
from repro.scale.partition import PartitionPlan


@dataclass(frozen=True)
class ImpactReport:
    """Which demands a delta touches and which shards must be re-solved."""

    affected_demands: frozenset[DemandKey] = frozenset()
    dirty_shards: tuple[str, ...] = ()
    clean_shards: tuple[str, ...] = ()
    num_shards: int = 0

    @property
    def dirty_fraction(self) -> float:
        if self.num_shards == 0:
            return 0.0
        return len(self.dirty_shards) / self.num_shards

    def as_metadata(self) -> dict:
        """JSON-scalar view for ``DesignResult.metadata``."""
        return {
            "incremental_affected_demands": len(self.affected_demands),
            "incremental_dirty_shards": len(self.dirty_shards),
            "incremental_clean_shards": len(self.clean_shards),
            "incremental_dirty_fraction": self.dirty_fraction,
        }


def affected_demand_keys(
    delta: ProblemDelta, new_problem: OverlayDesignProblem
) -> frozenset[DemandKey]:
    """Demand keys of ``new_problem`` whose designs the delta may invalidate."""
    index = problem_index(new_problem)

    def sink_demands(sink: str) -> list[DemandKey]:
        code = index.sink_code.get(sink)
        if code is None:
            return []
        rows = index.sink_demands[index.sink_demand_ptr[code] : index.sink_demand_ptr[code + 1]]
        return [index.keys[demand] for demand in rows.tolist()]

    affected: set[DemandKey] = set()
    for sink in delta.sinks_added:
        affected.update(sink_demands(sink))
    for sink in {sink for _reflector, sink in delta.delivery_changed}:
        affected.update(sink_demands(sink))
    for stream, reflector in delta.stream_edges_changed:
        code = index.reflector_code.get(reflector)
        if code is None:
            continue
        for sink in index.link_sink[index.link_reflector == code].tolist():
            key = (index.sinks[sink], stream)
            if key in index.demand_code:
                affected.add(key)
    for key in delta.demands_changed:
        if key in index.demand_code:
            affected.add(key)
    return frozenset(affected)


def analyze_impact(
    delta: ProblemDelta,
    new_problem: OverlayDesignProblem,
    plan: PartitionPlan,
    extra_affected: frozenset[DemandKey] | set[DemandKey] = frozenset(),
) -> ImpactReport:
    """Project a delta onto a partition plan of the *new* problem.

    ``extra_affected`` lets the engine force demands dirty for reasons
    outside the delta model -- e.g. demands the standing solution never
    served (so there is nothing to carry over).
    """
    affected = frozenset(affected_demand_keys(delta, new_problem) | set(extra_affected))
    # A shard is dirty when it holds an affected demand: when the demand's
    # sink is one of its sinks.
    demands, positions = problem_index(new_problem).demand_code, plan.positions()
    touched = {positions.get(sink) for sink, stream in affected if (sink, stream) in demands}
    dirty: list[str] = []
    clean: list[str] = []
    for at, shard in enumerate(plan.shards):
        (dirty if at in touched else clean).append(shard.shard_id)
    return ImpactReport(
        affected_demands=affected,
        dirty_shards=tuple(dirty),
        clean_shards=tuple(clean),
        num_shards=plan.num_shards,
    )


__all__ = ["ImpactReport", "affected_demand_keys", "analyze_impact"]
