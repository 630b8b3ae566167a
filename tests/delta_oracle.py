"""Differential oracle for :func:`repro.incremental.delta.apply_delta`.

This is ``apply_delta`` as it was before the bulk constructor: read the
parent's whole link, stream-edge and demand tables into dicts, apply the
delta to them (checking each changed entry's old side), and rebuild the new
problem through the ``add_*`` methods, every table in sorted order.  Each
``add_*`` call checks its values, so the first bad entry in that order
raises.  It keeps its own copy of the table readers, so a change to them in
``src/`` cannot change the oracle too.
"""

from __future__ import annotations

from repro.core.problem import OverlayDesignProblem
from repro.incremental.delta import (
    DeliveryEdgeSpec,
    DemandKey,
    LinkKey,
    ProblemDelta,
    StreamEdgeSpec,
)


def _delivery_specs(problem: OverlayDesignProblem) -> dict[LinkKey, DeliveryEdgeSpec]:
    overrides = problem.delivery_stream_cost_overrides()
    capacities = problem.arc_capacities()
    specs: dict[LinkKey, DeliveryEdgeSpec] = {}
    for reflector, sink, loss, base_cost in problem.delivery_link_data():
        key = (reflector, sink)
        specs[key] = DeliveryEdgeSpec(
            loss_probability=loss,
            cost=base_cost,
            stream_costs=tuple(sorted((overrides.get(key) or {}).items())),
            capacity=capacities.get(key),
        )
    return specs


def _stream_specs(problem: OverlayDesignProblem) -> dict[LinkKey, StreamEdgeSpec]:
    return {
        (edge.stream, edge.reflector): StreamEdgeSpec(edge.loss_probability, edge.cost)
        for edge in problem.stream_edges()
    }


def _demand_thresholds(problem: OverlayDesignProblem) -> dict[DemandKey, float]:
    return {demand.key: demand.success_threshold for demand in problem.demands}


def oracle_apply_delta(
    problem: OverlayDesignProblem, delta: ProblemDelta, name: str | None = None
) -> OverlayDesignProblem:
    """Apply ``delta`` to ``problem``, producing the new problem state.

    Raises ``ValueError`` when the delta records structural changes (those
    require rebuilding the problem at the source) or when a changed entry's
    *old* side disagrees with ``problem`` (a stale delta).  The result is
    rebuilt in canonical sorted order, so applying a delta and then its
    inverse reproduces the original problem content-exactly.
    """
    if delta.requires_full_redesign:
        raise ValueError(
            "delta records structural changes and cannot be applied "
            f"incrementally: {'; '.join(delta.structural)}"
        )

    sinks = set(problem.sinks)
    for sink in delta.sinks_added:
        if sink in sinks:
            raise ValueError(f"delta adds sink {sink!r} which already exists")
    for sink in delta.sinks_removed:
        if sink not in sinks:
            raise ValueError(f"delta removes sink {sink!r} which does not exist")
    sinks = (sinks - set(delta.sinks_removed)) | set(delta.sinks_added)

    delivery = _delivery_specs(problem)
    for sink, attachment in delta.sinks_removed.items():
        for reflector, _spec in attachment.delivery:
            delivery.pop((reflector, sink), None)
    for sink, attachment in delta.sinks_added.items():
        for reflector, spec in attachment.delivery:
            delivery[(reflector, sink)] = spec
    for key, (before, after) in delta.delivery_changed.items():
        if delivery.get(key) != before:
            raise ValueError(f"stale delta: delivery edge {key} is not {before}")
        if after is None:
            delivery.pop(key, None)
        else:
            delivery[key] = after

    stream_edges = _stream_specs(problem)
    for key, (before, after) in delta.stream_edges_changed.items():
        if stream_edges.get(key) != before:
            raise ValueError(f"stale delta: stream edge {key} is not {before}")
        if after is None:
            stream_edges.pop(key, None)
        else:
            stream_edges[key] = after

    demands = _demand_thresholds(problem)
    for sink, attachment in delta.sinks_removed.items():
        for stream, _threshold in attachment.demands:
            demands.pop((sink, stream), None)
    for sink, attachment in delta.sinks_added.items():
        for stream, threshold in attachment.demands:
            demands[(sink, stream)] = threshold
    for key, (before, after) in delta.demands_changed.items():
        if demands.get(key) != before:
            raise ValueError(f"stale delta: demand {key} threshold is not {before}")
        if after is None:
            demands.pop(key, None)
        else:
            demands[key] = after

    result = OverlayDesignProblem(name=name or problem.name)
    for stream in sorted(problem.streams):
        result.add_stream(stream, bandwidth=problem.stream_bandwidth(stream))
    for reflector in sorted(problem.reflectors):
        info = problem.reflector_info(reflector)
        result.add_reflector(
            reflector,
            cost=info.cost,
            fanout=info.fanout,
            color=info.color,
            capacity=info.capacity,
        )
    for sink in sorted(sinks):
        result.add_sink(sink)
    for (stream, reflector), spec in sorted(stream_edges.items()):
        result.add_stream_edge(stream, reflector, spec.loss_probability, spec.cost)
    for (reflector, sink), spec in sorted(delivery.items()):
        result.add_delivery_edge(
            reflector,
            sink,
            loss_probability=spec.loss_probability,
            cost=spec.cost,
            stream_costs=spec.stream_costs_dict(),
            capacity=spec.capacity,
        )
    for (sink, stream), threshold in sorted(demands.items()):
        result.add_demand(sink, stream, success_threshold=threshold)
    return result
