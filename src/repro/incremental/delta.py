"""Structural diffs between two overlay design problems.

Live streaming churns: sinks join and leave mid-session, measured link loss
and transit cost drift, and demand thresholds move when a flash crowd raises
the stakes on a region.  The paper's answer is to re-run the designer "as
often as needed" (Section 1.3); :mod:`repro.incremental` makes that cheap by
re-solving only what a change touches.  This module defines the change
itself: a :class:`ProblemDelta` is a self-contained, invertible description
of how one :class:`~repro.core.problem.OverlayDesignProblem` became another.

The delta model is deliberately scoped to the churn the engine can absorb
incrementally:

* **sinks added / removed** -- each carries its full attachment (delivery
  edges and demands), so removals are invertible and additions are
  self-contained;
* **delivery-edge changes** -- loss/cost/capacity drift on existing
  reflector->sink links, including edges appearing or disappearing on
  surviving sinks;
* **stream-edge changes** -- loss/cost drift on origin->reflector links;
* **demand changes** -- demands added, removed, or re-thresholded on
  surviving sinks (threshold moves are the "demand weight changes" of the
  delta model: ``W = -log(1 - threshold)``).

Anything else -- streams or reflectors appearing/disappearing, reflector
cost/fanout/color/capacity changes, stream bandwidth changes -- is recorded
as a *structural* change: the delta still describes it (as a reason string),
but :func:`apply_delta` refuses it and the engine falls back to a full
redesign.  See ``docs/incremental.md`` for the rationale.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Mapping

from repro.core.problem import OverlayDesignProblem
from repro.core.schema import NUMBER, STRING, Doc, Field, MapOf, Rows
from repro.core.serialization import (
    CAPACITY,
    COST,
    LOSS_PROBABILITY,
    STREAM_COSTS,
    SUCCESS_THRESHOLD,
    NAME,
)

#: Version written into every delta document; bump on breaking changes.
DELTA_FORMAT_VERSION = 1

DemandKey = tuple[str, str]
LinkKey = tuple[str, str]


@dataclass(frozen=True)
class DeliveryEdgeSpec:
    """The full data of one reflector->sink delivery edge."""

    loss_probability: float
    cost: float
    stream_costs: tuple[tuple[str, float], ...] = ()
    capacity: float | None = None

    def stream_costs_dict(self) -> dict[str, float] | None:
        return dict(self.stream_costs) or None


def _link(loss_probability, cost, stream_costs=None, capacity=None) -> DeliveryEdgeSpec:
    """A link's spec from its ``add_delivery_edge`` arguments after the names."""
    costs = tuple(sorted((stream_costs or {}).items()))
    return DeliveryEdgeSpec(loss_probability, cost, costs, capacity)


@dataclass(frozen=True)
class StreamEdgeSpec:
    """The data of one stream->reflector edge."""

    loss_probability: float
    cost: float


@dataclass(frozen=True)
class SinkAttachment:
    """Everything needed to (re)attach a sink: its edges and its demands."""

    delivery: tuple[tuple[str, DeliveryEdgeSpec], ...] = ()
    demands: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class ProblemDelta:
    """An invertible structural diff between two problem states.

    All mappings are keyed on names (sinks, ``(reflector, sink)`` links,
    ``(stream, reflector)`` edges, ``(sink, stream)`` demands); changed
    entries carry ``(old, new)`` pairs where ``None`` means absent, which is
    what makes :func:`invert` a pure swap.
    """

    sinks_added: Mapping[str, SinkAttachment] = field(default_factory=dict)
    sinks_removed: Mapping[str, SinkAttachment] = field(default_factory=dict)
    delivery_changed: Mapping[
        LinkKey, tuple[DeliveryEdgeSpec | None, DeliveryEdgeSpec | None]
    ] = field(default_factory=dict)
    stream_edges_changed: Mapping[
        LinkKey, tuple[StreamEdgeSpec | None, StreamEdgeSpec | None]
    ] = field(default_factory=dict)
    demands_changed: Mapping[DemandKey, tuple[float | None, float | None]] = field(
        default_factory=dict
    )
    structural: tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (
            self.sinks_added
            or self.sinks_removed
            or self.delivery_changed
            or self.stream_edges_changed
            or self.demands_changed
            or self.structural
        )

    @property
    def requires_full_redesign(self) -> bool:
        """True when the change falls outside the incremental delta model."""
        return bool(self.structural)

    def summary(self) -> dict[str, int]:
        """Entry counts per change class (for metadata and logging)."""
        return {
            "sinks_added": len(self.sinks_added),
            "sinks_removed": len(self.sinks_removed),
            "delivery_changed": len(self.delivery_changed),
            "stream_edges_changed": len(self.stream_edges_changed),
            "demands_changed": len(self.demands_changed),
            "structural": len(self.structural),
        }


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


def _delivery_specs(problem: OverlayDesignProblem) -> dict[LinkKey, DeliveryEdgeSpec]:
    overrides = problem.delivery_stream_cost_overrides()
    capacities = problem.arc_capacities()
    specs = {}
    for reflector, sink, loss, cost in problem.delivery_link_data():
        key = (reflector, sink)
        specs[key] = _link(loss, cost, overrides.get(key), capacities.get(key))
    return specs


def _stream_specs(problem: OverlayDesignProblem) -> dict[LinkKey, StreamEdgeSpec]:
    return {
        (edge.stream, edge.reflector): StreamEdgeSpec(edge.loss_probability, edge.cost)
        for edge in problem.stream_edges()
    }


def _demand_thresholds(problem: OverlayDesignProblem) -> dict[DemandKey, float]:
    return {demand.key: demand.success_threshold for demand in problem.demands}


def _link_spec(problem: OverlayDesignProblem, key: LinkKey) -> DeliveryEdgeSpec | None:
    link = problem._link(key)
    return None if link is None else _link(*link)


def sink_attachment(problem: OverlayDesignProblem, sink: str) -> SinkAttachment:
    """``sink``'s full attachment (edges + demands) in ``problem``, in sorted order.

    Reads only ``sink``'s own rows: its links (``_sink_reflectors``) and one
    demand lookup per stream.
    """
    delivery = [
        (reflector, _link_spec(problem, (reflector, sink)))
        for reflector in problem._sink_reflectors.get(sink, ())
    ]
    demands = []
    for stream in problem._streams:
        demand = problem._demand((sink, stream))
        if demand is not None:
            demands.append((stream, demand.success_threshold))
    return SinkAttachment(delivery=tuple(sorted(delivery)), demands=tuple(sorted(demands)))


def diff_problems(
    old: OverlayDesignProblem, new: OverlayDesignProblem
) -> ProblemDelta:
    """Diff two problem states into a :class:`ProblemDelta`.

    The diff is content-based: entity insertion order and the problems'
    ``name`` fields are ignored.  Changes outside the delta model land in
    ``structural`` (making ``requires_full_redesign`` true) rather than
    failing, so callers can always diff first and decide second.
    """
    structural: list[str] = []

    old_streams, new_streams = set(old.streams), set(new.streams)
    for stream in sorted(new_streams - old_streams):
        structural.append(f"stream added: {stream}")
    for stream in sorted(old_streams - new_streams):
        structural.append(f"stream removed: {stream}")
    for stream in sorted(old_streams & new_streams):
        if old.stream_bandwidth(stream) != new.stream_bandwidth(stream):
            structural.append(f"stream bandwidth changed: {stream}")

    old_reflectors, new_reflectors = set(old.reflectors), set(new.reflectors)
    for reflector in sorted(new_reflectors - old_reflectors):
        structural.append(f"reflector added: {reflector}")
    for reflector in sorted(old_reflectors - new_reflectors):
        structural.append(f"reflector removed: {reflector}")
    for reflector in sorted(old_reflectors & new_reflectors):
        if old.reflector_info(reflector) != new.reflector_info(reflector):
            structural.append(f"reflector attributes changed: {reflector}")

    old_sinks, new_sinks = set(old.sinks), set(new.sinks)
    sinks_added = {sink: sink_attachment(new, sink) for sink in sorted(new_sinks - old_sinks)}
    sinks_removed = {sink: sink_attachment(old, sink) for sink in sorted(old_sinks - new_sinks)}
    surviving = old_sinks & new_sinks

    old_delivery, new_delivery = _delivery_specs(old), _delivery_specs(new)
    delivery_changed: dict[LinkKey, tuple[DeliveryEdgeSpec | None, DeliveryEdgeSpec | None]] = {}
    for key in sorted(set(old_delivery) | set(new_delivery)):
        _reflector, sink = key
        if sink not in surviving:
            continue  # carried by the sink attachment instead
        before, after = old_delivery.get(key), new_delivery.get(key)
        if before != after:
            delivery_changed[key] = (before, after)

    old_edges, new_edges = _stream_specs(old), _stream_specs(new)
    stream_edges_changed: dict[LinkKey, tuple[StreamEdgeSpec | None, StreamEdgeSpec | None]] = {}
    for key in sorted(set(old_edges) | set(new_edges)):
        stream, reflector = key
        if stream not in (old_streams & new_streams) or reflector not in (
            old_reflectors & new_reflectors
        ):
            continue  # already a structural change
        before, after = old_edges.get(key), new_edges.get(key)
        if before != after:
            stream_edges_changed[key] = (before, after)

    old_demands, new_demands = _demand_thresholds(old), _demand_thresholds(new)
    demands_changed: dict[DemandKey, tuple[float | None, float | None]] = {}
    for key in sorted(set(old_demands) | set(new_demands)):
        sink, _stream = key
        if sink not in surviving:
            continue  # carried by the sink attachment instead
        before, after = old_demands.get(key), new_demands.get(key)
        if before != after:
            demands_changed[key] = (before, after)

    return ProblemDelta(
        sinks_added=sinks_added,
        sinks_removed=sinks_removed,
        delivery_changed=delivery_changed,
        stream_edges_changed=stream_edges_changed,
        demands_changed=demands_changed,
        structural=tuple(structural),
    )


def invert_delta(delta: ProblemDelta) -> ProblemDelta:
    """The delta taking the *new* state back to the *old* one.

    ``diff(a, b)`` inverted equals ``diff(b, a)``; applying a delta and then
    its inverse is a content-exact round trip (checked by the property
    suite via :func:`repro.core.serialization.problem_digest`).
    """
    return ProblemDelta(
        sinks_added=dict(delta.sinks_removed),
        sinks_removed=dict(delta.sinks_added),
        delivery_changed={
            key: (after, before)
            for key, (before, after) in delta.delivery_changed.items()
        },
        stream_edges_changed={
            key: (after, before)
            for key, (before, after) in delta.stream_edges_changed.items()
        },
        demands_changed={
            key: (after, before)
            for key, (before, after) in delta.demands_changed.items()
        },
        structural=delta.structural,
    )


# ---------------------------------------------------------------------------
# Applying
# ---------------------------------------------------------------------------


def _stream_spec(problem: OverlayDesignProblem, key: LinkKey) -> StreamEdgeSpec | None:
    if not problem.has_stream_edge(*key):
        return None
    edge = problem.stream_edge(*key)
    return StreamEdgeSpec(edge.loss_probability, edge.cost)


def apply_delta(
    problem: OverlayDesignProblem, delta: ProblemDelta, name: str | None = None
) -> OverlayDesignProblem:
    """Apply ``delta`` to ``problem``, producing the new problem state.

    Raises ``ValueError`` when the delta records structural changes (those
    require rebuilding the problem at the source) or when a changed entry's
    *old* side disagrees with ``problem`` (a stale delta).  A value the
    delta brings in is checked as the ``add_*`` methods check it
    (``KeyError`` for an unknown name, ``ValueError`` for a bad number), and
    so is a link or demand that a removed sink's attachment leaves out.

    The result's tables are in canonical sorted order, so applying a delta
    and then its inverse reproduces the original problem content-exactly.
    It copies ``problem``'s tables and patches only the entries the delta
    names (``OverlayDesignProblem._patched``): Python work in proportion to
    the delta, plus C-level table copies.
    """
    if delta.requires_full_redesign:
        raise ValueError(
            "delta records structural changes and cannot be applied "
            f"incrementally: {'; '.join(delta.structural)}"
        )
    for sink in delta.sinks_added:
        if problem._has_sink(sink):
            raise ValueError(f"delta adds sink {sink!r} which already exists")
    for sink in delta.sinks_removed:
        if not problem._has_sink(sink):
            raise ValueError(f"delta removes sink {sink!r} which does not exist")

    # Each named entry's new state; None removes it.
    links: dict[LinkKey, DeliveryEdgeSpec | None] = {}
    for sink, attachment in delta.sinks_removed.items():
        for reflector, _spec in attachment.delivery:
            links[(reflector, sink)] = None
    for sink, attachment in delta.sinks_added.items():
        for reflector, spec in attachment.delivery:
            links[(reflector, sink)] = spec
    for key, (before, after) in delta.delivery_changed.items():
        if (links[key] if key in links else _link_spec(problem, key)) != before:
            raise ValueError(f"stale delta: delivery edge {key} is not {before}")
        links[key] = after

    for key, (before, _after) in delta.stream_edges_changed.items():
        if _stream_spec(problem, key) != before:
            raise ValueError(f"stale delta: stream edge {key} is not {before}")

    demands: dict[DemandKey, float | None] = {}
    for sink, attachment in delta.sinks_removed.items():
        for stream, _threshold in attachment.demands:
            demands[(sink, stream)] = None
    for sink, attachment in delta.sinks_added.items():
        for stream, threshold in attachment.demands:
            demands[(sink, stream)] = threshold
    for key, (before, after) in delta.demands_changed.items():
        if key in demands:
            current = demands[key]
        else:
            demand = problem._demand(key)
            current = None if demand is None else demand.success_threshold
        if current != before:
            raise ValueError(f"stale delta: demand {key} threshold is not {before}")
        demands[key] = after

    stream_edges = {
        key: None if after is None else (after.loss_probability, after.cost)
        for key, (_before, after) in delta.stream_edges_changed.items()
    }
    return problem._patched(
        name or problem.name,
        sinks_removed=delta.sinks_removed,
        sinks_added=delta.sinks_added,
        stream_edges=stream_edges,
        links={
            key: None
            if spec is None
            else (spec.loss_probability, spec.cost, spec.stream_costs_dict(), spec.capacity)
            for key, spec in links.items()
        },
        demands=demands,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# A delta's link, stream-edge and demand entries share the problem tables'
# field declarations (repro.core.serialization): each field is written once.
LINK = Doc(_link, [LOSS_PROBABILITY, COST, STREAM_COSTS, CAPACITY])
STREAM_EDGE = Doc(StreamEdgeSpec, [LOSS_PROBABILITY, COST])
_AttachedLink = namedtuple(
    "_AttachedLink", "reflector loss_probability cost stream_costs capacity", defaults=(None, None)
)
_AttachedDemand = namedtuple("_AttachedDemand", "stream success_threshold")
#: A changed entry: its two key names and its ``(old, new)`` states.
_Change = namedtuple("_Change", "first second old new", defaults=(None, None))


def _attachment(delivery: list = (), demands: list = ()) -> SinkAttachment:
    links = sorted((link[0], _link(*link[1:])) for link in delivery)
    return SinkAttachment(delivery=tuple(links), demands=tuple(sorted(demands)))


def _attached_links(attachment: SinkAttachment) -> list:
    values = attrgetter(*_AttachedLink._fields[1:])
    return [_AttachedLink(reflector, *values(spec)) for reflector, spec in attachment.delivery]


ATTACHED_LINK = Doc(_AttachedLink, [NAME["reflector"], *LINK.fields])
ATTACHMENT = Doc(
    _attachment,
    [
        Field("delivery", Rows(ATTACHED_LINK), get=_attached_links),
        Field(
            "demands",
            Rows(Doc(_AttachedDemand, [NAME["stream"], SUCCESS_THRESHOLD])),
            get=lambda attachment: list(map(_AttachedDemand._make, attachment.demands)),
        ),
    ],
)


def _changes(table: str, first: str, second: str, state: Any) -> Field:
    """The ``table`` field: a list of changed entries keyed by ``first``/``second``."""
    fields = [
        Field(first, STRING, required=True, attr="first"),
        Field(second, STRING, required=True, attr="second"),
        Field("old", state, nullable=True),
        Field("new", state, nullable=True),
    ]

    def rows(delta: ProblemDelta) -> list:
        return [_Change(*key, *pair) for key, pair in sorted(getattr(delta, table).items())]

    return Field(table, Rows(Doc(_Change, fields)), get=rows)


def _delta(sinks_added=None, sinks_removed=None, structural=(), **changed: list) -> ProblemDelta:
    return ProblemDelta(
        sinks_added=sinks_added or {},
        sinks_removed=sinks_removed or {},
        structural=tuple(structural),
        **{
            table: {(change.first, change.second): (change.old, change.new) for change in changes}
            for table, changes in changed.items()
        },
    )


DELTA = Doc(
    _delta,
    [
        Field("sinks_added", MapOf(ATTACHMENT, sort=True)),
        Field("sinks_removed", MapOf(ATTACHMENT, sort=True)),
        _changes("delivery_changed", "reflector", "sink", LINK),
        _changes("stream_edges_changed", "stream", "reflector", STREAM_EDGE),
        _changes("demands_changed", "sink", "stream", NUMBER),
        Field("structural", Rows(STRING)),
    ],
    header={"format_version": DELTA_FORMAT_VERSION, "kind": "problem-delta"},
)


def delta_to_dict(delta: ProblemDelta) -> dict[str, Any]:
    """Encode a delta as a versioned JSON-compatible document (:data:`DELTA`)."""
    return DELTA.encode(delta)


def delta_from_dict(data: Any) -> ProblemDelta:
    """Decode a delta from a :func:`delta_to_dict` document.

    Anything else raises :class:`~repro.core.serialization.DocumentError`
    naming the field, e.g. ``delta.delivery_changed[0]: missing 'reflector'``
    or ``delta.sinks_added.edge7.delivery[0].loss_probability must be a
    number, got str``.  Names must be strings and costs, probabilities,
    capacities and thresholds numbers, so a decoded delta reaches
    :func:`apply_delta` well typed; whether its names exist in a problem,
    and whether its numbers are in range, is :func:`apply_delta`'s check.
    """
    return DELTA.decode(data, "delta")


__all__ = [
    "DELTA_FORMAT_VERSION",
    "DeliveryEdgeSpec",
    "ProblemDelta",
    "SinkAttachment",
    "StreamEdgeSpec",
    "apply_delta",
    "delta_from_dict",
    "delta_to_dict",
    "diff_problems",
    "invert_delta",
    "sink_attachment",
]
