"""The 3-level overlay network design problem (Section 2 of the paper).

An :class:`OverlayDesignProblem` captures the input of the
"3-level network reliability min-cost multicommodity flow problem":

* a set of *streams* (commodities), one per entrypoint / source;
* a set of *reflectors*, each with a build cost ``r_i`` and a fanout bound
  ``F_i`` (and, optionally, a *color* identifying its ISP for the Section 6.4
  extension and a capacity for Section 6.2/6.3);
* a set of *sinks* (edgeservers);
* *stream edges* source->reflector with loss probability ``p_ki`` and
  per-stream carriage cost ``c^k_ki``;
* *delivery edges* reflector->sink with loss probability ``p_ij`` and cost
  ``c^k_ij`` (optionally per-stream);
* *demands*: (sink, stream, success threshold ``Phi``) triples.

The paper assumes WLOG that each sink demands a single commodity (multi-demand
sinks are split into copies).  Here each :class:`Demand` object *is* that
(sink, stream) copy, so ``n`` -- the paper's number of sinks -- equals
``len(problem.demands)``, and no explicit splitting step is needed.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, insort
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Collection, Container, Hashable, Iterable, Mapping

import numpy as np

from repro.core.index import IndexOrigin, ProblemIndex, builtin_sums, problem_index
from repro.core.weights import (
    edge_weight,
    path_failure_probability,
    threshold_to_weight,
)


@dataclass(frozen=True)
class StreamEdge:
    """Edge from a source (stream) to a reflector.

    Attributes
    ----------
    stream, reflector:
        Endpoint identifiers.
    loss_probability:
        ``p_ki`` -- probability that a packet of the stream is lost on the way
        to the reflector.
    cost:
        ``c^k_ki`` -- cost of forwarding the stream to this reflector.
    """

    stream: str
    reflector: str
    loss_probability: float
    cost: float


@dataclass(frozen=True)
class DeliveryEdge:
    """Edge from a reflector to a sink, carrying a specific stream.

    Attributes
    ----------
    stream, reflector, sink:
        Identifiers; the stream matters because carriage cost may depend on the
        commodity (different encodings have different bitrates).
    loss_probability:
        ``p_ij`` -- loss probability of the reflector->sink link (independent
        of the stream).
    cost:
        ``c^k_ij`` -- cost of sending this stream over the link.
    """

    stream: str
    reflector: str
    sink: str
    loss_probability: float
    cost: float


@dataclass(frozen=True)
class Demand:
    """A (sink, stream) pair with a required success probability ``Phi``."""

    sink: str
    stream: str
    success_threshold: float

    @property
    def key(self) -> tuple[str, str]:
        return (self.sink, self.stream)


@dataclass
class ReflectorInfo:
    """Static attributes of a reflector."""

    name: str
    cost: float
    fanout: int
    color: Hashable | None = None
    capacity: float | None = None  # Section 6.2 extension: max distinct streams


@dataclass
class FeasibilityIssue:
    """A demand that cannot be met even using every reflector (diagnostic)."""

    demand: Demand
    required_weight: float
    available_weight: float
    reachable_reflectors: int


class OverlayDesignProblem:
    """Mutable builder + immutable view of a 3-level overlay design instance.

    Build an instance by adding streams, reflectors, sinks, edges and demands;
    then hand it to a registered designer in a
    :class:`repro.api.DesignRequest` (``repro.api.run_request``).

    Examples
    --------
    >>> problem = OverlayDesignProblem()
    >>> problem.add_stream("event")
    >>> problem.add_reflector("r1", cost=5.0, fanout=10)
    >>> problem.add_sink("boston")
    >>> problem.add_stream_edge("event", "r1", loss_probability=0.01, cost=1.0)
    >>> problem.add_delivery_edge("r1", "boston", loss_probability=0.05, cost=0.5)
    >>> problem.add_demand("boston", "event", success_threshold=0.9)
    >>> problem.num_demands
    1
    """

    #: Memos of :func:`repro.core.serialization.problem_digest` and
    #: :func:`repro.core.index.problem_index`.  The content changes only
    #: through the ``add_*`` methods, and each one clears them.  Pickles and
    #: copies leave them out, so they digest and index their own content.
    _digest: str | None = None
    _index: ProblemIndex | None = None
    #: How :meth:`_patched` made this problem from a parent whose index was
    #: built, until this problem's own index is derived from it.
    _index_origin: IndexOrigin | None = None
    #: True when every table is in canonical sorted order (:meth:`_patched`
    #: builds them so); every ``add_*`` clears it.
    _canonical: bool = False

    def __init__(self, name: str = "overlay-design") -> None:
        self.name = name
        self._streams: list[str] = []
        self._stream_set: set[str] = set()
        self._reflectors: dict[str, ReflectorInfo] = {}
        self._sinks: list[str] = []
        self._sink_set: set[str] = set()
        self._stream_edges: dict[tuple[str, str], StreamEdge] = {}
        self._delivery_links: dict[tuple[str, str], tuple[float, float]] = {}
        # Inverted index sink -> reflectors with a delivery edge, so candidate
        # lookups cost O(candidates) instead of scanning every reflector (the
        # difference between seconds and hours at internet scale).
        self._sink_reflectors: dict[str, list[str]] = {}
        self._reflector_order: dict[str, int] = {}
        self._delivery_stream_costs: dict[tuple[str, str], dict[str, float]] = {}
        self._demands: dict[tuple[str, str], Demand] = {}
        self._stream_bandwidth: dict[str, float] = {}
        self._arc_capacity: dict[tuple[str, str], float] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for memo in ("_digest", "_index", "_index_origin"):
            state.pop(memo, None)
        return state

    # --------------------------------------------------------------- building
    def add_stream(self, stream: str, bandwidth: float = 1.0) -> None:
        """Register a stream (commodity).

        ``bandwidth`` is only used by the Section 6.1 extension (``B^k``); the
        base formulation treats every stream as one unit of fanout.
        """
        self._digest = self._index = self._index_origin = None
        self._canonical = False
        if stream in self._stream_set:
            raise ValueError(f"stream {stream!r} already exists")
        if not 0.0 < bandwidth < math.inf:
            raise ValueError(f"stream bandwidth must be positive and finite, got {bandwidth}")
        self._streams.append(stream)
        self._stream_set.add(stream)
        self._stream_bandwidth[stream] = float(bandwidth)

    def add_reflector(
        self,
        reflector: str,
        cost: float,
        fanout: int,
        color: Hashable | None = None,
        capacity: float | None = None,
    ) -> None:
        """Register a reflector with build cost ``r_i`` and fanout bound ``F_i``.

        ``color`` groups reflectors (e.g. by ISP) for the Section 6.4
        color-constraint extension; ``capacity`` bounds the number of distinct
        streams delivered to the reflector (Section 6.2, constraint (8)).
        """
        self._digest = self._index = self._index_origin = None
        self._canonical = False
        if reflector in self._reflectors:
            raise ValueError(f"reflector {reflector!r} already exists")
        _check_build(reflector, cost, fanout)
        if capacity is not None and not 0.0 < capacity < math.inf:
            raise ValueError(f"reflector capacity must be positive and finite, got {capacity}")
        # A color keys the ISP groups, so it must be a hashable scalar.
        if isinstance(color, bool) or not isinstance(color, (str, numbers.Real, type(None))):
            raise TypeError(f"reflector {reflector!r}: color must be a string, a number or None")
        self._reflector_order[reflector] = len(self._reflectors)
        self._reflectors[reflector] = ReflectorInfo(
            name=reflector, cost=float(cost), fanout=int(fanout), color=color, capacity=capacity
        )

    def add_sink(self, sink: str) -> None:
        """Register a sink (edgeserver)."""
        self._digest = self._index = self._index_origin = None
        self._canonical = False
        if sink in self._sink_set:
            raise ValueError(f"sink {sink!r} already exists")
        self._sinks.append(sink)
        self._sink_set.add(sink)

    def add_stream_edge(
        self, stream: str, reflector: str, loss_probability: float, cost: float
    ) -> None:
        """Add the source->reflector edge for ``stream`` (at most one per pair)."""
        self._digest = self._index = self._index_origin = None
        self._canonical = False
        self._check_stream_edge(stream, reflector, loss_probability, cost, self._stream_edges)
        self._stream_edges[stream, reflector] = StreamEdge(
            stream, reflector, float(loss_probability), float(cost)
        )

    def add_delivery_edge(
        self,
        reflector: str,
        sink: str,
        loss_probability: float,
        cost: float,
        stream_costs: Mapping[str, float] | None = None,
        capacity: float | None = None,
    ) -> None:
        """Add the reflector->sink link.

        ``cost`` is the default per-stream carriage cost; ``stream_costs``
        overrides it for specific streams (the paper allows ``c^k_ij`` to depend
        on the commodity, e.g. to capture different encoding bitrates).
        ``capacity`` bounds the number of streams on the link (Section 6.3,
        constraint (7')).
        """
        self._digest = self._index = self._index_origin = None
        self._canonical = False
        self._check_link(
            reflector, sink, loss_probability, cost, stream_costs, capacity, self._delivery_links
        )
        key = (reflector, sink)
        self._delivery_links[key] = (float(loss_probability), float(cost))
        self._sink_reflectors.setdefault(sink, []).append(reflector)
        if stream_costs:
            self._delivery_stream_costs[key] = _float_values(stream_costs)
        if capacity is not None:
            self._arc_capacity[key] = float(capacity)

    def add_demand(self, sink: str, stream: str, success_threshold: float) -> None:
        """Require ``sink`` to receive ``stream`` with success probability >= threshold."""
        self._digest = self._index = self._index_origin = None
        self._canonical = False
        self._check_demand(sink, stream, success_threshold, self._demands)
        self._demands[sink, stream] = Demand(sink, stream, float(success_threshold))

    # ----------------------------------------------------------------- access
    @property
    def streams(self) -> list[str]:
        return list(self._streams)

    @property
    def reflectors(self) -> list[str]:
        return list(self._reflectors)

    @property
    def sinks(self) -> list[str]:
        return list(self._sinks)

    @property
    def demands(self) -> list[Demand]:
        return list(self._demands.values())

    @property
    def num_streams(self) -> int:
        return len(self._streams)

    @property
    def num_reflectors(self) -> int:
        return len(self._reflectors)

    @property
    def num_sinks(self) -> int:
        return len(self._sinks)

    @property
    def num_demands(self) -> int:
        """The paper's ``n``: the number of (stream, sink) demand pairs."""
        return len(self._demands)

    def reflector_info(self, reflector: str) -> ReflectorInfo:
        self._require_reflector(reflector)
        return self._reflectors[reflector]

    def reflector_cost(self, reflector: str) -> float:
        return self.reflector_info(reflector).cost

    def fanout(self, reflector: str) -> int:
        return self.reflector_info(reflector).fanout

    def color(self, reflector: str) -> Hashable | None:
        return self.reflector_info(reflector).color

    def colors(self) -> dict[Hashable, list[str]]:
        """Reflectors grouped by color (reflectors without a color are skipped)."""
        groups: dict[Hashable, list[str]] = {}
        for name, info in self._reflectors.items():
            if info.color is not None:
                groups.setdefault(info.color, []).append(name)
        return groups

    def stream_bandwidth(self, stream: str) -> float:
        self._require_stream(stream)
        return self._stream_bandwidth[stream]

    def has_stream_edge(self, stream: str, reflector: str) -> bool:
        return (stream, reflector) in self._stream_edges

    def stream_edge(self, stream: str, reflector: str) -> StreamEdge:
        try:
            return self._stream_edges[(stream, reflector)]
        except KeyError:
            raise KeyError(f"no stream edge {stream!r} -> {reflector!r}") from None

    def stream_edges(self) -> list[StreamEdge]:
        return list(self._stream_edges.values())

    def has_delivery_link(self, reflector: str, sink: str) -> bool:
        return (reflector, sink) in self._delivery_links

    def delivery_loss(self, reflector: str, sink: str) -> float:
        try:
            return self._delivery_links[(reflector, sink)][0]
        except KeyError:
            raise KeyError(f"no delivery edge {reflector!r} -> {sink!r}") from None

    def delivery_cost(self, reflector: str, sink: str, stream: str) -> float:
        loss_cost = self._delivery_links.get((reflector, sink))
        if loss_cost is None:
            raise KeyError(f"no delivery edge {reflector!r} -> {sink!r}")
        overrides = self._delivery_stream_costs.get((reflector, sink))
        if overrides and stream in overrides:
            return overrides[stream]
        return loss_cost[1]

    def delivery_links(self) -> list[tuple[str, str]]:
        """All (reflector, sink) pairs with a delivery edge."""
        return list(self._delivery_links)

    def delivery_link_data(self) -> list[tuple[str, str, float, float]]:
        """``(reflector, sink, loss, base_cost)`` per link, in insertion order.

        Bulk accessor for the vectorized LP builder: one call instead of two
        per-link lookups, so instance data can be lifted into numpy arrays.
        """
        return [
            (reflector, sink, loss, cost)
            for (reflector, sink), (loss, cost) in self._delivery_links.items()
        ]

    def delivery_stream_cost_overrides(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per-stream cost overrides: ``(reflector, sink) -> {stream: cost}``."""
        return {key: dict(value) for key, value in self._delivery_stream_costs.items()}

    def arc_capacities(self) -> dict[tuple[str, str], float]:
        """All declared Section-6.3 arc capacities: ``(reflector, sink) -> u_ij``."""
        return dict(self._arc_capacity)

    def arc_capacity(self, reflector: str, sink: str) -> float | None:
        """Section 6.3 capacity of the reflector->sink arc, or None."""
        return self._arc_capacity.get((reflector, sink))

    def reflector_capacity(self, reflector: str) -> float | None:
        """Section 6.2 capacity (max distinct streams) of a reflector, or None."""
        return self.reflector_info(reflector).capacity

    # ----------------------------------------------------- derived quantities
    def candidate_reflectors(self, demand: Demand) -> list[str]:
        """Reflectors that can serve ``demand`` (both edges present).

        Listed in reflector registration order (the order a full scan of
        ``self._reflectors`` would produce), via the per-sink delivery index.
        """
        stream = demand.stream
        candidates = [
            reflector
            for reflector in self._sink_reflectors.get(demand.sink, ())
            if (stream, reflector) in self._stream_edges
        ]
        candidates.sort(key=self._reflector_order.__getitem__)
        return candidates

    def path_failure(self, demand: Demand, reflector: str) -> float:
        """Two-hop failure probability for serving ``demand`` via ``reflector``."""
        stream_edge = self.stream_edge(demand.stream, reflector)
        delivery_loss = self.delivery_loss(reflector, demand.sink)
        return path_failure_probability(stream_edge.loss_probability, delivery_loss)

    def demand_weight(self, demand: Demand) -> float:
        """``W_kj = -log(1 - Phi)`` for the demand."""
        return threshold_to_weight(demand.success_threshold)

    def edge_weight(self, demand: Demand, reflector: str, cap_at_demand: bool = True) -> float:
        """``w_kij`` for serving ``demand`` through ``reflector``.

        When ``cap_at_demand`` is True (the default, matching the paper's WLOG
        assumption), the weight is capped at the demand weight ``W_kj``.
        """
        stream_edge = self.stream_edge(demand.stream, reflector)
        delivery_loss = self.delivery_loss(reflector, demand.sink)
        cap = self.demand_weight(demand) if cap_at_demand else None
        return edge_weight(stream_edge.loss_probability, delivery_loss, demand_weight=cap)

    def assignment_cost(self, demand: Demand, reflector: str) -> float:
        """Cost ``c^k_ij`` of assigning ``demand`` to ``reflector`` (delivery leg only)."""
        return self.delivery_cost(reflector, demand.sink, demand.stream)

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Raise ``ValueError`` if the instance is structurally incomplete.

        Checks that every demand has at least one candidate reflector and that
        the instance has at least one stream, reflector, sink and demand.
        """
        if not self._streams:
            raise ValueError("problem has no streams")
        if not self._reflectors:
            raise ValueError("problem has no reflectors")
        if not self._sinks:
            raise ValueError("problem has no sinks")
        if not self._demands:
            raise ValueError("problem has no demands")
        index = problem_index(self)
        unreachable = np.flatnonzero(np.diff(index.candidate_ptr) == 0)
        if unreachable.size:
            raise ValueError(
                f"demand {index.keys[unreachable[0]]} has no candidate reflectors "
                "(missing stream edge or delivery edge)"
            )

    def feasibility_report(self) -> list[FeasibilityIssue]:
        """Demands whose weight requirement cannot be met even using all reflectors.

        The LP is infeasible exactly when this list is non-empty (ignoring
        fanout contention); callers can use it to produce actionable error
        messages before running the full algorithm.
        """
        index = problem_index(self)
        reachable = np.diff(index.candidate_ptr)
        available = builtin_sums(index.candidate_demand, index.candidate_weight, index.num_demands)
        short = np.flatnonzero(available + 1e-12 < index.demand_weight)
        return [
            FeasibilityIssue(
                demand=index.demands[d],
                required_weight=float(index.demand_weight[d]),
                # sum() over no candidates is the int 0.
                available_weight=float(available[d]) if reachable[d] else 0,
                reachable_reflectors=int(reachable[d]),
            )
            for d in short.tolist()
        ]

    # ---------------------------------------------------------------- helpers
    def _require_stream(self, stream: str) -> None:
        if stream not in self._stream_set:
            raise KeyError(f"unknown stream {stream!r}")

    def _require_reflector(self, reflector: str) -> None:
        if reflector not in self._reflectors:
            raise KeyError(f"unknown reflector {reflector!r}")

    def _require_sink(self, sink: str) -> None:
        if sink not in self._sink_set:
            raise KeyError(f"unknown sink {sink!r}")

    # The add_* checks, shared with _patched: an entry's names and values,
    # then that its key is not in ``existing`` yet (add_* passes its table).
    def _check_stream_edge(
        self,
        stream: str,
        reflector: str,
        loss_probability: float,
        cost: float,
        existing: Container = (),
    ) -> None:
        self._require_stream(stream)
        self._require_reflector(reflector)
        _check_probability(loss_probability)
        _check_cost(cost)
        if (stream, reflector) in existing:
            raise ValueError(f"stream edge {(stream, reflector)} already exists")

    def _check_link(
        self,
        reflector: str,
        sink: str,
        loss_probability: float,
        cost: float,
        stream_costs: Mapping[str, float] | None,
        capacity: float | None,
        existing: Container = (),
    ) -> None:
        self._require_reflector(reflector)
        self._require_sink(sink)
        _check_probability(loss_probability)
        _check_cost(cost)
        if (reflector, sink) in existing:
            raise ValueError(f"delivery edge {(reflector, sink)} already exists")
        if stream_costs:
            for stream, stream_cost in stream_costs.items():
                self._require_stream(stream)
                _check_cost(stream_cost, "per-stream cost")
        if capacity is not None and not 0.0 < capacity < math.inf:
            raise ValueError(f"arc capacity must be positive and finite, got {capacity}")

    def _check_demand(
        self, sink: str, stream: str, success_threshold: float, existing: Container = ()
    ) -> None:
        self._require_sink(sink)
        self._require_stream(stream)
        if not 0.0 < success_threshold < 1.0:
            raise ValueError(
                f"success threshold must lie strictly between 0 and 1, got {success_threshold}"
            )
        if (sink, stream) in existing:
            raise ValueError(f"demand {(sink, stream)} already exists")

    # ------------------------------------------------------ per-entry patches
    def _has_sink(self, sink: str) -> bool:
        return sink in self._sink_set

    def _link(self, key: tuple[str, str]) -> _LinkArguments | None:
        """Link ``key``'s ``add_delivery_edge`` arguments after the names, or None."""
        row = self._delivery_links.get(key)
        if row is None:
            return None
        return (*row, self._delivery_stream_costs.get(key), self._arc_capacity.get(key))

    def _demand(self, key: tuple[str, str]) -> Demand | None:
        return self._demands.get(key)

    def _patched(
        self,
        name: str,
        *,
        sinks_removed: Collection[str],
        sinks_added: Collection[str],
        stream_edges: Mapping[tuple[str, str], tuple[float, float] | None],
        links: Mapping[tuple[str, str], _LinkArguments | None],
        demands: Mapping[tuple[str, str], float | None],
    ) -> OverlayDesignProblem:
        """A copy of this problem with the named entries set (``None`` removes one).

        The bulk constructor behind ``repro.incremental.apply_delta``.  Entries
        are keyed as their ``add_*`` method names them and valued by that
        method's remaining arguments.  The copy's tables are in canonical
        sorted order, as adding every entry in sorted order would leave them
        (only ``_sink_reflectors``' key order differs; it is read by key).
        Given values pass the ``add_*`` checks in the order that rebuild
        would meet them (stream edges, links, demands; each by key), so the
        first bad one raises the same error; carried entries were checked
        when they were added.  Removing a sink removes nothing else: a link
        or demand of it that is not removed too stays, and fails its check.

        Python work is per named entry, plus per reflector and per link
        with per-stream costs; the rest are C-level table copies.  A parent
        that is not canonical pays one sort of each table.  Mutable entries
        (reflector records, per-stream cost dicts, per-sink lists) are copied.
        A parent whose index is built leaves the copy an
        :class:`~repro.core.index.IndexOrigin`, so the copy's index is
        derived from it.
        """
        canonical = self._canonical
        child = OverlayDesignProblem(name)
        streams = self._streams if canonical else sorted(self._streams)
        child._streams = list(streams)
        child._stream_set = set(streams)
        child._stream_bandwidth = {stream: self._stream_bandwidth[stream] for stream in streams}
        reflectors = self._reflectors if canonical else sorted(self._reflectors)
        child._reflectors = {
            reflector: replace(self._reflectors[reflector]) for reflector in reflectors
        }
        child._reflector_order = {reflector: at for at, reflector in enumerate(child._reflectors)}
        sinks = self._sinks if canonical else sorted(self._sinks)
        (child._sinks,) = _spliced([sinks], sinks_removed, [(sink,) for sink in sinks_added])
        child._sink_set = self._sink_set.difference(sinks_removed).union(sinks_added)

        for key in sorted(key for key, edge in stream_edges.items() if edge is not None):
            child._check_stream_edge(*key, *stream_edges[key])
        checked_links = {key: link for key, link in links.items() if link is not None}
        checked_demands = {key: value for key, value in demands.items() if value is not None}
        for sink in sinks_removed:
            for reflector in self._sink_reflectors.get(sink, ()):
                if (reflector, sink) not in links:
                    checked_links[(reflector, sink)] = self._link((reflector, sink))
            for stream in streams:
                if (sink, stream) in self._demands and (sink, stream) not in demands:
                    checked_demands[(sink, stream)] = self._demands[sink, stream].success_threshold
        for key in sorted(checked_links):
            child._check_link(*key, *checked_links[key])
        for key in sorted(checked_demands):
            child._check_demand(*key, checked_demands[key])

        child._stream_edges = _merged(
            self._stream_edges,
            {
                key: None if edge is None else StreamEdge(*key, float(edge[0]), float(edge[1]))
                for key, edge in stream_edges.items()
            },
            canonical,
        )
        child._delivery_links = _merged(
            self._delivery_links,
            {
                key: None if link is None else (float(link[0]), float(link[1]))
                for key, link in links.items()
            },
            canonical,
        )
        child._delivery_stream_costs = _merged(
            {key: dict(sorted(own.items())) for key, own in self._delivery_stream_costs.items()},
            {
                key: _float_values(link[2]) if link and link[2] else None
                for key, link in links.items()
            },
            canonical,
        )
        child._arc_capacity = _merged(
            self._arc_capacity,
            {
                key: None if link is None or link[3] is None else float(link[3])
                for key, link in links.items()
            },
            canonical,
        )
        child._demands = _merged(
            self._demands,
            {
                key: None if value is None else Demand(*key, float(value))
                for key, value in demands.items()
            },
            canonical,
        )

        reflectors_of = dict(
            zip(
                self._sink_reflectors,
                map(list if canonical else sorted, self._sink_reflectors.values()),
            )
        )
        for sink in sinks_removed:
            reflectors_of.pop(sink, None)
        for (reflector, sink), link in links.items():
            if (reflector, sink) not in self._delivery_links:
                if link is not None:
                    insort(reflectors_of.setdefault(sink, []), reflector)
            elif link is None and sink in reflectors_of:
                reflectors_of[sink].remove(reflector)
                if not reflectors_of[sink]:
                    del reflectors_of[sink]
        child._sink_reflectors = reflectors_of
        child._canonical = True
        if self._index is not None:
            child._index_origin = IndexOrigin(
                self._index, canonical, stream_edges.keys(), links.keys(), demands.keys()
            )
        return child

    def _cut(
        self,
        name: str,
        *,
        streams: Iterable[str],
        reflectors: Iterable[str],
        sinks: Iterable[str],
        stream_edges: Iterable[tuple[str, str]],
        demands: Iterable[tuple[str, str]],
        link_sinks: Iterable[str],
        fanouts: Mapping[str, int],
        reflector_costs: Mapping[str, float],
        stream_edge_costs: Mapping[tuple[str, str], float],
    ) -> OverlayDesignProblem:
        """The named rows of this problem, in the tables adding them would give.

        The bulk constructor behind ``repro.scale.extract_shard_problem``:
        rows are named in table order, and each of ``link_sinks`` keeps its
        links to kept reflectors, in ``_sink_reflectors`` order.  Kept rows
        were checked when they were added; only the override values are, as
        ``add_*`` would, in its order.  Immutable rows are shared; reflector
        records and per-stream cost dicts are copied.
        """
        child = OverlayDesignProblem(name)
        child._streams = list(streams)
        child._stream_set = set(child._streams)
        child._stream_bandwidth = {s: self._stream_bandwidth[s] for s in child._streams}
        for reflector in reflectors:
            info = self._reflectors[reflector]
            cost = reflector_costs.get(reflector, info.cost)
            fanout = fanouts.get(reflector, info.fanout)
            if reflector in fanouts or reflector in reflector_costs:
                _check_build(reflector, cost, fanout)
            child._reflectors[reflector] = replace(info, cost=float(cost), fanout=int(fanout))
        child._reflector_order = dict(zip(child._reflectors, range(len(child._reflectors))))
        child._sinks = list(sinks)
        child._sink_set = set(child._sinks)
        for key in stream_edges:
            edge = self._stream_edges[key]
            if key in stream_edge_costs:
                _check_cost(stream_edge_costs[key])
                edge = replace(edge, cost=float(stream_edge_costs[key]))
            child._stream_edges[key] = edge

        kept = child._reflectors
        for sink in link_sinks:
            reflectors_of = [r for r in self._sink_reflectors.get(sink, ()) if r in kept]
            if reflectors_of:
                child._sink_reflectors[sink] = reflectors_of
        links = [(r, sink) for sink, of in child._sink_reflectors.items() for r in of]
        child._delivery_links = {key: self._delivery_links[key] for key in links}
        for key in links:
            own = self._delivery_stream_costs.get(key, {})
            costs = {stream: cost for stream, cost in own.items() if stream in child._stream_set}
            if costs:
                child._delivery_stream_costs[key] = costs
            if key in self._arc_capacity:
                child._arc_capacity[key] = self._arc_capacity[key]
        child._demands = {key: self._demands[key] for key in demands}
        child._canonical = False
        return child

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"OverlayDesignProblem(name={self.name!r}, streams={self.num_streams}, "
            f"reflectors={self.num_reflectors}, sinks={self.num_sinks}, "
            f"demands={self.num_demands})"
        )


#: A link's ``add_delivery_edge`` arguments after its names:
#: ``(loss_probability, cost, stream_costs, capacity)``.
_LinkArguments = tuple[float, float, "Mapping[str, float] | None", "float | None"]


def _check_build(reflector: str, cost: float, fanout: int) -> None:
    """``add_reflector``'s checks of a build cost and a fanout bound."""
    if not 0.0 <= cost < math.inf:
        raise ValueError(f"reflector cost must be non-negative and finite, got {cost}")
    if (
        isinstance(fanout, bool)
        or not isinstance(fanout, numbers.Real)
        or not float(fanout).is_integer()
    ):
        raise ValueError(f"reflector {reflector!r}: fanout must be an integer, got {fanout!r}")
    if fanout <= 0:
        raise ValueError(f"reflector fanout must be positive, got {fanout}")


def _check_probability(value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"loss probability must lie in [0, 1], got {value}")


def _check_cost(value: float, what: str = "edge cost") -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{what} must be non-negative and finite, got {value}")


def _float_values(mapping: Mapping[str, float]) -> dict[str, float]:
    return {key: float(value) for key, value in mapping.items()}


def _spliced(columns: list[list], removed: Iterable, added: Iterable[tuple]) -> list[list] | None:
    """Sorted rows less the ``removed`` keys and plus the ``added`` rows, still sorted.

    ``columns[0]`` holds the rows' unique sort keys and each further column
    one value per row; an ``added`` row holds one value per column.  Python
    work is per changed row, the rest one C-level copy per column; the
    result never shares a list with ``columns``.  ``None`` when a removed
    key is absent.
    """
    keys = columns[0]
    cuts = []
    for key in sorted(removed):
        at = bisect_left(keys, key)
        if at == len(keys) or keys[at] != key:
            return None
        cuts.append(at)
    added = sorted(added)
    inserts = [bisect_left(keys, row[0]) for row in added]
    spliced = []
    for index, column in enumerate(columns):
        out, start, next_cut = [], 0, 0
        for at, row in zip(inserts, added):
            while next_cut < len(cuts) and cuts[next_cut] < at:
                out += column[start : cuts[next_cut]]
                start = cuts[next_cut] + 1
                next_cut += 1
            out += column[start:at]
            out.append(row[index])
            start = at
        for at in cuts[next_cut:]:
            out += column[start:at]
            start = at + 1
        out += column[start:]
        spliced.append(out)
    return spliced


def _merged(table: dict, changes: Mapping, ordered: bool) -> dict:
    """A copy of ``table`` with ``changes`` set, keys in sorted order.

    A change to ``None`` removes its key.  An ``ordered`` table (keys
    already sorted) is copied with its hashes (C speed) and rebuilt in order
    only when new keys come in; any other is sorted once.
    """
    merged = dict(table)
    added = []
    for key, value in changes.items():
        if value is None:
            merged.pop(key, None)
        elif key in merged:
            merged[key] = value
        else:
            added.append((key, value))
    if not ordered:
        merged.update(added)
        return dict(sorted(merged.items(), key=itemgetter(0)))
    if not added:
        return merged
    keys, values = _spliced([list(merged), list(merged.values())], (), added)
    return dict(zip(keys, values))
