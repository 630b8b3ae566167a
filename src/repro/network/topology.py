"""Overlay topology: nodes, links, and the conversion to a design problem.

An :class:`OverlayTopology` is the Figure-1 object: a tripartite digraph of
entrypoints (sources), reflectors and edgeservers (sinks) with per-link loss
probabilities and bandwidth costs.  It carries more information than the
abstract :class:`repro.core.problem.OverlayDesignProblem` (geographic
coordinates, colo and ISP membership), which is what the workload generators
and the packet-level simulation need; :meth:`OverlayTopology.to_problem`
projects it down to the algorithm's input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.problem import OverlayDesignProblem


class NodeRole(Enum):
    """Role of a node in the three-level overlay."""

    SOURCE = "source"
    REFLECTOR = "reflector"
    SINK = "sink"


@dataclass(frozen=True)
class OverlayNode:
    """A machine (or cluster) participating in the overlay.

    Attributes
    ----------
    name:
        Unique identifier.
    role:
        Source (entrypoint), reflector, or sink (edgeserver).
    location:
        Planar coordinates used by the synthetic generators to derive loss
        probabilities and costs from distance.
    colo:
        Co-location center identifier (several nodes share one colo).
    isp:
        ISP homing the node; used as the reflector *color*.
    capacity:
        For reflectors: fanout bound (maximum simultaneous outgoing streams).
    cost:
        For reflectors: cost of operating the node (the ``r_i`` of the IP).
    """

    name: str
    role: NodeRole
    location: tuple[float, float] = (0.0, 0.0)
    colo: str | None = None
    isp: str | None = None
    capacity: int = 1
    cost: float = 0.0


@dataclass(frozen=True)
class OverlayLink:
    """A directed overlay link with measured loss probability and unit cost."""

    tail: str
    head: str
    loss_probability: float
    cost: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss probability must lie in [0, 1], got {self.loss_probability}"
            )
        if self.cost < 0:
            raise ValueError(f"link cost must be non-negative, got {self.cost}")


@dataclass
class StreamSpec:
    """A live stream: its entrypoint, bitrate, and designated sink set.

    ``subscribers`` maps sink name -> required success probability (the
    paper's per-(sink, stream) loss threshold ``Phi``).
    """

    name: str
    source: str
    bandwidth: float = 1.0
    subscribers: dict[str, float] = field(default_factory=dict)


class OverlayTopology:
    """Container for nodes, links and streams of an overlay deployment."""

    def __init__(self, name: str = "overlay") -> None:
        self.name = name
        self._nodes: dict[str, OverlayNode] = {}
        self._links: dict[tuple[str, str], OverlayLink] = {}
        self._streams: dict[str, StreamSpec] = {}

    # ------------------------------------------------------------------ nodes
    def add_node(self, node: OverlayNode) -> None:
        if node.name in self._nodes:
            raise ValueError(f"node {node.name!r} already exists")
        self._nodes[node.name] = node

    def node(self, name: str) -> OverlayNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def nodes(self, role: NodeRole | None = None) -> list[OverlayNode]:
        if role is None:
            return list(self._nodes.values())
        return [node for node in self._nodes.values() if node.role is role]

    @property
    def sources(self) -> list[OverlayNode]:
        return self.nodes(NodeRole.SOURCE)

    @property
    def reflectors(self) -> list[OverlayNode]:
        return self.nodes(NodeRole.REFLECTOR)

    @property
    def sinks(self) -> list[OverlayNode]:
        return self.nodes(NodeRole.SINK)

    # ------------------------------------------------------------------ links
    def add_link(self, link: OverlayLink) -> None:
        key = (link.tail, link.head)
        if key in self._links:
            raise ValueError(f"link {key} already exists")
        if link.tail not in self._nodes or link.head not in self._nodes:
            raise KeyError(f"link {key} references unknown nodes")
        tail_role = self._nodes[link.tail].role
        head_role = self._nodes[link.head].role
        valid = (tail_role, head_role) in {
            (NodeRole.SOURCE, NodeRole.REFLECTOR),
            (NodeRole.REFLECTOR, NodeRole.SINK),
        }
        if not valid:
            raise ValueError(
                f"links must go source->reflector or reflector->sink, got "
                f"{tail_role.value}->{head_role.value}"
            )
        self._links[key] = link

    def link(self, tail: str, head: str) -> OverlayLink:
        try:
            return self._links[(tail, head)]
        except KeyError:
            raise KeyError(f"no link {tail!r} -> {head!r}") from None

    def links(self) -> list[OverlayLink]:
        return list(self._links.values())

    def out_links(self, tail: str) -> list[OverlayLink]:
        return [link for (t, _h), link in self._links.items() if t == tail]

    # ---------------------------------------------------------------- streams
    def add_stream(self, stream: StreamSpec) -> None:
        if stream.name in self._streams:
            raise ValueError(f"stream {stream.name!r} already exists")
        source = self.node(stream.source)
        if source.role is not NodeRole.SOURCE:
            raise ValueError(f"stream source {stream.source!r} is not a SOURCE node")
        for sink_name, threshold in stream.subscribers.items():
            sink = self.node(sink_name)
            if sink.role is not NodeRole.SINK:
                raise ValueError(f"stream subscriber {sink_name!r} is not a SINK node")
            if not 0.0 < threshold < 1.0:
                raise ValueError(
                    f"subscriber threshold must lie in (0, 1), got {threshold}"
                )
        self._streams[stream.name] = stream

    def streams(self) -> list[StreamSpec]:
        return list(self._streams.values())

    def stream(self, name: str) -> StreamSpec:
        try:
            return self._streams[name]
        except KeyError:
            raise KeyError(f"unknown stream {name!r}") from None

    # ---------------------------------------------------------------- summary
    def size_summary(self) -> dict:
        return {
            "sources": len(self.sources),
            "reflectors": len(self.reflectors),
            "sinks": len(self.sinks),
            "links": len(self._links),
            "streams": len(self._streams),
            "demands": sum(len(s.subscribers) for s in self._streams.values()),
        }

    # --------------------------------------------------------------- convert
    def to_problem(self, name: str | None = None) -> OverlayDesignProblem:
        """Project the topology to the algorithm's abstract design problem.

        Streams become commodities; each stream's source->reflector links
        become stream edges (cost scaled by the stream bandwidth, which is how
        the bandwidth contracts of Section 1.2 charge higher-bitrate streams);
        reflector->sink links become delivery edges; subscribers become
        demands; ISPs become reflector colors.
        """
        problem = OverlayDesignProblem(name=name or f"{self.name}-problem")
        for stream in self._streams.values():
            problem.add_stream(stream.name, bandwidth=stream.bandwidth)
        for reflector in self.reflectors:
            problem.add_reflector(
                reflector.name,
                cost=reflector.cost,
                fanout=reflector.capacity,
                color=reflector.isp,
            )
        for sink in self.sinks:
            problem.add_sink(sink.name)

        for stream in self._streams.values():
            for link in self.out_links(stream.source):
                problem.add_stream_edge(
                    stream.name,
                    link.head,
                    loss_probability=link.loss_probability,
                    cost=link.cost * stream.bandwidth,
                )

        stream_bandwidth = {s.name: s.bandwidth for s in self._streams.values()}
        for link in self.links():
            if self._nodes[link.tail].role is NodeRole.REFLECTOR:
                problem.add_delivery_edge(
                    link.tail,
                    link.head,
                    loss_probability=link.loss_probability,
                    cost=link.cost,
                    stream_costs={
                        name: link.cost * bandwidth
                        for name, bandwidth in stream_bandwidth.items()
                    },
                )

        for stream in self._streams.values():
            for sink_name, threshold in stream.subscribers.items():
                problem.add_demand(sink_name, stream.name, success_threshold=threshold)
        return problem

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        summary = self.size_summary()
        return (
            f"OverlayTopology(name={self.name!r}, sources={summary['sources']}, "
            f"reflectors={summary['reflectors']}, sinks={summary['sinks']}, "
            f"links={summary['links']})"
        )
