"""Failure injection for the streaming simulation.

Failures are expressed over *packet-index windows* (the simulation's notion of
time): during ``[start, end)`` the affected component forwards nothing (or, for
congestion events, drops an extra ``severity`` fraction of packets).

Four kinds of events reproduce the catastrophic scenarios the paper describes
(Section 1, Section 6.4):

* ``isp_outage`` -- every link whose tail or head node is homed in the ISP is
  dead for the window (WorldCom-style total outage, or a peering dispute
  isolating the ISP);
* ``reflector_crash`` -- a single reflector machine stops forwarding (server
  failure / colo power event);
* ``node_outage`` -- any named node (reflector *or* sink *or* source) goes
  dark; regional failures are modelled as one ``node_outage`` per member of a
  topology cluster;
* ``link_congestion`` -- links *into* the target node drop an extra
  ``severity`` fraction of packets (flash-crowd overload of an edge region).

Besides the event containers this module hosts the *correlated failure
samplers* used by the scenario catalogue
(:mod:`repro.simulation.scenarios`): ISP-wide outages with a common shock,
regional/topology-cluster failures, and flash-crowd congestion waves.  All
randomness flows through an explicit ``numpy`` generator, so a sampled
schedule is reproducible from one seed (the golden regression tests pin
exact outage masks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Event kinds that force total loss on matching links during their window.
OUTAGE_KINDS = ("isp_outage", "reflector_crash", "node_outage")
#: Event kinds with fractional severity (extra loss, not total).
CONGESTION_KINDS = ("link_congestion",)
KINDS = OUTAGE_KINDS + CONGESTION_KINDS


@dataclass(frozen=True)
class FailureEvent:
    """A component failure over a packet-index window.

    Attributes
    ----------
    kind:
        One of :data:`KINDS`.
    target:
        ISP name (``isp_outage``), reflector name (``reflector_crash``),
        node name (``node_outage``), or the head node whose incoming links
        are congested (``link_congestion``).
    start, end:
        Packet-index window ``[start, end)`` during which the component is
        down (or congested).
    severity:
        Fraction of packets additionally lost during the window.  Must be
        1.0 for outage kinds; strictly inside ``(0, 1)`` for
        ``link_congestion`` -- a "congestion" event that drops everything is
        almost always a mistake (use ``node_outage`` for a blackout), so the
        outage-shaped default is rejected rather than silently applied.
    """

    kind: str
    target: str
    start: int
    end: int
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r} (known: {KINDS})")
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid window [{self.start}, {self.end})")
        if self.kind in OUTAGE_KINDS:
            if self.severity != 1.0:
                raise ValueError(
                    f"{self.kind} events are total outages (severity must be 1.0)"
                )
        elif not 0.0 < self.severity < 1.0:
            raise ValueError(
                f"{self.kind} severity must lie strictly inside (0, 1), got "
                f"{self.severity}; model a total loss with a node_outage event"
            )

    def window_mask(self, num_packets: int) -> np.ndarray:
        """Boolean mask of packets falling inside the outage window.

        Events that outlast the session are truncated at ``num_packets``;
        events that start at or after ``num_packets`` contribute nothing
        (:meth:`FailureSchedule.validate_for_session` rejects those up front
        so they can never become a silent no-op).
        """
        mask = np.zeros(num_packets, dtype=bool)
        mask[min(self.start, num_packets) : min(self.end, num_packets)] = True
        return mask


@dataclass
class FailureSchedule:
    """A collection of failure events applied to a simulation run."""

    events: list[FailureEvent] = field(default_factory=list)

    def add(self, event: FailureEvent) -> None:
        self.events.append(event)

    def extend(self, events: Iterable[FailureEvent]) -> None:
        for event in events:
            self.add(event)

    def __len__(self) -> int:
        return len(self.events)

    def validate_for_session(self, num_packets: int) -> None:
        """Reject events that could silently never fire in a session.

        An event whose window starts at or after ``num_packets`` would be a
        silent no-op (the failure the caller configured never happens); this
        raises instead of letting the run quietly measure the wrong scenario.
        Events that merely *end* after ``num_packets`` are fine -- they are
        truncated at the session boundary and still apply to every packet
        from ``start`` on (golden tests pin this truncation).
        """
        for event in self.events:
            if event.start >= num_packets:
                raise ValueError(
                    f"failure event {event.kind}/{event.target} window "
                    f"[{event.start}, {event.end}) starts at or after the "
                    f"session end ({num_packets} packets): it would silently "
                    "never fire"
                )

    def link_index(self, node_isp: Mapping[str, str | None] | None = None) -> "LinkEventIndex":
        """Index the events once for per-link lookups (see :class:`LinkEventIndex`)."""
        return LinkEventIndex(self.events, node_isp or {})

    @staticmethod
    def single_isp_outage(isp: str, num_packets: int, fraction: float = 0.3) -> "FailureSchedule":
        """Convenience schedule: one ISP down for a ``fraction`` of the session."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        span = int(round(fraction * num_packets))
        start = (num_packets - span) // 2
        return FailureSchedule([FailureEvent("isp_outage", isp, start, start + span)])


class LinkEventIndex:
    """A schedule's events keyed by what they match, for per-link lookups.

    Built once per schedule: node -> its ``reflector_crash`` and
    ``node_outage`` events, ISP -> its ``isp_outage`` events, head node ->
    its ``link_congestion`` events.  An ISP outage hits every link with an
    endpoint homed in the ISP, a crash or node outage every link with an
    endpoint at the node, and congestion only the links *into* its node, so
    a link's events are a handful of dict lookups, not a scan of every event.
    """

    def __init__(
        self, events: Sequence[FailureEvent], node_isp: Mapping[str, str | None]
    ) -> None:
        self.events = tuple(events)
        self.node_isp = node_isp
        self._by_node: dict[str, list[int]] = {}
        self._by_isp: dict[str | None, list[int]] = {}
        self._by_head: dict[str, list[int]] = {}
        for index, event in enumerate(self.events):
            if event.kind == "isp_outage":
                keyed = self._by_isp
            elif event.kind in CONGESTION_KINDS:
                keyed = self._by_head
            else:
                keyed = self._by_node
            keyed.setdefault(event.target, []).append(index)

    def link_events(self, tail: str, head: str) -> tuple[int, ...]:
        """Sorted indices of the events that affect the link ``tail -> head``."""
        isp = self.node_isp.get
        matched = [
            *self._by_node.get(tail, ()),
            *self._by_node.get(head, ()),
            *self._by_isp.get(isp(tail), ()),
            *self._by_isp.get(isp(head), ()),
            *self._by_head.get(head, ()),
        ]
        return tuple(sorted(set(matched)))

    def loss_profile(self, events: Sequence[int], num_packets: int) -> np.ndarray | None:
        """Forced per-packet loss probability under ``events``, or ``None``.

        Events apply in index order: outages force loss 1.0, and overlapping
        congestion events combine independently (``1 - prod(1 - severity)``).
        ``None`` means no event, so callers can skip the overlay entirely.
        """
        if not events:
            return None
        profile = np.zeros(num_packets, dtype=np.float64)
        for index in events:
            event = self.events[index]
            window = event.window_mask(num_packets)
            if event.kind in OUTAGE_KINDS:
                profile[window] = 1.0
            else:
                profile[window] = 1.0 - (1.0 - profile[window]) * (1.0 - event.severity)
        return profile


# ---------------------------------------------------------------------------
# Correlated failure samplers (the scenario catalogue's raw material)
# ---------------------------------------------------------------------------


def _sample_window(
    num_packets: int, rng: np.random.Generator, duration_fraction: float
) -> tuple[int, int]:
    """One outage window: duration jittered around the requested fraction."""
    span = duration_fraction * float(rng.uniform(0.6, 1.4)) * num_packets
    span = int(np.clip(round(span), 1, num_packets))
    start = int(rng.integers(0, num_packets - span + 1))
    return start, start + span


def sample_isp_outage_schedule(
    isp_names: Sequence[str],
    num_packets: int,
    rng: np.random.Generator,
    *,
    outage_probability: float = 0.25,
    shock_probability: float = 0.3,
    shock_outage_probability: float = 0.8,
    duration_fraction: float = 0.3,
) -> FailureSchedule:
    """Correlated ISP-wide outages (the paper's WorldCom / C&W events).

    A *common shock* (a routing catastrophe, a peering dispute) occurs with
    ``shock_probability``; under the shock each ISP fails independently with
    ``shock_outage_probability``, otherwise with the background
    ``outage_probability``.  This induces positive correlation between ISP
    failures while keeping every marginal easy to reason about.  Each failed
    ISP gets one outage window covering roughly ``duration_fraction`` of the
    session.
    """
    if not 0.0 <= outage_probability <= 1.0:
        raise ValueError(f"outage_probability must lie in [0, 1], got {outage_probability}")
    schedule = FailureSchedule()
    shock = bool(rng.random() < shock_probability)
    per_isp = shock_outage_probability if shock else outage_probability
    for isp in isp_names:
        if rng.random() < per_isp:
            start, end = _sample_window(num_packets, rng, duration_fraction)
            schedule.add(FailureEvent("isp_outage", isp, start, end))
    return schedule


def sample_regional_outage_schedule(
    clusters: Mapping[str, Sequence[str]],
    num_packets: int,
    rng: np.random.Generator,
    *,
    outage_probability: float = 0.5,
    duration_fraction: float = 0.25,
    max_regions: int = 1,
) -> FailureSchedule:
    """Topology-cluster failures: whole regions (colos) go dark together.

    ``clusters`` maps cluster name -> member node names (reflectors and
    sinks).  Up to ``max_regions`` clusters are struck, each with probability
    ``outage_probability``; a struck cluster emits one ``node_outage`` event
    per member over a shared window, which is exactly how a regional power or
    fiber event presents to the overlay.
    """
    schedule = FailureSchedule()
    if not clusters:
        return schedule
    names = sorted(clusters)
    order = rng.permutation(len(names))
    struck = 0
    for index in order:
        if struck >= max_regions:
            break
        if rng.random() >= outage_probability:
            continue
        struck += 1
        start, end = _sample_window(num_packets, rng, duration_fraction)
        for node in clusters[names[index]]:
            schedule.add(FailureEvent("node_outage", node, start, end))
    return schedule


def sample_flash_crowd_congestion(
    hot_sinks: Sequence[str],
    num_packets: int,
    rng: np.random.Generator,
    *,
    severity: float = 0.35,
    surge_fraction: float = 0.4,
    num_waves: int = 2,
) -> FailureSchedule:
    """Flash-crowd demand surge: congestion waves on the hot edge region.

    During each wave every link into a hot sink drops an extra ``severity``
    fraction of packets (jittered per sink) -- the last-mile congestion a
    sudden audience spike produces (the paper's MacWorld-2002 motivation).
    """
    if not 0.0 < severity < 1.0:
        raise ValueError(f"severity must lie in (0, 1), got {severity}")
    schedule = FailureSchedule()
    for _ in range(max(1, num_waves)):
        start, end = _sample_window(num_packets, rng, surge_fraction / max(1, num_waves))
        for sink in hot_sinks:
            jitter = float(np.clip(severity * rng.uniform(0.7, 1.3), 0.01, 0.99))
            schedule.add(FailureEvent("link_congestion", sink, start, end, severity=jitter))
    return schedule
