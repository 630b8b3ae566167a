"""ISPs and their failure behaviour.

The paper motivates the color constraints (Section 6.4) with catastrophic,
ISP-wide events: "on 10/3/2002 the WorldCom network experienced a total outage
for nine hours", "in June 2001 Cable and Wireless abruptly stopped peering
with PSINet".  To evaluate the value of ISP diversity we model ISPs as
entities that are either *up* or *down*; when an ISP is down every reflector
(and every link endpoint) homed in it stops forwarding packets.

:class:`ISPRegistry` tracks the ISPs of a deployment and the probability of
each exact outage scenario, for the scenario-based reliability analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True)
class ISP:
    """An Internet service provider hosting part of the overlay.

    Attributes
    ----------
    name:
        Identifier (also used as the reflector *color* in the design problem).
    outage_probability:
        Probability that the ISP suffers a total outage during the period of
        interest (e.g. the duration of a live event).
    """

    name: str
    outage_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.outage_probability <= 1.0:
            raise ValueError(
                f"outage probability must lie in [0, 1], got {self.outage_probability}"
            )


@dataclass
class ISPRegistry:
    """A collection of ISPs and the probabilities of their outage scenarios."""

    isps: dict[str, ISP] = field(default_factory=dict)

    def add(self, isp: ISP) -> None:
        if isp.name in self.isps:
            raise ValueError(f"ISP {isp.name!r} already registered")
        self.isps[isp.name] = isp

    def get(self, name: str) -> ISP:
        try:
            return self.isps[name]
        except KeyError:
            raise KeyError(f"unknown ISP {name!r}") from None

    def names(self) -> list[str]:
        return list(self.isps)

    def __len__(self) -> int:
        return len(self.isps)

    def __iter__(self) -> Iterator[ISP]:
        return iter(self.isps.values())

    def __contains__(self, name: str) -> bool:
        return name in self.isps

    # ------------------------------------------------------------ scenarios
    def outage_probability_of_scenario(self, down: set[str]) -> float:
        """Probability of an exact outage scenario (independent ISP outages)."""
        probability = 1.0
        for isp in self.isps.values():
            if isp.name in down:
                probability *= isp.outage_probability
            else:
                probability *= 1.0 - isp.outage_probability
        return probability
