"""Overlay network substrate: topology, loss models, exact reliability.

This subpackage models the *physical* layer the design algorithm sits on top
of: entrypoints, reflectors and edgeservers placed in co-location centers,
grouped by ISP, connected by lossy Internet paths (Figure 1 of the paper and
the deployment described in Sections 1.1--1.2).

It provides:

* :mod:`repro.network.isp` -- ISPs with outage behaviour (the catastrophic
  failures motivating the Section 6.4 color constraints);
* :mod:`repro.network.topology` -- node / link / topology containers and the
  conversion to an :class:`repro.core.problem.OverlayDesignProblem`;
* :mod:`repro.network.loss` -- link-loss models (independent Bernoulli, the
  paper's base model; Gilbert--Elliott bursty loss) used by the packet
  simulation;
* :mod:`repro.network.reliability` -- exact reliability computation for
  three-level designs and scenario-based (ISP outage) reliability.
"""

from repro.network.isp import ISP, ISPRegistry
from repro.network.loss import (
    BernoulliLossModel,
    GilbertElliottLossModel,
    LossModel,
)
from repro.network.reliability import (
    delivery_success_probability,
    demand_success_probability,
    isp_outage_success_probability,
    solution_reliability_summary,
)
from repro.network.topology import NodeRole, OverlayLink, OverlayNode, OverlayTopology

__all__ = [
    "ISP",
    "ISPRegistry",
    "BernoulliLossModel",
    "GilbertElliottLossModel",
    "LossModel",
    "NodeRole",
    "OverlayLink",
    "OverlayNode",
    "OverlayTopology",
    "delivery_success_probability",
    "demand_success_probability",
    "isp_outage_success_probability",
    "solution_reliability_summary",
]
