"""Core algorithms: the paper's primary contribution.

This subpackage implements the SPAA'03 three-level overlay multicast design
algorithm end to end:

* :mod:`repro.core.problem` -- the 3-level min-cost reliability multicommodity
  flow problem (Section 2's input data).
* :mod:`repro.core.weights` -- probability <-> weight transforms.
* :mod:`repro.core.formulation` -- the IP/LP of Section 2 plus the Section 6
  constraint variants, built on :mod:`repro.lp`.
* :mod:`repro.core.rounding` -- the randomized rounding of Section 3.
* :mod:`repro.core.concentration` -- Hoeffding--Chernoff bounds (Section 4 /
  Appendix A) used for analysis and validated empirically in the benchmarks.
* :mod:`repro.core.gap` -- the modified generalized-assignment rounding of
  Section 5 (the Figure-2 network).
* :mod:`repro.core.path_rounding` -- the Srinivasan--Teo style path rounding
  used for the Section 6.3-6.5 extensions.
* :mod:`repro.core.extensions` -- bandwidth, arc-capacity and color-constraint
  extensions (Sections 6.1-6.4).
* :mod:`repro.core.algorithm` -- the pipeline's parameters and repair pass
  (the steps run in :class:`repro.api.DesignPipeline`).
* :mod:`repro.core.solution` -- the resulting overlay design and its audit.
"""

from repro.core.algorithm import DesignParameters
from repro.core.problem import Demand, OverlayDesignProblem, StreamEdge, DeliveryEdge
from repro.core.solution import OverlaySolution
from repro.core.weights import (
    failure_to_weight,
    path_failure_probability,
    success_from_weight,
    threshold_to_weight,
)

__all__ = [
    "Demand",
    "DeliveryEdge",
    "DesignParameters",
    "OverlayDesignProblem",
    "OverlaySolution",
    "StreamEdge",
    "failure_to_weight",
    "path_failure_probability",
    "success_from_weight",
    "threshold_to_weight",
]
