"""repro -- Designing Overlay Multicast Networks for Streaming (SPAA 2003).

A faithful, self-contained Python reproduction of the approximation algorithm
of Andreev, Maggs, Meyerson and Sitaraman for designing three-level overlay
multicast networks (sources -> reflectors -> edgeservers) that deliver live
streams subject to capacity, quality (loss) and reliability requirements at
near-minimum cost.

Quick start
-----------
>>> from repro import OverlayDesignProblem, DesignParameters, DesignRequest, run_request
>>> problem = OverlayDesignProblem()
>>> problem.add_stream("concert")
>>> for r in ("r1", "r2"):
...     problem.add_reflector(r, cost=10.0, fanout=4)
...     problem.add_stream_edge("concert", r, loss_probability=0.01, cost=1.0)
>>> problem.add_sink("boston")
>>> problem.add_delivery_edge("r1", "boston", loss_probability=0.05, cost=0.5)
>>> problem.add_delivery_edge("r2", "boston", loss_probability=0.10, cost=0.25)
>>> problem.add_demand("boston", "concert", success_threshold=0.99)
>>> result = run_request(
...     DesignRequest(problem, DesignParameters(seed=7, repair_shortfall=True)))
>>> result.solution.success_probability(problem.demands[0]) >= 0.99
True
>>> result.solution.total_cost() >= result.report.lp_lower_bound
True

(``repair_shortfall`` enables the Section-7-style greedy repair pass; the
bare approximation algorithm only meets the threshold *with high
probability*, which on a two-reflector toy instance is not a certainty.)

Every design strategy -- the paper's algorithm, its Section-6 extension and
all six baselines -- lives in the strategy registry (:mod:`repro.api`)
behind one typed request/response boundary.  The historical free functions
(``design_overlay`` and friends) are deprecated wrappers over it, so results
are identical seed-for-seed:

>>> from repro import get_designer
>>> direct = get_designer("spaa03").design(
...     DesignRequest(problem, DesignParameters(seed=7, repair_shortfall=True)))
>>> direct.solution.assignments == result.solution.assignments
True
>>> sorted(designer_names())[:3]
['exact', 'greedy', 'lp-bound']

Many requests fan out over worker processes deterministically via
``design_batch(requests, jobs=...)``; :mod:`repro.serve` layers a
content-addressed artifact cache, a long-lived :class:`~repro.serve.DesignSession`
and an async :class:`~repro.serve.DesignService` front on top.  See
``docs/api.md`` for the registry and the migration guide, and
``docs/serving.md`` for the service layer.

Package layout
--------------
``repro.core``        the paper's algorithm (LP, rounding, GAP, extensions)
``repro.api``         unified strategy API: registry, staged pipeline, batch
``repro.serve``       design service: artifact cache, sessions, async front
``repro.lp``          sparse LP builder + solver backends
``repro.network``     overlay topology, loss models, exact reliability
``repro.workloads``   synthetic Akamai-like instance generators
``repro.simulation``  packet-level streaming simulation + failure injection
``repro.baselines``   greedy / naive / random / single-tree comparison designs
``repro.analysis``    metrics, audits, experiment helpers
"""

from repro.api import (
    Designer,
    DesignPipeline,
    DesignRequest,
    DesignResult,
    EvaluationSpec,
    design_batch,
    design_incremental,
    designer_names,
    get_designer,
    register_designer,
    run_request,
)
from repro.core.algorithm import (
    DesignParameters,
    DesignReport,
    design_overlay,
    fractional_lower_bound,
    repair_weight_shortfalls,
)
from repro.core.extensions import design_overlay_extended
from repro.core.formulation import ExtensionOptions, build_sparse_formulation
from repro.core.problem import Demand, DeliveryEdge, OverlayDesignProblem, StreamEdge
from repro.core.rounding import RoundingParameters
from repro.core.solution import OverlaySolution
from repro.incremental import ProblemDelta, apply_delta, diff_problems, invert_delta
from repro.serve import ArtifactCache, DesignService, DesignSession
from repro.simulation import (
    MonteCarloConfig,
    evaluate_design,
    run_monte_carlo,
    simulate_solution,
)

__version__ = "1.2.0"

__all__ = [
    "ArtifactCache",
    "Demand",
    "DeliveryEdge",
    "Designer",
    "DesignParameters",
    "DesignPipeline",
    "DesignReport",
    "DesignRequest",
    "DesignResult",
    "DesignService",
    "DesignSession",
    "EvaluationSpec",
    "ExtensionOptions",
    "MonteCarloConfig",
    "OverlayDesignProblem",
    "OverlaySolution",
    "ProblemDelta",
    "RoundingParameters",
    "StreamEdge",
    "apply_delta",
    "build_sparse_formulation",
    "design_batch",
    "design_incremental",
    "design_overlay",
    "design_overlay_extended",
    "designer_names",
    "diff_problems",
    "evaluate_design",
    "fractional_lower_bound",
    "get_designer",
    "invert_delta",
    "register_designer",
    "repair_weight_shortfalls",
    "run_monte_carlo",
    "run_request",
    "simulate_solution",
    "__version__",
]
