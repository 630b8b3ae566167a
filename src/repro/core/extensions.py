"""High-level drivers for the Section 6 extensions.

Section 6 of the paper discusses several generalizations of the base problem:

* **6.1 bandwidth on reflectors** -- streams of different bitrates consume the
  reflector fanout proportionally to their bandwidth ``B^k``.  This only
  changes the fanout constraints of the LP ((3')/(4')), so it is handled by
  :class:`repro.core.formulation.ExtensionOptions(use_bandwidth=True)` and the
  unchanged pipeline.
* **6.2 capacities on all arcs** -- the paper proves no constant-factor
  guarantee is possible (it would imply one for set cover); the LP can still
  carry the constraint (8), and the rounding violates it by ``O(log n)``.
* **6.3 capacities between reflectors and sinks** and **6.4 color
  constraints** -- these survive into the GAP stage as *entangled edge sets*
  and require the path-formulation rounding of Section 6.5
  (:mod:`repro.core.path_rounding`).

:func:`design_overlay_extended` runs the full pipeline with any combination of
these, swapping the plain GAP stage for the path rounding whenever entangled
constraints are present.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.algorithm import DesignParameters, DesignReport
from repro.core.formulation import ExtensionOptions
from repro.core.path_rounding import EntangledSet, PathRoundingResult
from repro.core.problem import OverlayDesignProblem


@dataclass
class ExtendedDesignReport(DesignReport):
    """A :class:`DesignReport` plus the path-rounding details (when used)."""

    path_rounding: PathRoundingResult | None = None
    entangled_sets: list[EntangledSet] = field(default_factory=list)


def design_overlay_extended(
    problem: OverlayDesignProblem,
    parameters: DesignParameters | None = None,
    rng: np.random.Generator | None = None,
) -> ExtendedDesignReport:
    """Run the pipeline with the Section-6 extensions requested in ``parameters``.

    When ``parameters.extensions`` enables arc capacities or color constraints,
    the final integralization uses the Section-6.5 path rounding instead of the
    plain min-cost-flow GAP rounding; otherwise this behaves exactly like
    :func:`repro.core.algorithm.design_overlay`.

    .. note::
       This is a compatibility wrapper over the unified strategy API: it runs
       :meth:`repro.api.DesignPipeline.extended` (the registered
       ``"spaa03-extended"`` designer) and produces bit-identical results for
       a fixed seed.  New code should prefer
       ``repro.api.get_designer("spaa03-extended")`` -- see ``docs/api.md``.
    """
    import warnings

    from repro.api.pipeline import DesignPipeline

    warnings.warn(
        "design_overlay_extended is deprecated; submit a DesignRequest("
        "strategy='spaa03-extended') through repro.api.run_request instead "
        "(see the migration table in docs/api.md)",
        DeprecationWarning,
        stacklevel=2,
    )
    context = DesignPipeline.extended().run(problem, parameters, rng)
    return extended_report_from_context(context)


def extended_report_from_context(context) -> ExtendedDesignReport:
    """Assemble an :class:`ExtendedDesignReport` from a finished pipeline context."""
    return ExtendedDesignReport(
        **context.report_fields(),
        path_rounding=context.path_rounding,
        entangled_sets=list(context.entangled_sets),
    )


def color_constrained_parameters(
    base: DesignParameters | None = None,
) -> DesignParameters:
    """Convenience: parameters with the Section-6.4 color constraints switched on."""
    base = base or DesignParameters()
    return DesignParameters(
        rounding=base.rounding,
        extensions=ExtensionOptions(
            use_bandwidth=base.extensions.use_bandwidth,
            use_reflector_capacities=base.extensions.use_reflector_capacities,
            use_arc_capacities=base.extensions.use_arc_capacities,
            use_color_constraints=True,
            drop_cutting_plane=base.extensions.drop_cutting_plane,
        ),
        retry_rounding=base.retry_rounding,
        max_rounding_attempts=base.max_rounding_attempts,
        keep_degenerate_box=base.keep_degenerate_box,
        repair_shortfall=base.repair_shortfall,
        repair_fanout_slack=base.repair_fanout_slack,
        solver_backend=base.solver_backend,
    )


__all__ = [
    "ExtendedDesignReport",
    "color_constrained_parameters",
    "design_overlay_extended",
    "extended_report_from_context",
]
