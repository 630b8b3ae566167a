"""The Section 6 extensions: where each one lives, plus a parameter helper.

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

:meth:`repro.api.DesignPipeline.extended` (the registered ``"spaa03-extended"``
designer) runs the full pipeline with any combination of these, swapping the
plain GAP stage for the path rounding whenever entangled constraints are
present; :func:`color_constrained_parameters` switches the Section-6.4 color
constraints on.
"""

from __future__ import annotations

from repro.core.algorithm import DesignParameters
from repro.core.formulation import ExtensionOptions


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
    )


__all__ = ["color_constrained_parameters"]
